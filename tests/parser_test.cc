// Parser tests: declaration shapes, expression precedence, statement forms,
// name resolution, implicit externs, attributes, and error recovery.

#include <gtest/gtest.h>

#include "src/ast/ast_printer.h"
#include "src/parser/parser.h"

namespace vc {
namespace {

struct Parsed {
  SourceManager sm;
  DiagnosticEngine diags;
  TranslationUnit unit;
};

std::unique_ptr<Parsed> Parse(const std::string& code, bool expect_clean = true) {
  auto parsed = std::make_unique<Parsed>();
  parsed->unit = ParseString(parsed->sm, "test.c", code, parsed->diags);
  if (expect_clean) {
    EXPECT_FALSE(parsed->diags.HasErrors()) << parsed->diags.Render(parsed->sm);
  }
  return parsed;
}

// Extracts the printed form of the first statement of function `name`.
std::string BodyOf(const Parsed& parsed, const std::string& name) {
  const FunctionDecl* func = parsed.unit.FindFunction(name);
  EXPECT_NE(func, nullptr);
  return func != nullptr && func->body != nullptr ? PrintStmt(func->body) : "";
}

TEST(Parser, FunctionWithParams) {
  auto parsed = Parse("int add(int a, int b) { return a + b; }");
  const FunctionDecl* func = parsed->unit.FindFunction("add");
  ASSERT_NE(func, nullptr);
  EXPECT_TRUE(func->IsDefined());
  ASSERT_EQ(func->params.size(), 2u);
  EXPECT_EQ(func->params[0]->name, "a");
  EXPECT_TRUE(func->params[0]->is_param);
  EXPECT_EQ(func->params[0]->param_index, 0);
  EXPECT_EQ(func->params[1]->param_index, 1);
  EXPECT_EQ(PrintFunction(func), "int add(int a, int b) { (return (+ a b)) }");
}

TEST(Parser, Prototype) {
  auto parsed = Parse("int ext(int a);");
  const FunctionDecl* func = parsed->unit.FindFunction("ext");
  ASSERT_NE(func, nullptr);
  EXPECT_FALSE(func->IsDefined());
  EXPECT_FALSE(func->is_implicit);
}

TEST(Parser, VoidParameterList) {
  auto parsed = Parse("int f(void) { return 1; }");
  EXPECT_TRUE(parsed->unit.FindFunction("f")->params.empty());
}

TEST(Parser, StructDeclAndFieldResolution) {
  auto parsed = Parse(
      "struct point { int x; int y; };\n"
      "int get_x(struct point p) { return p.x; }");
  ASSERT_EQ(parsed->unit.structs.size(), 1u);
  const StructDecl* s = parsed->unit.structs[0];
  EXPECT_EQ(s->fields.size(), 2u);
  EXPECT_EQ(s->FindField("y")->index, 1);
  EXPECT_EQ(s->FindField("z"), nullptr);
  EXPECT_EQ(BodyOf(*parsed, "get_x"), "{ (return (. p x)) }");
}

TEST(Parser, ArrowResolvesThroughPointer) {
  auto parsed = Parse(
      "struct node { int v; };\n"
      "int val(struct node *n) { return n->v; }");
  EXPECT_EQ(BodyOf(*parsed, "val"), "{ (return (-> n v)) }");
}

TEST(Parser, PrecedenceMulOverAdd) {
  auto parsed = Parse("int f(int a, int b, int c) { return a + b * c; }");
  EXPECT_EQ(BodyOf(*parsed, "f"), "{ (return (+ a (* b c))) }");
}

TEST(Parser, PrecedenceComparisonAndLogic) {
  auto parsed = Parse("int f(int a, int b) { return a < b && b != 0; }");
  EXPECT_EQ(BodyOf(*parsed, "f"), "{ (return (&& (< a b) (!= b 0))) }");
}

TEST(Parser, AssignmentIsRightAssociative) {
  auto parsed = Parse("int f(int a, int b) { a = b = 1; return a; }");
  EXPECT_EQ(BodyOf(*parsed, "f"), "{ (= a (= b 1)); (return a) }");
}

TEST(Parser, CompoundAssignment) {
  auto parsed = Parse("int f(int a) { a += 2; a -= 1; return a; }");
  EXPECT_EQ(BodyOf(*parsed, "f"), "{ (+= a 2); (-= a 1); (return a) }");
}

TEST(Parser, UnaryAndPostfix) {
  auto parsed = Parse("int f(int a) { ++a; a--; return -a; }");
  EXPECT_EQ(BodyOf(*parsed, "f"), "{ (pre++ a); (post-- a); (return (pre- a)) }");
}

TEST(Parser, PointerDeclaratorAndDeref) {
  auto parsed = Parse("int f(int *p) { *p = 3; return *p; }");
  const FunctionDecl* func = parsed->unit.FindFunction("f");
  EXPECT_TRUE(func->params[0]->type->IsPointer());
  EXPECT_EQ(BodyOf(*parsed, "f"), "{ (= (pre* p) 3); (return (pre* p)) }");
}

TEST(Parser, AddressOf) {
  auto parsed = Parse("int g(int *p); int f(int x) { return g(&x); }");
  EXPECT_EQ(BodyOf(*parsed, "f"), "{ (return (call g (pre& x))) }");
}

TEST(Parser, TernaryConditional) {
  auto parsed = Parse("int f(int a) { return a > 0 ? a : 0 - a; }");
  EXPECT_EQ(BodyOf(*parsed, "f"), "{ (return (?: (> a 0) a (- 0 a))) }");
}

TEST(Parser, CastAndVoidCast) {
  auto parsed = Parse("int f(int a) { (void)a; return (int)a; }");
  EXPECT_EQ(BodyOf(*parsed, "f"), "{ (cast void a); (return (cast int a)) }");
}

TEST(Parser, IfElseChain) {
  auto parsed = Parse("int f(int a) { if (a > 1) { return 1; } else if (a > 0) { return 2; } return 3; }");
  EXPECT_EQ(BodyOf(*parsed, "f"),
            "{ (if (> a 1) { (return 1) } else (if (> a 0) { (return 2) })) (return 3) }");
}

TEST(Parser, WhileAndFor) {
  auto parsed = Parse(
      "int f(int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) { s += i; }\n"
      "  while (s > 100) { s -= 10; }\n"
      "  return s;\n"
      "}");
  std::string body = BodyOf(*parsed, "f");
  EXPECT_NE(body.find("(for (decl int i = 0) (< i n) (= i (+ i 1))"), std::string::npos);
  EXPECT_NE(body.find("(while (> s 100)"), std::string::npos);
}

TEST(Parser, BreakContinue) {
  auto parsed = Parse("void f(int n) { while (n) { if (n > 5) { break; } continue; } }");
  std::string body = BodyOf(*parsed, "f");
  EXPECT_NE(body.find("(break)"), std::string::npos);
  EXPECT_NE(body.find("(continue)"), std::string::npos);
}

TEST(Parser, CommaDeclList) {
  auto parsed = Parse("int f(void) { int a = 1, b = 2; return a + b; }");
  EXPECT_EQ(BodyOf(*parsed, "f"), "{ { (decl int a = 1) (decl int b = 2) } (return (+ a b)) }");
}

TEST(Parser, ArrayDeclBecomesPointer) {
  auto parsed = Parse("int f(void) { char buf[16]; buf[0] = 1; return buf[0]; }");
  std::string body = BodyOf(*parsed, "f");
  EXPECT_NE(body.find("(decl char* buf)"), std::string::npos);
  EXPECT_NE(body.find("(index buf 0)"), std::string::npos);
}

TEST(Parser, UnknownCalleeBecomesImplicitExtern) {
  auto parsed = Parse("int f(int x) { return ext_call(x); }");
  const FunctionDecl* ext = parsed->unit.FindFunction("ext_call");
  ASSERT_NE(ext, nullptr);
  EXPECT_TRUE(ext->is_implicit);
  EXPECT_FALSE(ext->IsDefined());
}

TEST(Parser, SameNameCalleeReusedAcrossCalls) {
  auto parsed = Parse("int f(int x) { log_it(x); log_it(x + 1); return x; }");
  int count = 0;
  for (const FunctionDecl* func : parsed->unit.functions) {
    count += func->name == "log_it" ? 1 : 0;
  }
  EXPECT_EQ(count, 1);
}

TEST(Parser, PrototypeThenDefinitionSharesDecl) {
  auto parsed = Parse("int f(int x);\nint f(int x) { return x; }");
  int count = 0;
  for (const FunctionDecl* func : parsed->unit.functions) {
    count += func->name == "f" ? 1 : 0;
  }
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(parsed->unit.FindFunction("f")->IsDefined());
}

TEST(Parser, UnusedAttributeOnParam) {
  auto parsed = Parse("int f(int a, int b [[maybe_unused]]) { return a; }");
  const FunctionDecl* func = parsed->unit.FindFunction("f");
  EXPECT_FALSE(func->params[0]->has_unused_attr);
  EXPECT_TRUE(func->params[1]->has_unused_attr);
}

TEST(Parser, UnusedAttributeOnLocal) {
  auto parsed = Parse("int f(int a) { int x [[maybe_unused]] = a; return a; }");
  // Find the decl through the body.
  const FunctionDecl* func = parsed->unit.FindFunction("f");
  const auto* decl = static_cast<const DeclStmt*>(static_cast<const CompoundStmt*>(
      static_cast<const Stmt*>(func->body))->body[0]);
  EXPECT_TRUE(decl->var->has_unused_attr);
}

TEST(Parser, GnuAttributeSpelling) {
  auto parsed = Parse("int f(int a __attribute__((unused))) { return 1; }");
  EXPECT_TRUE(parsed->unit.FindFunction("f")->params[0]->has_unused_attr);
}

TEST(Parser, GlobalsRegistered) {
  auto parsed = Parse("int g_counter;\nint f(void) { g_counter = 1; return g_counter; }");
  ASSERT_EQ(parsed->unit.globals.size(), 1u);
  EXPECT_TRUE(parsed->unit.globals[0]->is_global);
}

TEST(Parser, StaticFunction) {
  auto parsed = Parse("static int helper(int a) { return a; }");
  EXPECT_TRUE(parsed->unit.FindFunction("helper")->is_static);
}

TEST(Parser, FunctionRangeCoversBody) {
  auto parsed = Parse("int one(void) { return 1; }\nint two(void) {\n  return 2;\n}\n");
  const FunctionDecl* two = parsed->unit.FindFunction("two");
  EXPECT_EQ(two->range.begin.line, 2);
  EXPECT_EQ(two->range.end.line, 4);
  EXPECT_TRUE(two->range.ContainsLine(3));
  EXPECT_FALSE(two->range.ContainsLine(1));
}

TEST(Parser, UndeclaredVariableReportsErrorButRecovers) {
  SourceManager sm;
  DiagnosticEngine diags;
  TranslationUnit unit = ParseString(sm, "bad.c", "int f(void) { return mystery + 1; }", diags);
  EXPECT_TRUE(diags.HasErrors());
  EXPECT_NE(unit.FindFunction("f"), nullptr);  // function still parsed
}

TEST(Parser, RecoversAfterBadStatement) {
  SourceManager sm;
  DiagnosticEngine diags;
  TranslationUnit unit = ParseString(
      sm, "bad.c", "int f(int a) { a = ; return a; }\nint g(int b) { return b; }", diags);
  EXPECT_TRUE(diags.HasErrors());
  EXPECT_NE(unit.FindFunction("g"), nullptr);
}

TEST(Parser, TypeCollapsing) {
  auto parsed = Parse(
      "int f(unsigned long n, size_t s, long long m, const char *p) { return n + s + m; }");
  const FunctionDecl* func = parsed->unit.FindFunction("f");
  EXPECT_TRUE(func->params[0]->type->IsInt());
  EXPECT_TRUE(func->params[1]->type->IsInt());
  EXPECT_TRUE(func->params[2]->type->IsInt());
  EXPECT_TRUE(func->params[3]->type->IsPointer());
  EXPECT_EQ(func->params[3]->type->pointee()->kind(), TypeKind::kChar);
}

TEST(Parser, BoolAndNullLiterals) {
  auto parsed = Parse("int f(int *p) { if (p == NULL) { return true; } return false; }");
  std::string body = BodyOf(*parsed, "f");
  EXPECT_NE(body.find("(== p null)"), std::string::npos);
  EXPECT_NE(body.find("(return true)"), std::string::npos);
}

TEST(Parser, SizeofForms) {
  auto parsed = Parse("int f(int a) { return sizeof(int) + sizeof(a); }");
  EXPECT_EQ(BodyOf(*parsed, "f"), "{ (return (+ (sizeof) (sizeof))) }");
}

TEST(Parser, PreprocessorDisabledCodeNotParsed) {
  auto parsed = Parse(
      "int f(int a) {\n"
      "  int n = 0;\n"
      "#if FEATURE_X\n"
      "  n = this_would_not_parse(a;;\n"
      "#endif\n"
      "  return n + a;\n"
      "}");
  EXPECT_NE(parsed->unit.FindFunction("f"), nullptr);
}

// Adversarial nesting must produce a diagnostic, not a stack overflow: the
// parser recurses per nesting level, so without the depth cap a ~10k-deep
// expression would blow the runtime stack long before lexing becomes slow.
TEST(Parser, DeeplyNestedExpressionHitsDepthCapNotStack) {
  constexpr int kDepth = 10000;
  std::string code = "int f(void) { return ";
  code.append(kDepth, '(');
  code += "1";
  code.append(kDepth, ')');
  code += "; }";
  auto parsed = Parse(code, /*expect_clean=*/false);
  EXPECT_TRUE(parsed->diags.HasErrors());
  EXPECT_NE(parsed->diags.Render(parsed->sm).find("nesting too deep"), std::string::npos);
}

TEST(Parser, DeeplyChainedElseIfHitsDepthCapNotStack) {
  constexpr int kDepth = 10000;
  std::string code = "int f(int a) {\n  if (a == 0) { return 0; }\n";
  for (int i = 1; i < kDepth; ++i) {
    code += "  else if (a == " + std::to_string(i) + ") { return " + std::to_string(i) + "; }\n";
  }
  code += "  return -1;\n}";
  auto parsed = Parse(code, /*expect_clean=*/false);
  EXPECT_TRUE(parsed->diags.HasErrors());
  EXPECT_NE(parsed->diags.Render(parsed->sm).find("nesting too deep"), std::string::npos);
}

// A shallow program parsed with an explicit tiny cap degrades the same way —
// the budget plumbing, not just the default constant.
TEST(Parser, ExplicitDepthLimitHonored) {
  SourceManager sm;
  DiagnosticEngine diags;
  FileId file = sm.AddFile("tiny.c", "int f(void) { return ((((1)))); }");
  TranslationUnit unit = ParseFile(sm, file, Config(), diags, /*max_depth=*/3);
  EXPECT_TRUE(diags.HasErrors());
  EXPECT_NE(diags.Render(sm).find("nesting too deep"), std::string::npos);
  (void)unit;
}

// --- Scopes and symbol tables ------------------------------------------------
//
// The parser's tables are keyed by views of the source or of names the AST
// arena owns, and block scopes are one declaration stack; these pin what a
// lookup must find. Under tools/check.sh asan a key that views a freed
// temporary fails here.

// Statement `i` of function `name`'s body.
const Stmt* StmtOf(const Parsed& parsed, const std::string& name, size_t i) {
  const FunctionDecl* func = parsed.unit.FindFunction(name);
  EXPECT_NE(func, nullptr);
  EXPECT_LT(i, func->body->body.size());
  return func->body->body[i];
}

// The variable a `return NAME;` statement reads.
const VarDecl* ReturnedVar(const Stmt* stmt) {
  EXPECT_EQ(stmt->kind, StmtKind::kReturn);
  const Expr* value = static_cast<const ReturnStmt*>(stmt)->value;
  EXPECT_EQ(value->kind, ExprKind::kIdent);
  return static_cast<const IdentExpr*>(value)->var;
}

const VarDecl* DeclaredVar(const Stmt* stmt) {
  EXPECT_EQ(stmt->kind, StmtKind::kDecl);
  return static_cast<const DeclStmt*>(stmt)->var;
}

TEST(ParserScopes, LocalShadowsEnumerator) {
  auto parsed = Parse(
      "enum { LIMIT = 7 };\n"
      "int f(void) { int before = LIMIT; int LIMIT = 3; return LIMIT; }");
  EXPECT_EQ(BodyOf(*parsed, "f"), "{ (decl int before = 7) (decl int LIMIT = 3) (return LIMIT) }");
  EXPECT_EQ(ReturnedVar(StmtOf(*parsed, "f", 2)), DeclaredVar(StmtOf(*parsed, "f", 1)));
}

TEST(ParserScopes, RedeclarationInTheSameBlockWins) {
  auto parsed = Parse("int f(void) { int x = 1; int x = 2; return x; }");
  const VarDecl* first = DeclaredVar(StmtOf(*parsed, "f", 0));
  const VarDecl* second = DeclaredVar(StmtOf(*parsed, "f", 1));
  EXPECT_NE(first, second);
  EXPECT_EQ(ReturnedVar(StmtOf(*parsed, "f", 2)), second);
}

TEST(ParserScopes, InnerShadowEndsWithItsBlock) {
  auto parsed = Parse("int f(int x) { int y = x; { int y = 2; x = y; } return y; }");
  const VarDecl* outer = DeclaredVar(StmtOf(*parsed, "f", 0));
  const auto* block = static_cast<const CompoundStmt*>(StmtOf(*parsed, "f", 1));
  const VarDecl* inner = DeclaredVar(block->body[0]);
  const auto* assign =
      static_cast<const AssignExpr*>(static_cast<const ExprStmt*>(block->body[1])->expr);
  EXPECT_EQ(static_cast<const IdentExpr*>(assign->rhs)->var, inner);
  EXPECT_EQ(static_cast<const IdentExpr*>(assign->lhs)->var,
            parsed->unit.FindFunction("f")->params[0]);
  EXPECT_EQ(ReturnedVar(StmtOf(*parsed, "f", 2)), outer);
}

TEST(ParserScopes, TwoAnonymousStructsStayApart) {
  auto parsed = Parse(
      "typedef struct { int a; } A;\n"
      "typedef struct { int b; } B;\n"
      "int f(A *p, B *q) { return p->a + q->b; }");
  ASSERT_EQ(parsed->unit.structs.size(), 2u);
  EXPECT_EQ(parsed->unit.structs[0]->name, "__anon0");
  EXPECT_EQ(parsed->unit.structs[1]->name, "__anon1");
  const FunctionDecl* f = parsed->unit.FindFunction("f");
  EXPECT_EQ(f->params[0]->type->pointee()->struct_decl(), parsed->unit.structs[0]);
  EXPECT_EQ(f->params[1]->type->pointee()->struct_decl(), parsed->unit.structs[1]);
  const auto* sum = static_cast<const BinaryExpr*>(
      static_cast<const ReturnStmt*>(StmtOf(*parsed, "f", 0))->value);
  EXPECT_EQ(static_cast<const MemberExpr*>(sum->lhs)->field, parsed->unit.structs[0]->fields[0]);
  EXPECT_EQ(static_cast<const MemberExpr*>(sum->rhs)->field, parsed->unit.structs[1]->fields[0]);
}

TEST(ParserScopes, TypedefAndVariableShareAName) {
  auto parsed = Parse(
      "typedef int count;\n"
      "int f(void) { count count = 1; return count; }\n"
      "count g(void) { count n = 2; return n; }");
  EXPECT_EQ(BodyOf(*parsed, "f"), "{ (decl int count = 1) (return count) }");
  EXPECT_EQ(ReturnedVar(StmtOf(*parsed, "f", 1)), DeclaredVar(StmtOf(*parsed, "f", 0)));
  EXPECT_EQ(BodyOf(*parsed, "g"), "{ (decl int n = 2) (return n) }");
}

TEST(ParserScopes, CallBeforeDefinitionSharesTheImplicitExtern) {
  auto parsed = Parse(
      "int caller(void) { return helper(1); }\n"
      "int helper(int a) { return a; }");
  int count = 0;
  for (const FunctionDecl* func : parsed->unit.functions) {
    count += func->name == "helper" ? 1 : 0;
  }
  EXPECT_EQ(count, 1);
  const FunctionDecl* helper = parsed->unit.FindFunction("helper");
  EXPECT_TRUE(helper->IsDefined());
  EXPECT_FALSE(helper->is_implicit);
  const auto* call = static_cast<const CallExpr*>(
      static_cast<const ReturnStmt*>(StmtOf(*parsed, "caller", 0))->value);
  EXPECT_EQ(call->resolved, helper);
}

}  // namespace
}  // namespace vc
