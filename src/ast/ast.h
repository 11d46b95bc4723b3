// Mini-C abstract syntax tree.
//
// All nodes live in an AstContext arena and are referenced by raw pointer.
// Every node is trivially destructible: names are string views and child
// lists are spans, both copied into the same arena, so freeing a file's tree
// frees a handful of chunks and runs no destructor. Identifier expressions
// are resolved to their declarations by the parser, so downstream passes (IR
// lowering, baselines that walk the AST) never do name lookup themselves.

#ifndef VALUECHECK_SRC_AST_AST_H_
#define VALUECHECK_SRC_AST_AST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/ast/type.h"
#include "src/lexer/token.h"
#include "src/support/arena.h"
#include "src/support/source_location.h"

namespace vc {

// Base of every node. It has no virtual members: a node's kind field says
// what it is, and nothing is ever destroyed through a base pointer.
struct AstNode {};

// The arena that owns every AST node of one translation unit, their names
// and child lists, plus the unit's type table. `first_chunk_bytes` is the
// caller's estimate of the tree's bytes (see Arena for the chunk policy).
class AstContext {
 public:
  explicit AstContext(size_t first_chunk_bytes) : arena_(first_chunk_bytes) {}
  AstContext(const AstContext&) = delete;
  AstContext& operator=(const AstContext&) = delete;

  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_base_of_v<AstNode, T>);
    ++node_count_;
    return arena_.New<T>(std::forward<Args>(args)...);
  }

  // Where the parser copies names, string literals and finished child
  // lists.
  Arena& arena() { return arena_; }

  TypeTable& types() { return types_; }
  const TypeTable& types() const { return types_; }

  // Bytes the tree takes in the arena: its nodes, names and child lists
  // (not the chunks' unused tails). The arena is per-file and
  // single-threaded, so the figure is exact and the same at any --jobs.
  // Consumed by the memory tracker.
  uint64_t node_bytes() const { return arena_.bytes_used(); }
  uint64_t node_count() const { return node_count_; }
  size_t chunk_count() const { return arena_.chunk_count(); }

 private:
  TypeTable types_;
  Arena arena_;
  uint64_t node_count_ = 0;
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

struct FunctionDecl;

struct FieldDecl : AstNode {
  std::string_view name;
  const Type* type = nullptr;
  int index = 0;  // position within the struct; forms the slot name "v#index"
  SourceLoc loc;
};

struct StructDecl : AstNode {
  std::string_view name;
  std::span<FieldDecl* const> fields;
  SourceLoc loc;

  const FieldDecl* FindField(std::string_view field_name) const {
    for (const FieldDecl* field : fields) {
      if (field->name == field_name) {
        return field;
      }
    }
    return nullptr;
  }
};

struct VarDecl : AstNode {
  std::string_view name;
  const Type* type = nullptr;
  SourceLoc loc;
  bool is_param = false;
  int param_index = -1;
  // True when the declaration carries an unused-intent attribute
  // ([[maybe_unused]] / __attribute__((unused))).
  bool has_unused_attr = false;
  bool is_global = false;
  const FunctionDecl* owner = nullptr;  // enclosing function, null for globals
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kIntLit,
  kCharLit,
  kStrLit,
  kBoolLit,
  kNullLit,
  kIdent,
  kBinary,
  kUnary,
  kAssign,
  kCall,
  kMember,
  kIndex,
  kCast,
  kCond,
  kSizeof,
};

struct Expr : AstNode {
  explicit Expr(ExprKind k) : kind(k) {}
  ExprKind kind;
  SourceLoc loc;
  const Type* type = nullptr;
};

struct IntLitExpr : Expr {
  IntLitExpr() : Expr(ExprKind::kIntLit) {}
  long long value = 0;
};

struct CharLitExpr : Expr {
  CharLitExpr() : Expr(ExprKind::kCharLit) {}
  long long value = 0;
};

struct StrLitExpr : Expr {
  StrLitExpr() : Expr(ExprKind::kStrLit) {}
  std::string_view value;
};

struct BoolLitExpr : Expr {
  BoolLitExpr() : Expr(ExprKind::kBoolLit) {}
  bool value = false;
};

struct NullLitExpr : Expr {
  NullLitExpr() : Expr(ExprKind::kNullLit) {}
};

// A reference to a variable or (when used as a callee or with unary &) a
// function. Exactly one of `var` / `func` is set after resolution.
struct IdentExpr : Expr {
  IdentExpr() : Expr(ExprKind::kIdent) {}
  std::string_view name;
  VarDecl* var = nullptr;
  FunctionDecl* func = nullptr;
};

struct BinaryExpr : Expr {
  BinaryExpr() : Expr(ExprKind::kBinary) {}
  TokenKind op = TokenKind::kPlus;
  Expr* lhs = nullptr;
  Expr* rhs = nullptr;
};

// Prefix or postfix unary operation; ops: - ! ~ * & ++ --.
struct UnaryExpr : Expr {
  UnaryExpr() : Expr(ExprKind::kUnary) {}
  TokenKind op = TokenKind::kMinus;
  bool is_postfix = false;
  Expr* operand = nullptr;
};

// Simple or compound assignment: = += -= *= /= &= |=.
struct AssignExpr : Expr {
  AssignExpr() : Expr(ExprKind::kAssign) {}
  TokenKind op = TokenKind::kAssign;
  Expr* lhs = nullptr;
  Expr* rhs = nullptr;
};

struct CallExpr : Expr {
  CallExpr() : Expr(ExprKind::kCall) {}
  Expr* callee = nullptr;  // IdentExpr (direct) or arbitrary expr (indirect)
  std::span<Expr* const> args;
  // Resolved for direct calls to functions declared in the same translation
  // unit (definition or prototype); null for indirect calls through pointers.
  FunctionDecl* resolved = nullptr;
};

struct MemberExpr : Expr {
  MemberExpr() : Expr(ExprKind::kMember) {}
  Expr* base = nullptr;
  std::string_view member;
  bool is_arrow = false;
  const FieldDecl* field = nullptr;  // resolved when base type is known
};

struct IndexExpr : Expr {
  IndexExpr() : Expr(ExprKind::kIndex) {}
  Expr* base = nullptr;
  Expr* index = nullptr;
};

struct CastExpr : Expr {
  CastExpr() : Expr(ExprKind::kCast) {}
  const Type* target = nullptr;
  Expr* operand = nullptr;
  // (void)x — the idiomatic "value intentionally unused" marker.
  bool is_void_cast = false;
};

struct CondExpr : Expr {
  CondExpr() : Expr(ExprKind::kCond) {}
  Expr* cond = nullptr;
  Expr* then_expr = nullptr;
  Expr* else_expr = nullptr;
};

struct SizeofExpr : Expr {
  SizeofExpr() : Expr(ExprKind::kSizeof) {}
  const Type* arg_type = nullptr;
  Expr* arg_expr = nullptr;  // either type or expr form
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  kCompound,
  kDecl,
  kExpr,
  kIf,
  kWhile,
  kDoWhile,
  kFor,
  kSwitch,
  kReturn,
  kBreak,
  kContinue,
  kEmpty,
};

struct Stmt : AstNode {
  explicit Stmt(StmtKind k) : kind(k) {}
  StmtKind kind;
  SourceLoc loc;
};

struct CompoundStmt : Stmt {
  CompoundStmt() : Stmt(StmtKind::kCompound) {}
  std::span<Stmt* const> body;
};

struct DeclStmt : Stmt {
  DeclStmt() : Stmt(StmtKind::kDecl) {}
  VarDecl* var = nullptr;
  Expr* init = nullptr;  // nullable
};

struct ExprStmt : Stmt {
  ExprStmt() : Stmt(StmtKind::kExpr) {}
  Expr* expr = nullptr;
};

struct IfStmt : Stmt {
  IfStmt() : Stmt(StmtKind::kIf) {}
  Expr* cond = nullptr;
  Stmt* then_stmt = nullptr;
  Stmt* else_stmt = nullptr;  // nullable
};

struct WhileStmt : Stmt {
  WhileStmt() : Stmt(StmtKind::kWhile) {}
  Expr* cond = nullptr;
  Stmt* body = nullptr;
};

struct DoWhileStmt : Stmt {
  DoWhileStmt() : Stmt(StmtKind::kDoWhile) {}
  Stmt* body = nullptr;
  Expr* cond = nullptr;
};

// One `case <constant>:` (or `default:`) arm with its statements. C-style
// fallthrough applies: without a break, control continues into the next arm.
struct SwitchCase {
  bool is_default = false;
  long long value = 0;
  SourceLoc loc;
  std::span<Stmt* const> body;
};

struct SwitchStmt : Stmt {
  SwitchStmt() : Stmt(StmtKind::kSwitch) {}
  Expr* cond = nullptr;
  std::span<const SwitchCase> cases;
};

struct ForStmt : Stmt {
  ForStmt() : Stmt(StmtKind::kFor) {}
  Stmt* init = nullptr;  // DeclStmt or ExprStmt or kEmpty
  Expr* cond = nullptr;  // nullable
  Expr* step = nullptr;  // nullable
  Stmt* body = nullptr;
};

struct ReturnStmt : Stmt {
  ReturnStmt() : Stmt(StmtKind::kReturn) {}
  Expr* value = nullptr;  // nullable
};

struct BreakStmt : Stmt {
  BreakStmt() : Stmt(StmtKind::kBreak) {}
};

struct ContinueStmt : Stmt {
  ContinueStmt() : Stmt(StmtKind::kContinue) {}
};

struct EmptyStmt : Stmt {
  EmptyStmt() : Stmt(StmtKind::kEmpty) {}
};

// ---------------------------------------------------------------------------
// Functions and translation units
// ---------------------------------------------------------------------------

struct FunctionDecl : AstNode {
  std::string_view name;
  const Type* return_type = nullptr;
  std::span<VarDecl* const> params;
  CompoundStmt* body = nullptr;  // null for prototypes / external functions
  SourceLoc loc;                 // location of the function name
  SourceRange range;             // whole definition, for per-function scans
  bool is_static = false;
  // Created on first use for callees with no declaration in the unit; treated
  // as library functions by the authorship phase (§4.2: a library callee
  // counts as a different author).
  bool is_implicit = false;

  bool IsDefined() const { return body != nullptr; }
};

// One parsed source file. The AstContext arena inside owns all nodes.
struct TranslationUnit {
  FileId file = kInvalidFileId;
  std::unique_ptr<AstContext> context;
  std::vector<StructDecl*> structs;
  std::vector<FunctionDecl*> functions;  // definitions and prototypes
  std::vector<VarDecl*> globals;

  FunctionDecl* FindFunction(std::string_view name) const {
    for (FunctionDecl* func : functions) {
      if (func->name == name) {
        return func;
      }
    }
    return nullptr;
  }
};

}  // namespace vc

#endif  // VALUECHECK_SRC_AST_AST_H_
