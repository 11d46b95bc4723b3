#include "src/parser/parser.h"

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/lexer/lexer.h"
#include "src/support/string_util.h"

namespace vc {

namespace {

bool IsTypeStart(TokenKind kind) {
  switch (kind) {
    case TokenKind::kKwVoid:
    case TokenKind::kKwInt:
    case TokenKind::kKwChar:
    case TokenKind::kKwLong:
    case TokenKind::kKwBool:
    case TokenKind::kKwUnsigned:
    case TokenKind::kKwSizeT:
    case TokenKind::kKwStruct:
    case TokenKind::kKwEnum:
    case TokenKind::kKwConst:
      return true;
    default:
      return false;
  }
}

bool IsAssignOp(TokenKind kind) {
  switch (kind) {
    case TokenKind::kAssign:
    case TokenKind::kPlusAssign:
    case TokenKind::kMinusAssign:
    case TokenKind::kStarAssign:
    case TokenKind::kSlashAssign:
    case TokenKind::kAmpAssign:
    case TokenKind::kPipeAssign:
      return true;
    default:
      return false;
  }
}

// Binding power for binary operators; higher binds tighter. 0 = not binary.
int BinaryPrecedence(TokenKind kind) {
  switch (kind) {
    case TokenKind::kPipePipe:
      return 1;
    case TokenKind::kAmpAmp:
      return 2;
    case TokenKind::kPipe:
      return 3;
    case TokenKind::kCaret:
      return 4;
    case TokenKind::kAmp:
      return 5;
    case TokenKind::kEq:
    case TokenKind::kNe:
      return 6;
    case TokenKind::kLt:
    case TokenKind::kGt:
    case TokenKind::kLe:
    case TokenKind::kGe:
      return 7;
    case TokenKind::kShl:
    case TokenKind::kShr:
      return 8;
    case TokenKind::kPlus:
    case TokenKind::kMinus:
      return 9;
    case TokenKind::kStar:
    case TokenKind::kSlash:
    case TokenKind::kPercent:
      return 10;
    default:
      return 0;
  }
}

class Parser {
 public:
  Parser(const SourceManager& sm, FileId file, std::vector<Token> tokens, DiagnosticEngine& diags,
         int max_depth)
      : sm_(sm),
        file_(file),
        tokens_(std::move(tokens)),
        diags_(diags),
        max_depth_(max_depth > 0 ? max_depth : kDefaultParseDepth) {
    unit_.file = file;
    unit_.context = std::make_unique<AstContext>();
  }

  TranslationUnit Run() {
    while (!At(TokenKind::kEof)) {
      size_t before = pos_;
      ParseTopLevel();
      if (pos_ == before) {
        // Defensive: never loop forever on unexpected input.
        Advance();
      }
    }
    return std::move(unit_);
  }

 private:
  // --- Token cursor -------------------------------------------------------

  const Token& Peek(int ahead = 0) const {
    size_t idx = pos_ + static_cast<size_t>(ahead);
    if (idx >= tokens_.size()) {
      return tokens_.back();  // kEof sentinel
    }
    return tokens_[idx];
  }

  bool At(TokenKind kind) const { return Peek().kind == kind; }

  const Token& Advance() {
    const Token& tok = Peek();
    if (pos_ + 1 < tokens_.size()) {
      ++pos_;
    }
    return tok;
  }

  bool Accept(TokenKind kind) {
    if (At(kind)) {
      Advance();
      return true;
    }
    return false;
  }

  const Token& Expect(TokenKind kind, const char* what) {
    if (At(kind)) {
      return Advance();
    }
    Error(Peek().loc, std::string("expected ") + what + ", found '" +
                          TokenKindName(Peek().kind) + "'");
    return Peek();
  }

  void Error(SourceLoc loc, std::string message) {
    // After a depth bail the cursor sits at EOF and every unwinding Expect
    // would fire; the single "nesting too deep" diagnostic already covers it.
    if (depth_bailed_) return;
    diags_.Error(loc, std::move(message));
  }

  // --- Recursion-depth cap -------------------------------------------------
  //
  // ParseStmt and ParseUnary are the only two self-recursive entry points
  // (statement nesting: compound/if/loops; expression nesting: unary chains
  // and parenthesized expressions via ParsePrimary → ParseExpr → ... →
  // ParseUnary). Each guarded level costs at most ~6 real frames, so the cap
  // bounds native stack use regardless of input shape. On overflow: one
  // diagnostic, jump to EOF so the recursion unwinds without emitting a
  // cascade of bogus "expected X" errors, and synthesize placeholder nodes.

  struct DepthGuard {
    explicit DepthGuard(Parser& parser) : parser_(parser) { ++parser_.depth_; }
    ~DepthGuard() { --parser_.depth_; }
    Parser& parser_;
  };

  bool DepthOk() {
    if (depth_ <= max_depth_) return true;
    if (!depth_bailed_) {
      diags_.Error(Peek().loc, "nesting too deep (parser limit " + std::to_string(max_depth_) +
                                   "); skipping rest of file");
      depth_bailed_ = true;
      pos_ = tokens_.size() - 1;  // park on the kEof sentinel
    }
    return false;
  }

  // Skips tokens until after the next ';' at brace depth 0, or past a '}'.
  void SkipToSync() {
    int depth = 0;
    while (!At(TokenKind::kEof)) {
      TokenKind kind = Peek().kind;
      if (kind == TokenKind::kLBrace) {
        ++depth;
      } else if (kind == TokenKind::kRBrace) {
        Advance();
        if (depth <= 1) {
          return;
        }
        --depth;
        continue;
      } else if (kind == TokenKind::kSemi && depth == 0) {
        Advance();
        return;
      }
      Advance();
    }
  }

  AstContext& ctx() { return *unit_.context; }
  TypeTable& types() { return ctx().types(); }

  // --- Scopes and lookup --------------------------------------------------

  void PushScope() { scopes_.emplace_back(); }
  void PopScope() { scopes_.pop_back(); }

  void Declare(VarDecl* var) {
    if (!scopes_.empty()) {
      scopes_.back()[var->name] = var;
    }
  }

  VarDecl* LookupVar(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) {
        return found->second;
      }
    }
    auto global = globals_.find(name);
    return global != globals_.end() ? global->second : nullptr;
  }

  FunctionDecl* LookupOrCreateFunction(const std::string& name, SourceLoc loc) {
    auto it = functions_.find(name);
    if (it != functions_.end()) {
      return it->second;
    }
    // Unknown callee: create an implicit external prototype so that call
    // sites of the same library function group together for peer-definition
    // pruning, and so authorship treats it as out-of-project (§4.2).
    auto* func = ctx().New<FunctionDecl>();
    func->name = name;
    func->return_type = types().IntType();
    func->is_implicit = true;
    func->loc = loc;
    functions_[name] = func;
    unit_.functions.push_back(func);
    return func;
  }

  // --- Attributes ---------------------------------------------------------

  // Consumes any run of attribute tokens; returns true if one of them spells
  // unused-intent.
  bool ConsumeAttributes() {
    bool unused_hint = false;
    while (At(TokenKind::kAttribute)) {
      if (ContainsIgnoreCase(Peek().text, "unused")) {
        unused_hint = true;
      }
      Advance();
    }
    return unused_hint;
  }

  // --- Types --------------------------------------------------------------

  // Parses the base type specifier (no pointer declarators). Returns null if
  // the cursor is not at a type.
  const Type* ParseBaseType() {
    while (Accept(TokenKind::kKwConst)) {
    }
    bool saw_unsigned = false;
    while (At(TokenKind::kKwUnsigned)) {
      Advance();
      saw_unsigned = true;
    }
    while (Accept(TokenKind::kKwConst)) {
    }
    switch (Peek().kind) {
      case TokenKind::kKwVoid:
        Advance();
        return types().VoidType();
      case TokenKind::kKwInt:
      case TokenKind::kKwLong:
      case TokenKind::kKwSizeT:
        // Collapse int/long/long long/size_t to the one integer type.
        while (At(TokenKind::kKwInt) || At(TokenKind::kKwLong) || At(TokenKind::kKwSizeT)) {
          Advance();
        }
        return types().IntType();
      case TokenKind::kKwChar:
        Advance();
        return types().CharType();
      case TokenKind::kKwBool:
        Advance();
        return types().BoolType();
      case TokenKind::kKwStruct: {
        Advance();
        const Token& name = Expect(TokenKind::kIdentifier, "struct name");
        StructDecl* decl = LookupOrForwardStruct(name.text, name.loc);
        return types().StructTypeFor(decl);
      }
      case TokenKind::kKwEnum: {
        // Enumerations are int-typed; the tag is informational.
        Advance();
        if (At(TokenKind::kIdentifier)) {
          Advance();
        }
        return types().IntType();
      }
      case TokenKind::kIdentifier: {
        auto it = typedefs_.find(Peek().text);
        if (it != typedefs_.end()) {
          Advance();
          return it->second;
        }
        if (saw_unsigned) {
          return types().IntType();
        }
        return nullptr;
      }
      default:
        if (saw_unsigned) {
          return types().IntType();  // bare "unsigned x"
        }
        return nullptr;
    }
  }

  StructDecl* LookupOrForwardStruct(const std::string& name, SourceLoc loc) {
    auto it = structs_.find(name);
    if (it != structs_.end()) {
      return it->second;
    }
    auto* decl = ctx().New<StructDecl>();
    decl->name = name;
    decl->loc = loc;
    structs_[name] = decl;
    return decl;
  }

  const Type* ParsePointers(const Type* base) {
    while (true) {
      if (Accept(TokenKind::kStar)) {
        base = types().PointerTo(base);
        while (Accept(TokenKind::kKwConst)) {
        }
        continue;
      }
      break;
    }
    return base;
  }

  // --- Top level ----------------------------------------------------------

  void ParseTopLevel() {
    ConsumeAttributes();
    if (At(TokenKind::kSemi)) {
      Advance();
      return;
    }
    if (At(TokenKind::kKwStruct) && Peek(1).kind == TokenKind::kIdentifier &&
        Peek(2).kind == TokenKind::kLBrace) {
      ParseStructDecl();
      return;
    }
    if (At(TokenKind::kKwEnum) &&
        (Peek(1).kind == TokenKind::kLBrace ||
         (Peek(1).kind == TokenKind::kIdentifier && Peek(2).kind == TokenKind::kLBrace))) {
      ParseEnumDecl();
      return;
    }
    if (At(TokenKind::kKwTypedef)) {
      ParseTypedef();
      return;
    }

    SourceLoc decl_begin = Peek().loc;
    bool is_static = Accept(TokenKind::kKwStatic);
    const Type* base = ParseBaseType();
    if (base == nullptr) {
      Error(Peek().loc, "expected declaration");
      SkipToSync();
      return;
    }
    const Type* type = ParsePointers(base);
    ConsumeAttributes();
    const Token& name = Expect(TokenKind::kIdentifier, "declarator name");

    if (At(TokenKind::kLParen)) {
      ParseFunctionRest(is_static, type, name, decl_begin);
    } else {
      ParseGlobalRest(type, name);
    }
  }

  // enum [tag] { NAME [= const] , ... } ;  Enumerators become integer
  // constants usable in expressions and case labels.
  void ParseEnumDecl() {
    Expect(TokenKind::kKwEnum, "enum");
    if (At(TokenKind::kIdentifier)) {
      Advance();  // optional tag
    }
    Expect(TokenKind::kLBrace, "'{'");
    long long next_value = 0;
    while (!At(TokenKind::kRBrace) && !At(TokenKind::kEof)) {
      const Token& name = Expect(TokenKind::kIdentifier, "enumerator name");
      if (Accept(TokenKind::kAssign)) {
        bool negate = Accept(TokenKind::kMinus);
        const Token& value = Peek();
        if (value.kind == TokenKind::kIntLiteral || value.kind == TokenKind::kCharLiteral) {
          next_value = negate ? -value.int_value : value.int_value;
          Advance();
        } else if (value.kind == TokenKind::kIdentifier &&
                   enum_constants_.count(value.text) > 0) {
          next_value = enum_constants_[value.text];
          Advance();
        } else {
          Error(value.loc, "expected constant enumerator value");
          Advance();
        }
      }
      enum_constants_[name.text] = next_value++;
      if (!Accept(TokenKind::kComma)) {
        break;
      }
    }
    Expect(TokenKind::kRBrace, "'}'");
    Expect(TokenKind::kSemi, "';'");
  }

  // typedef <type> NAME ;  and  typedef struct [tag] { ... } NAME ;
  void ParseTypedef() {
    Expect(TokenKind::kKwTypedef, "typedef");
    const Type* base = nullptr;
    if (At(TokenKind::kKwStruct) &&
        (Peek(1).kind == TokenKind::kLBrace ||
         (Peek(1).kind == TokenKind::kIdentifier && Peek(2).kind == TokenKind::kLBrace))) {
      base = ParseStructBody();
    } else {
      base = ParseBaseType();
    }
    if (base == nullptr) {
      Error(Peek().loc, "expected type after 'typedef'");
      SkipToSync();
      return;
    }
    const Type* aliased = ParsePointers(base);
    const Token& name = Expect(TokenKind::kIdentifier, "typedef name");
    if (!name.text.empty()) {
      typedefs_[name.text] = aliased;
    }
    Expect(TokenKind::kSemi, "';'");
  }

  // Parses "struct [tag] { fields }" and returns its type (used by typedef;
  // anonymous structs get a synthesized tag).
  const Type* ParseStructBody() {
    Expect(TokenKind::kKwStruct, "struct");
    std::string tag;
    SourceLoc loc = Peek().loc;
    if (At(TokenKind::kIdentifier)) {
      tag = Advance().text;
    } else {
      tag = "__anon" + std::to_string(anon_struct_counter_++);
    }
    StructDecl* decl = LookupOrForwardStruct(tag, loc);
    decl->loc = loc;
    ParseStructFields(decl);
    unit_.structs.push_back(decl);
    return types().StructTypeFor(decl);
  }

  void ParseStructDecl() {
    Expect(TokenKind::kKwStruct, "struct");
    const Token& name = Expect(TokenKind::kIdentifier, "struct name");
    StructDecl* decl = LookupOrForwardStruct(name.text, name.loc);
    decl->loc = name.loc;
    ParseStructFields(decl);
    Expect(TokenKind::kSemi, "';'");
    unit_.structs.push_back(decl);
  }

  // Parses "{ fields }" into `decl` (the closing brace included).
  void ParseStructFields(StructDecl* decl) {
    Expect(TokenKind::kLBrace, "'{'");
    while (!At(TokenKind::kRBrace) && !At(TokenKind::kEof)) {
      const Type* base = ParseBaseType();
      if (base == nullptr) {
        Error(Peek().loc, "expected field type");
        SkipToSync();
        return;
      }
      do {
        const Type* field_type = ParsePointers(base);
        const Token& field_name = Expect(TokenKind::kIdentifier, "field name");
        // Fixed-size array fields decay to "a field" for our purposes.
        if (Accept(TokenKind::kLBracket)) {
          if (!At(TokenKind::kRBracket)) {
            Advance();
          }
          Expect(TokenKind::kRBracket, "']'");
          field_type = types().PointerTo(field_type);
        }
        auto* field = ctx().New<FieldDecl>();
        field->name = field_name.text;
        field->type = field_type;
        field->index = static_cast<int>(decl->fields.size());
        field->loc = field_name.loc;
        decl->fields.push_back(field);
      } while (Accept(TokenKind::kComma));
      Expect(TokenKind::kSemi, "';'");
    }
    Expect(TokenKind::kRBrace, "'}'");
  }

  void ParseGlobalRest(const Type* type, const Token& name) {
    while (true) {
      auto* var = ctx().New<VarDecl>();
      var->name = name.text;
      var->type = type;
      var->loc = name.loc;
      var->is_global = true;
      globals_[var->name] = var;
      unit_.globals.push_back(var);
      if (Accept(TokenKind::kLBracket)) {
        if (!At(TokenKind::kRBracket)) {
          Advance();
        }
        Expect(TokenKind::kRBracket, "']'");
      }
      if (Accept(TokenKind::kAssign)) {
        ParseAssignmentExpr();  // initializer value is not analyzed for globals
      }
      if (!Accept(TokenKind::kComma)) {
        break;
      }
      ParsePointers(type);
      Expect(TokenKind::kIdentifier, "declarator name");
    }
    Expect(TokenKind::kSemi, "';'");
  }

  void ParseFunctionRest(bool is_static, const Type* return_type, const Token& name,
                         SourceLoc decl_begin) {
    FunctionDecl* func;
    auto existing = functions_.find(name.text);
    if (existing != functions_.end()) {
      func = existing->second;
      func->is_implicit = false;
    } else {
      func = ctx().New<FunctionDecl>();
      func->name = name.text;
      functions_[name.text] = func;
      unit_.functions.push_back(func);
    }
    func->return_type = return_type;
    func->is_static = is_static;
    func->loc = name.loc;
    func->range.begin = decl_begin;

    // Parameters.
    std::vector<VarDecl*> params;
    Expect(TokenKind::kLParen, "'('");
    if (At(TokenKind::kKwVoid) && Peek(1).kind == TokenKind::kRParen) {
      Advance();
    }
    while (!At(TokenKind::kRParen) && !At(TokenKind::kEof)) {
      bool hint = ConsumeAttributes();
      const Type* base = ParseBaseType();
      if (base == nullptr) {
        Error(Peek().loc, "expected parameter type");
        break;
      }
      const Type* param_type = ParsePointers(base);
      std::string param_name;
      SourceLoc param_loc = Peek().loc;
      if (At(TokenKind::kIdentifier)) {
        const Token& tok = Advance();
        param_name = tok.text;
        param_loc = tok.loc;
      }
      hint = ConsumeAttributes() || hint;
      if (Accept(TokenKind::kLBracket)) {
        if (!At(TokenKind::kRBracket)) {
          Advance();
        }
        Expect(TokenKind::kRBracket, "']'");
        param_type = types().PointerTo(param_type);
      }
      auto* param = ctx().New<VarDecl>();
      param->name = param_name.empty()
                        ? "_arg" + std::to_string(params.size())
                        : param_name;
      param->type = param_type;
      param->loc = param_loc;
      param->is_param = true;
      param->param_index = static_cast<int>(params.size());
      param->has_unused_attr = hint;
      param->owner = func;
      params.push_back(param);
      if (!Accept(TokenKind::kComma)) {
        break;
      }
    }
    Expect(TokenKind::kRParen, "')'");

    if (Accept(TokenKind::kSemi)) {
      // Prototype: keep parameter list if this is the first sighting.
      if (func->params.empty()) {
        func->params = std::move(params);
      }
      func->range.end = Peek().loc;
      return;
    }

    func->params = std::move(params);
    current_function_ = func;
    PushScope();
    for (VarDecl* param : func->params) {
      Declare(param);
    }
    func->body = ParseCompound();
    PopScope();
    current_function_ = nullptr;
    func->range.end = last_consumed_loc_;
  }

  // --- Statements ---------------------------------------------------------

  CompoundStmt* ParseCompound() {
    auto* compound = ctx().New<CompoundStmt>();
    compound->loc = Peek().loc;
    Expect(TokenKind::kLBrace, "'{'");
    PushScope();
    while (!At(TokenKind::kRBrace) && !At(TokenKind::kEof)) {
      size_t before = pos_;
      Stmt* stmt = ParseStmt();
      if (stmt != nullptr) {
        compound->body.push_back(stmt);
      }
      if (pos_ == before) {
        Advance();
      }
    }
    last_consumed_loc_ = Peek().loc;
    Expect(TokenKind::kRBrace, "'}'");
    PopScope();
    return compound;
  }

  Stmt* ParseStmt() {
    DepthGuard depth(*this);
    if (!DepthOk()) {
      return nullptr;  // callers already tolerate null statements
    }
    switch (Peek().kind) {
      case TokenKind::kLBrace:
        return ParseCompound();
      case TokenKind::kKwIf:
        return ParseIf();
      case TokenKind::kKwWhile:
        return ParseWhile();
      case TokenKind::kKwDo:
        return ParseDoWhile();
      case TokenKind::kKwFor:
        return ParseFor();
      case TokenKind::kKwSwitch:
        return ParseSwitch();
      case TokenKind::kKwReturn:
        return ParseReturn();
      case TokenKind::kKwBreak: {
        auto* stmt = ctx().New<BreakStmt>();
        stmt->loc = Advance().loc;
        Expect(TokenKind::kSemi, "';'");
        return stmt;
      }
      case TokenKind::kKwContinue: {
        auto* stmt = ctx().New<ContinueStmt>();
        stmt->loc = Advance().loc;
        Expect(TokenKind::kSemi, "';'");
        return stmt;
      }
      case TokenKind::kSemi: {
        auto* stmt = ctx().New<EmptyStmt>();
        stmt->loc = Advance().loc;
        return stmt;
      }
      default:
        break;
    }
    if (IsTypeStart(Peek().kind) || At(TokenKind::kKwStatic) || At(TokenKind::kAttribute) ||
        (At(TokenKind::kIdentifier) && typedefs_.count(Peek().text) > 0 &&
         Peek(1).kind != TokenKind::kLParen)) {
      return ParseDeclStmt();
    }
    // Expression statement.
    auto* stmt = ctx().New<ExprStmt>();
    stmt->loc = Peek().loc;
    stmt->expr = ParseExpr();
    Expect(TokenKind::kSemi, "';'");
    return stmt;
  }

  Stmt* ParseDeclStmt() {
    bool hint = ConsumeAttributes();
    Accept(TokenKind::kKwStatic);
    const Type* base = ParseBaseType();
    if (base == nullptr) {
      Error(Peek().loc, "expected type in declaration");
      SkipToSync();
      return nullptr;
    }

    // A single DeclStmt per declarator; comma lists expand to a compound
    // wrapper so each variable keeps its own init expression and location.
    std::vector<Stmt*> decls;
    do {
      const Type* var_type = ParsePointers(base);
      bool var_hint = ConsumeAttributes() || hint;
      const Token& name = Expect(TokenKind::kIdentifier, "variable name");
      var_hint = ConsumeAttributes() || var_hint;
      if (Accept(TokenKind::kLBracket)) {
        if (!At(TokenKind::kRBracket)) {
          ParseExpr();
        }
        Expect(TokenKind::kRBracket, "']'");
        var_type = types().PointerTo(var_type);
      }
      auto* var = ctx().New<VarDecl>();
      var->name = name.text;
      var->type = var_type;
      var->loc = name.loc;
      var->has_unused_attr = var_hint;
      var->owner = current_function_;
      Declare(var);

      auto* stmt = ctx().New<DeclStmt>();
      stmt->loc = name.loc;
      stmt->var = var;
      if (Accept(TokenKind::kAssign)) {
        stmt->init = ParseAssignmentExpr();
      }
      decls.push_back(stmt);
    } while (Accept(TokenKind::kComma));
    Expect(TokenKind::kSemi, "';'");

    if (decls.size() == 1) {
      return decls[0];
    }
    auto* compound = ctx().New<CompoundStmt>();
    compound->loc = decls[0]->loc;
    compound->body = std::move(decls);
    return compound;
  }

  Stmt* ParseIf() {
    auto* stmt = ctx().New<IfStmt>();
    stmt->loc = Advance().loc;  // 'if'
    Expect(TokenKind::kLParen, "'('");
    stmt->cond = ParseExpr();
    Expect(TokenKind::kRParen, "')'");
    stmt->then_stmt = ParseStmt();
    if (Accept(TokenKind::kKwElse)) {
      stmt->else_stmt = ParseStmt();
    }
    return stmt;
  }

  Stmt* ParseWhile() {
    auto* stmt = ctx().New<WhileStmt>();
    stmt->loc = Advance().loc;  // 'while'
    Expect(TokenKind::kLParen, "'('");
    stmt->cond = ParseExpr();
    Expect(TokenKind::kRParen, "')'");
    stmt->body = ParseStmt();
    return stmt;
  }

  Stmt* ParseDoWhile() {
    auto* stmt = ctx().New<DoWhileStmt>();
    stmt->loc = Advance().loc;  // 'do'
    stmt->body = ParseStmt();
    Expect(TokenKind::kKwWhile, "'while'");
    Expect(TokenKind::kLParen, "'('");
    stmt->cond = ParseExpr();
    Expect(TokenKind::kRParen, "')'");
    Expect(TokenKind::kSemi, "';'");
    return stmt;
  }

  Stmt* ParseSwitch() {
    auto* stmt = ctx().New<SwitchStmt>();
    stmt->loc = Advance().loc;  // 'switch'
    Expect(TokenKind::kLParen, "'('");
    stmt->cond = ParseExpr();
    Expect(TokenKind::kRParen, "')'");
    Expect(TokenKind::kLBrace, "'{'");
    PushScope();
    while (!At(TokenKind::kRBrace) && !At(TokenKind::kEof)) {
      SwitchCase arm;
      if (At(TokenKind::kKwCase)) {
        arm.loc = Advance().loc;
        // Case labels are integer or character constants (optionally negated).
        bool negate = Accept(TokenKind::kMinus);
        const Token& value = Peek();
        if (value.kind == TokenKind::kIntLiteral || value.kind == TokenKind::kCharLiteral) {
          arm.value = negate ? -value.int_value : value.int_value;
          Advance();
        } else if (value.kind == TokenKind::kIdentifier &&
                   enum_constants_.count(value.text) > 0) {
          arm.value = negate ? -enum_constants_[value.text] : enum_constants_[value.text];
          Advance();
        } else {
          Error(value.loc, "expected constant in case label");
          Advance();
        }
      } else if (At(TokenKind::kKwDefault)) {
        arm.loc = Advance().loc;
        arm.is_default = true;
      } else {
        Error(Peek().loc, "expected 'case' or 'default' in switch body");
        SkipToSync();
        break;
      }
      Expect(TokenKind::kColon, "':'");
      while (!At(TokenKind::kKwCase) && !At(TokenKind::kKwDefault) &&
             !At(TokenKind::kRBrace) && !At(TokenKind::kEof)) {
        size_t before = pos_;
        Stmt* child = ParseStmt();
        if (child != nullptr) {
          arm.body.push_back(child);
        }
        if (pos_ == before) {
          Advance();
        }
      }
      stmt->cases.push_back(std::move(arm));
    }
    PopScope();
    Expect(TokenKind::kRBrace, "'}'");
    return stmt;
  }

  Stmt* ParseFor() {
    auto* stmt = ctx().New<ForStmt>();
    stmt->loc = Advance().loc;  // 'for'
    Expect(TokenKind::kLParen, "'('");
    PushScope();
    if (At(TokenKind::kSemi)) {
      auto* empty = ctx().New<EmptyStmt>();
      empty->loc = Advance().loc;
      stmt->init = empty;
    } else if (IsTypeStart(Peek().kind) ||
               (At(TokenKind::kIdentifier) && typedefs_.count(Peek().text) > 0)) {
      stmt->init = ParseDeclStmt();  // consumes the ';'
    } else {
      auto* init = ctx().New<ExprStmt>();
      init->loc = Peek().loc;
      init->expr = ParseExpr();
      Expect(TokenKind::kSemi, "';'");
      stmt->init = init;
    }
    if (!At(TokenKind::kSemi)) {
      stmt->cond = ParseExpr();
    }
    Expect(TokenKind::kSemi, "';'");
    if (!At(TokenKind::kRParen)) {
      stmt->step = ParseExpr();
    }
    Expect(TokenKind::kRParen, "')'");
    stmt->body = ParseStmt();
    PopScope();
    return stmt;
  }

  Stmt* ParseReturn() {
    auto* stmt = ctx().New<ReturnStmt>();
    stmt->loc = Advance().loc;  // 'return'
    if (!At(TokenKind::kSemi)) {
      stmt->value = ParseExpr();
    }
    Expect(TokenKind::kSemi, "';'");
    return stmt;
  }

  // --- Expressions --------------------------------------------------------

  Expr* ParseExpr() { return ParseAssignmentExpr(); }

  Expr* ParseAssignmentExpr() {
    Expr* lhs = ParseConditional();
    if (IsAssignOp(Peek().kind)) {
      auto* assign = ctx().New<AssignExpr>();
      assign->loc = Peek().loc;
      assign->op = Advance().kind;
      assign->lhs = lhs;
      assign->rhs = ParseAssignmentExpr();  // right associative
      assign->type = lhs != nullptr ? lhs->type : nullptr;
      return assign;
    }
    return lhs;
  }

  Expr* ParseConditional() {
    Expr* cond = ParseBinary(1);
    if (Accept(TokenKind::kQuestion)) {
      auto* expr = ctx().New<CondExpr>();
      expr->loc = cond->loc;
      expr->cond = cond;
      expr->then_expr = ParseExpr();
      Expect(TokenKind::kColon, "':'");
      expr->else_expr = ParseConditional();
      expr->type = expr->then_expr->type;
      return expr;
    }
    return cond;
  }

  Expr* ParseBinary(int min_prec) {
    Expr* lhs = ParseUnary();
    while (true) {
      int prec = BinaryPrecedence(Peek().kind);
      if (prec < min_prec || prec == 0) {
        return lhs;
      }
      auto* bin = ctx().New<BinaryExpr>();
      bin->loc = Peek().loc;
      bin->op = Advance().kind;
      bin->lhs = lhs;
      bin->rhs = ParseBinary(prec + 1);
      // Pointer arithmetic keeps the pointer type; everything else is int-ish.
      if (lhs != nullptr && lhs->type != nullptr && lhs->type->IsPointer() &&
          (bin->op == TokenKind::kPlus || bin->op == TokenKind::kMinus)) {
        bin->type = lhs->type;
      } else {
        bin->type = types().IntType();
      }
      lhs = bin;
    }
  }

  Expr* ParseUnary() {
    DepthGuard depth(*this);
    SourceLoc loc = Peek().loc;
    if (!DepthOk()) {
      // Expression parsing never returns null; hand back a placeholder
      // literal the same way ParsePrimary's error path does.
      auto* lit = ctx().New<IntLitExpr>();
      lit->loc = loc;
      lit->type = types().IntType();
      return lit;
    }
    switch (Peek().kind) {
      case TokenKind::kPlusPlus:
      case TokenKind::kMinusMinus: {
        auto* expr = ctx().New<UnaryExpr>();
        expr->loc = loc;
        expr->op = Advance().kind;
        expr->operand = ParseUnary();
        expr->type = expr->operand->type;
        return expr;
      }
      case TokenKind::kMinus:
      case TokenKind::kBang:
      case TokenKind::kTilde: {
        auto* expr = ctx().New<UnaryExpr>();
        expr->loc = loc;
        expr->op = Advance().kind;
        expr->operand = ParseUnary();
        expr->type = types().IntType();
        return expr;
      }
      case TokenKind::kStar: {
        auto* expr = ctx().New<UnaryExpr>();
        expr->loc = loc;
        expr->op = Advance().kind;
        expr->operand = ParseUnary();
        const Type* op_type = expr->operand->type;
        expr->type = (op_type != nullptr && op_type->IsPointer()) ? op_type->pointee()
                                                                  : types().IntType();
        return expr;
      }
      case TokenKind::kAmp: {
        auto* expr = ctx().New<UnaryExpr>();
        expr->loc = loc;
        expr->op = Advance().kind;
        expr->operand = ParseUnary();
        expr->type = types().PointerTo(expr->operand->type != nullptr ? expr->operand->type
                                                                      : types().IntType());
        return expr;
      }
      case TokenKind::kKwSizeof: {
        auto* expr = ctx().New<SizeofExpr>();
        expr->loc = Advance().loc;
        if (Accept(TokenKind::kLParen)) {
          if (IsTypeStart(Peek().kind)) {
            expr->arg_type = ParsePointers(ParseBaseType());
          } else {
            expr->arg_expr = ParseExpr();
          }
          Expect(TokenKind::kRParen, "')'");
        } else {
          expr->arg_expr = ParseUnary();
        }
        expr->type = types().IntType();
        return expr;
      }
      case TokenKind::kLParen:
        // Cast or parenthesized expression: a type token right after '('
        // means a cast.
        if (IsTypeStart(Peek(1).kind)) {
          Advance();  // '('
          const Type* base = ParseBaseType();
          const Type* target = ParsePointers(base);
          Expect(TokenKind::kRParen, "')'");
          auto* cast = ctx().New<CastExpr>();
          cast->loc = loc;
          cast->target = target;
          cast->is_void_cast = target != nullptr && target->IsVoid();
          cast->operand = ParseUnary();
          cast->type = target;
          return cast;
        }
        break;
      default:
        break;
    }
    return ParsePostfix();
  }

  Expr* ParsePostfix() {
    Expr* expr = ParsePrimary();
    while (true) {
      SourceLoc loc = Peek().loc;
      switch (Peek().kind) {
        case TokenKind::kLParen: {
          Advance();
          auto* call = ctx().New<CallExpr>();
          call->loc = expr != nullptr ? expr->loc : loc;
          call->callee = expr;
          while (!At(TokenKind::kRParen) && !At(TokenKind::kEof)) {
            call->args.push_back(ParseAssignmentExpr());
            if (!Accept(TokenKind::kComma)) {
              break;
            }
          }
          Expect(TokenKind::kRParen, "')'");
          if (expr != nullptr && expr->kind == ExprKind::kIdent) {
            auto* ident = static_cast<IdentExpr*>(expr);
            if (ident->func != nullptr) {
              call->resolved = ident->func;
            } else if (ident->var == nullptr) {
              call->resolved = LookupOrCreateFunction(ident->name, ident->loc);
              ident->func = call->resolved;
            }
          }
          call->type = call->resolved != nullptr ? call->resolved->return_type
                                                 : types().IntType();
          expr = call;
          break;
        }
        case TokenKind::kLBracket: {
          Advance();
          auto* index = ctx().New<IndexExpr>();
          index->loc = loc;
          index->base = expr;
          index->index = ParseExpr();
          Expect(TokenKind::kRBracket, "']'");
          const Type* base_type = expr != nullptr ? expr->type : nullptr;
          index->type = (base_type != nullptr && base_type->IsPointer()) ? base_type->pointee()
                                                                         : types().IntType();
          expr = index;
          break;
        }
        case TokenKind::kDot:
        case TokenKind::kArrow: {
          bool arrow = Peek().kind == TokenKind::kArrow;
          Advance();
          auto* member = ctx().New<MemberExpr>();
          member->loc = loc;
          member->base = expr;
          member->is_arrow = arrow;
          member->member = Expect(TokenKind::kIdentifier, "member name").text;
          member->field = ResolveField(expr, arrow, member->member);
          member->type = member->field != nullptr ? member->field->type : types().IntType();
          expr = member;
          break;
        }
        case TokenKind::kPlusPlus:
        case TokenKind::kMinusMinus: {
          auto* unary = ctx().New<UnaryExpr>();
          unary->loc = loc;
          unary->op = Advance().kind;
          unary->is_postfix = true;
          unary->operand = expr;
          unary->type = expr != nullptr ? expr->type : nullptr;
          expr = unary;
          break;
        }
        default:
          return expr;
      }
    }
  }

  const FieldDecl* ResolveField(const Expr* base, bool arrow, const std::string& member) {
    if (base == nullptr || base->type == nullptr) {
      return nullptr;
    }
    const Type* record = base->type;
    if (arrow) {
      if (!record->IsPointer()) {
        return nullptr;
      }
      record = record->pointee();
    }
    if (record == nullptr || !record->IsStruct() || record->struct_decl() == nullptr) {
      return nullptr;
    }
    return record->struct_decl()->FindField(member);
  }

  Expr* ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kIntLiteral: {
        auto* lit = ctx().New<IntLitExpr>();
        lit->loc = tok.loc;
        lit->value = tok.int_value;
        lit->type = types().IntType();
        Advance();
        return lit;
      }
      case TokenKind::kCharLiteral: {
        auto* lit = ctx().New<CharLitExpr>();
        lit->loc = tok.loc;
        lit->value = tok.int_value;
        lit->type = types().CharType();
        Advance();
        return lit;
      }
      case TokenKind::kStringLiteral: {
        auto* lit = ctx().New<StrLitExpr>();
        lit->loc = tok.loc;
        lit->value = tok.text;
        lit->type = types().PointerTo(types().CharType());
        Advance();
        return lit;
      }
      case TokenKind::kKwTrue:
      case TokenKind::kKwFalse: {
        auto* lit = ctx().New<BoolLitExpr>();
        lit->loc = tok.loc;
        lit->value = tok.kind == TokenKind::kKwTrue;
        lit->type = types().BoolType();
        Advance();
        return lit;
      }
      case TokenKind::kKwNull: {
        auto* lit = ctx().New<NullLitExpr>();
        lit->loc = tok.loc;
        lit->type = types().PointerTo(types().VoidType());
        Advance();
        return lit;
      }
      case TokenKind::kIdentifier: {
        // Enumerator constants are compile-time integers (locals shadow them).
        if (enum_constants_.count(tok.text) > 0 && LookupVar(tok.text) == nullptr) {
          auto* lit = ctx().New<IntLitExpr>();
          lit->loc = tok.loc;
          lit->value = enum_constants_[tok.text];
          lit->type = types().IntType();
          Advance();
          return lit;
        }
        auto* ident = ctx().New<IdentExpr>();
        ident->loc = tok.loc;
        ident->name = tok.text;
        Advance();
        if (VarDecl* var = LookupVar(ident->name)) {
          ident->var = var;
          ident->type = var->type;
        } else {
          auto func_it = functions_.find(ident->name);
          if (func_it != functions_.end()) {
            ident->func = func_it->second;
            ident->type = types().PointerTo(types().VoidType());
          } else if (!At(TokenKind::kLParen)) {
            // Not a call: unknown variable. Report once, then synthesize a
            // declaration so the rest of the function still parses/analyzes.
            Error(ident->loc, "use of undeclared identifier '" + ident->name + "'");
            auto* var = ctx().New<VarDecl>();
            var->name = ident->name;
            var->type = types().IntType();
            var->loc = ident->loc;
            var->owner = current_function_;
            Declare(var);
            ident->var = var;
            ident->type = var->type;
          }
          // Unknown identifier followed by '(' becomes an implicit external
          // function in ParsePostfix.
        }
        return ident;
      }
      case TokenKind::kLParen: {
        Advance();
        Expr* inner = ParseExpr();
        Expect(TokenKind::kRParen, "')'");
        return inner;
      }
      default:
        Error(tok.loc, std::string("expected expression, found '") + TokenKindName(tok.kind) +
                           "'");
        Advance();
        auto* lit = ctx().New<IntLitExpr>();
        lit->loc = tok.loc;
        lit->type = types().IntType();
        return lit;
    }
  }

  const SourceManager& sm_;
  FileId file_;
  std::vector<Token> tokens_;
  DiagnosticEngine& diags_;
  size_t pos_ = 0;
  SourceLoc last_consumed_loc_;
  int depth_ = 0;
  int max_depth_ = kDefaultParseDepth;
  bool depth_bailed_ = false;

  TranslationUnit unit_;
  std::map<std::string, StructDecl*> structs_;
  std::map<std::string, const Type*> typedefs_;
  std::map<std::string, long long> enum_constants_;
  std::map<std::string, FunctionDecl*> functions_;
  std::map<std::string, VarDecl*> globals_;
  std::vector<std::map<std::string, VarDecl*>> scopes_;
  FunctionDecl* current_function_ = nullptr;
  int anon_struct_counter_ = 0;
};

}  // namespace

TranslationUnit ParseFile(const SourceManager& sm, FileId file, const Config& config,
                          DiagnosticEngine& diags, int max_depth) {
  PreprocessResult pp = Preprocess(sm.Content(file), config);
  for (const std::string& error : pp.errors) {
    diags.Error({file, 1, 1}, "preprocessor: " + error);
  }
  return ParseFile(sm, file, pp, diags, max_depth);
}

TranslationUnit ParseFile(const SourceManager& sm, FileId file, const PreprocessResult& pp,
                          DiagnosticEngine& diags, int max_depth) {
  std::vector<Token> tokens = Lex(sm, file, pp, diags);
  Parser parser(sm, file, std::move(tokens), diags, max_depth);
  return parser.Run();
}

TranslationUnit ParseString(SourceManager& sm, const std::string& path, const std::string& code,
                            DiagnosticEngine& diags) {
  FileId file = sm.AddFile(path, code);
  return ParseFile(sm, file, Config(), diags);
}

}  // namespace vc
