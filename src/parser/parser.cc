#include "src/parser/parser.h"

#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "src/lexer/lexer.h"
#include "src/support/string_util.h"
#include "src/support/view_map.h"

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

// The AST arena's first chunk, in bytes of the tree (nodes, names and child
// lists) per token. Generated files take 24-39: about 27 on the linux-like
// corpus profile and 34 over the four paper apps, whose tenth percentile is
// 31. An estimate above a file's need leaves the difference allocated but
// unused, so the first chunk sits at the low end: most files fill it and
// spill into one or a few eighth-sized chunks, and the unused tails stay
// near 5 % of the tree on both corpora.
constexpr size_t kNodeBytesPerToken = 26;

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
    unit_.context = std::make_unique<AstContext>(tokens_.size() * kNodeBytesPerToken);
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

  // Copies `stack` from `mark` into the arena and pops it back to `mark`.
  template <typename T>
  std::span<T> TakeList(std::vector<T>& stack, size_t mark) {
    std::span<T> list =
        ctx().arena().Copy(std::span<const T>(stack.data() + mark, stack.size() - mark));
    stack.resize(mark);
    return list;
  }

  // --- Scopes and lookup --------------------------------------------------
  //
  // Block scopes are one declaration stack: each open scope marks where its
  // declarations begin, and a lookup searches from the top, so an inner
  // declaration, or a later one in the same block, hides an earlier one.

  void PushScope() { scope_marks_.push_back(locals_.size()); }
  void PopScope() {
    locals_.resize(scope_marks_.back());
    scope_marks_.pop_back();
  }

  void Declare(VarDecl* var) {
    if (!scope_marks_.empty()) {
      locals_.emplace_back(var->name, var);
    }
  }

  VarDecl* LookupVar(std::string_view name) {
    for (size_t i = locals_.size(); i-- > 0;) {
      if (locals_[i].first == name) {
        return locals_[i].second;
      }
    }
    VarDecl* const* global = globals_.Find(name);
    return global != nullptr ? *global : nullptr;
  }

  // `name` is already the arena's (an identifier expression's name).
  FunctionDecl* LookupOrCreateFunction(std::string_view name, SourceLoc loc) {
    if (FunctionDecl* const* found = functions_.Find(name)) {
      return *found;
    }
    // Unknown callee: create an implicit external prototype so that call
    // sites of the same library function group together for peer-definition
    // pruning, and so authorship treats it as out-of-project (§4.2).
    auto* func = ctx().New<FunctionDecl>();
    func->name = name;
    func->return_type = types().IntType();
    func->is_implicit = true;
    func->loc = loc;
    functions_[func->name] = func;
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
        if (const Type* const* aliased = typedefs_.Find(Peek().text)) {
          Advance();
          return *aliased;
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

  StructDecl* LookupOrForwardStruct(std::string_view name, SourceLoc loc) {
    if (StructDecl* const* found = structs_.Find(name)) {
      return *found;
    }
    auto* decl = ctx().New<StructDecl>();
    decl->name = ctx().arena().CopyString(name);
    decl->loc = loc;
    structs_[decl->name] = decl;
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
        } else if (const long long* constant = value.kind == TokenKind::kIdentifier
                                                   ? enum_constants_.Find(value.text)
                                                   : nullptr) {
          next_value = *constant;
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

  // Parses "{ fields }" into `decl` (the closing brace included), after
  // any fields an earlier definition gave it.
  void ParseStructFields(StructDecl* decl) {
    fields_.assign(decl->fields.begin(), decl->fields.end());
    ParseFieldList();
    decl->fields = TakeList(fields_, 0);
  }

  void ParseFieldList() {
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
        field->name = ctx().arena().CopyString(field_name.text);
        field->type = field_type;
        field->index = static_cast<int>(fields_.size());
        field->loc = field_name.loc;
        fields_.push_back(field);
      } while (Accept(TokenKind::kComma));
      Expect(TokenKind::kSemi, "';'");
    }
    Expect(TokenKind::kRBrace, "'}'");
  }

  void ParseGlobalRest(const Type* type, const Token& name) {
    while (true) {
      auto* var = ctx().New<VarDecl>();
      var->name = ctx().arena().CopyString(name.text);
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
    if (FunctionDecl* const* existing = functions_.Find(name.text)) {
      func = *existing;
      func->is_implicit = false;
    } else {
      func = ctx().New<FunctionDecl>();
      func->name = ctx().arena().CopyString(name.text);
      functions_[func->name] = func;
      unit_.functions.push_back(func);
    }
    func->return_type = return_type;
    func->is_static = is_static;
    func->loc = name.loc;
    func->range.begin = decl_begin;

    // Parameters.
    params_.clear();
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
      std::string_view param_name;
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
      param->name = !param_name.empty()
                        ? ctx().arena().CopyString(param_name)
                        : ctx().arena().CopyString("_arg" + std::to_string(params_.size()));
      param->type = param_type;
      param->loc = param_loc;
      param->is_param = true;
      param->param_index = static_cast<int>(params_.size());
      param->has_unused_attr = hint;
      param->owner = func;
      params_.push_back(param);
      if (!Accept(TokenKind::kComma)) {
        break;
      }
    }
    Expect(TokenKind::kRParen, "')'");

    if (Accept(TokenKind::kSemi)) {
      // Prototype: keep parameter list if this is the first sighting.
      if (func->params.empty()) {
        func->params = TakeList(params_, 0);
      }
      func->range.end = Peek().loc;
      return;
    }

    func->params = TakeList(params_, 0);
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
    const size_t mark = stmts_.size();
    while (!At(TokenKind::kRBrace) && !At(TokenKind::kEof)) {
      size_t before = pos_;
      Stmt* stmt = ParseStmt();
      if (stmt != nullptr) {
        stmts_.push_back(stmt);
      }
      if (pos_ == before) {
        Advance();
      }
    }
    compound->body = TakeList(stmts_, mark);
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
        (At(TokenKind::kIdentifier) && typedefs_.Contains(Peek().text) &&
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
    const size_t mark = stmts_.size();
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
      var->name = ctx().arena().CopyString(name.text);
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
      stmts_.push_back(stmt);
    } while (Accept(TokenKind::kComma));
    Expect(TokenKind::kSemi, "';'");

    if (stmts_.size() == mark + 1) {
      Stmt* only = stmts_.back();
      stmts_.pop_back();
      return only;
    }
    auto* compound = ctx().New<CompoundStmt>();
    compound->loc = stmts_[mark]->loc;
    compound->body = TakeList(stmts_, mark);
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
    const size_t case_mark = cases_.size();
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
        } else if (const long long* constant = value.kind == TokenKind::kIdentifier
                                                   ? enum_constants_.Find(value.text)
                                                   : nullptr) {
          arm.value = negate ? -*constant : *constant;
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
      const size_t mark = stmts_.size();
      while (!At(TokenKind::kKwCase) && !At(TokenKind::kKwDefault) &&
             !At(TokenKind::kRBrace) && !At(TokenKind::kEof)) {
        size_t before = pos_;
        Stmt* child = ParseStmt();
        if (child != nullptr) {
          stmts_.push_back(child);
        }
        if (pos_ == before) {
          Advance();
        }
      }
      arm.body = TakeList(stmts_, mark);
      cases_.push_back(arm);
    }
    stmt->cases = TakeList(cases_, case_mark);
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
               (At(TokenKind::kIdentifier) && typedefs_.Contains(Peek().text))) {
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
          const size_t mark = exprs_.size();
          while (!At(TokenKind::kRParen) && !At(TokenKind::kEof)) {
            exprs_.push_back(ParseAssignmentExpr());
            if (!Accept(TokenKind::kComma)) {
              break;
            }
          }
          call->args = TakeList(exprs_, mark);
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
          const std::string_view name = Expect(TokenKind::kIdentifier, "member name").text;
          member->field = ResolveField(expr, arrow, name);
          member->member =
              member->field != nullptr ? member->field->name : ctx().arena().CopyString(name);
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

  const FieldDecl* ResolveField(const Expr* base, bool arrow, std::string_view member) {
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
        lit->value = ctx().arena().CopyString(tok.text);
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
        const long long* constant = enum_constants_.Find(tok.text);
        if (constant != nullptr && LookupVar(tok.text) == nullptr) {
          auto* lit = ctx().New<IntLitExpr>();
          lit->loc = tok.loc;
          lit->value = *constant;
          lit->type = types().IntType();
          Advance();
          return lit;
        }
        // The name views its declaration's, so an identifier copies its
        // text only when nothing declares it.
        auto* ident = ctx().New<IdentExpr>();
        ident->loc = tok.loc;
        Advance();
        if (VarDecl* var = LookupVar(tok.text)) {
          ident->name = var->name;
          ident->var = var;
          ident->type = var->type;
        } else {
          if (FunctionDecl* const* func = functions_.Find(tok.text)) {
            ident->name = (*func)->name;
            ident->func = *func;
            ident->type = types().PointerTo(types().VoidType());
            return ident;
          }
          ident->name = ctx().arena().CopyString(tok.text);
          if (!At(TokenKind::kLParen)) {
            // Not a call: unknown variable. Report once, then synthesize a
            // declaration so the rest of the function still parses/analyzes.
            Error(ident->loc, "use of undeclared identifier '" + std::string(ident->name) + "'");
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

  // Staging for child lists while their parse is open: each list is the
  // top of its stack from a mark, copied into the arena at exact size when
  // the list ends. Fields and parameters never nest.
  std::vector<Stmt*> stmts_;
  std::vector<Expr*> exprs_;
  std::vector<SwitchCase> cases_;
  std::vector<FieldDecl*> fields_;
  std::vector<VarDecl*> params_;

  TranslationUnit unit_;
  // Symbol tables. A key views the source or a name the arena owns (a
  // struct's by its own name, since an anonymous tag is a temporary).
  ViewMap<StructDecl*> structs_;
  ViewMap<const Type*> typedefs_;
  ViewMap<long long> enum_constants_;
  ViewMap<FunctionDecl*> functions_;
  ViewMap<VarDecl*> globals_;
  // The declaration stack of the open block scopes, and where each scope's
  // declarations begin in it. A name views the VarDecl's own.
  std::vector<std::pair<std::string_view, VarDecl*>> locals_;
  std::vector<size_t> scope_marks_;
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
