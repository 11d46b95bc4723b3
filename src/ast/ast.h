// Mini-C abstract syntax tree.
//
// All nodes live in an AstContext arena and are referenced by raw pointer.
// The arena constructs each node in place in chunks of memory it owns, a few
// per file, and destroys them in place when the translation unit goes, so
// building and freeing a file's tree costs a handful of heap blocks rather
// than one per node. Identifier expressions are resolved to their
// declarations by the parser, so downstream passes (IR lowering, baselines
// that walk the AST) never do name lookup themselves.

#ifndef VALUECHECK_SRC_AST_AST_H_
#define VALUECHECK_SRC_AST_AST_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "src/ast/type.h"
#include "src/lexer/token.h"
#include "src/support/source_location.h"

namespace vc {

class AstNode {
 public:
  virtual ~AstNode() = default;
};

// Arena that owns every AST node of one translation unit plus its type table.
// Nodes are placement-constructed into chunks that are never zero-filled.
// The first chunk holds `first_chunk_bytes`, the caller's estimate of the
// file's node bytes; each later chunk holds an eighth of that (at least
// kMinChunkBytes), so a file that outgrows its estimate leaves at most one
// small chunk's tail unused. The destructor runs every node's destructor,
// through AstNode's virtual one, in construction order.
class AstContext {
 public:
  explicit AstContext(size_t first_chunk_bytes)
      : next_chunk_bytes_(std::max(first_chunk_bytes, kMinChunkBytes)) {}
  ~AstContext();
  AstContext(const AstContext&) = delete;
  AstContext& operator=(const AstContext&) = delete;

  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_base_of_v<AstNode, T>);
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);  // chunks start there
    T* node = new (Allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
    nodes_.push_back(node);
    node_bytes_ += sizeof(T);
    ++node_count_;
    return node;
  }

  TypeTable& types() { return types_; }
  const TypeTable& types() const { return types_; }

  // Exact sizeof-footprint of the arena's nodes (excludes out-of-line vectors
  // and strings, and the chunks' unused tails): the arena is per-file
  // single-threaded, so plain counters stay exact and deterministic.
  // Consumed by the memory tracker.
  uint64_t node_bytes() const { return node_bytes_; }
  uint64_t node_count() const { return node_count_; }
  size_t chunk_count() const { return chunks_.size(); }

 private:
  static constexpr size_t kMinChunkBytes = 512;

  // `size` bytes at `align` in the current chunk, opening a new chunk when
  // they do not fit.
  void* Allocate(size_t size, size_t align) {
    size_t offset = (used_ + align - 1) & ~(align - 1);
    if (chunks_.empty() || offset + size > chunk_bytes_) {
      NewChunk(size);
      offset = 0;
    }
    used_ = offset + size;
    return chunks_.back().get() + offset;
  }
  void NewChunk(size_t at_least);

  TypeTable types_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::vector<AstNode*> nodes_;  // construction order
  size_t chunk_bytes_ = 0;       // size of chunks_.back()
  size_t used_ = 0;              // bytes taken from chunks_.back()
  size_t next_chunk_bytes_;
  uint64_t node_bytes_ = 0;
  uint64_t node_count_ = 0;
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

struct FunctionDecl;

struct FieldDecl : AstNode {
  std::string name;
  const Type* type = nullptr;
  int index = 0;  // position within the struct; forms the slot name "v#index"
  SourceLoc loc;
};

struct StructDecl : AstNode {
  std::string name;
  std::vector<FieldDecl*> fields;
  SourceLoc loc;

  const FieldDecl* FindField(const std::string& field_name) const {
    for (const FieldDecl* field : fields) {
      if (field->name == field_name) {
        return field;
      }
    }
    return nullptr;
  }
};

struct VarDecl : AstNode {
  std::string name;
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
  std::string value;
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
  std::string name;
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
  std::vector<Expr*> args;
  // Resolved for direct calls to functions declared in the same translation
  // unit (definition or prototype); null for indirect calls through pointers.
  FunctionDecl* resolved = nullptr;
};

struct MemberExpr : Expr {
  MemberExpr() : Expr(ExprKind::kMember) {}
  Expr* base = nullptr;
  std::string member;
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
  std::vector<Stmt*> body;
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
  std::vector<Stmt*> body;
};

struct SwitchStmt : Stmt {
  SwitchStmt() : Stmt(StmtKind::kSwitch) {}
  Expr* cond = nullptr;
  std::vector<SwitchCase> cases;
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
  std::string name;
  const Type* return_type = nullptr;
  std::vector<VarDecl*> params;
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

  FunctionDecl* FindFunction(const std::string& name) const {
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
