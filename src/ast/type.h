// Mini-C type system. Types are interned in a TypeTable and referenced by
// const pointer; identity comparison is therefore pointer comparison.
//
// The integer-ish C types (int, long, unsigned, size_t) all map to the single
// kInt type: ValueCheck's analysis is width-agnostic, it only needs to know
// what is a struct (for field sensitivity) and what is a pointer (for alias
// analysis).

#ifndef VALUECHECK_SRC_AST_TYPE_H_
#define VALUECHECK_SRC_AST_TYPE_H_

#include <deque>
#include <map>
#include <string>
#include <vector>

namespace vc {

struct StructDecl;

enum class TypeKind {
  kVoid,
  kInt,
  kChar,
  kBool,
  kStruct,
  kPointer,
};

class Type {
 public:
  TypeKind kind() const { return kind_; }
  bool IsVoid() const { return kind_ == TypeKind::kVoid; }
  bool IsInt() const { return kind_ == TypeKind::kInt; }
  bool IsBool() const { return kind_ == TypeKind::kBool; }
  bool IsStruct() const { return kind_ == TypeKind::kStruct; }
  bool IsPointer() const { return kind_ == TypeKind::kPointer; }
  bool IsScalar() const { return !IsStruct() && !IsVoid(); }

  // For kPointer.
  const Type* pointee() const { return pointee_; }
  // For kStruct.
  const StructDecl* struct_decl() const { return struct_decl_; }

  std::string ToString() const;
  // Appends ToString() to `out` without building temporaries.
  void AppendTo(std::string& out) const;

 private:
  friend class TypeTable;
  explicit Type(TypeKind kind) : kind_(kind) {}

  TypeKind kind_;
  const Type* pointee_ = nullptr;
  const StructDecl* struct_decl_ = nullptr;
};

class TypeTable {
 public:
  TypeTable();

  const Type* VoidType() const { return void_; }
  const Type* IntType() const { return int_; }
  const Type* CharType() const { return char_; }
  const Type* BoolType() const { return bool_; }

  const Type* PointerTo(const Type* pointee);
  const Type* StructTypeFor(const StructDecl* decl);

 private:
  Type* Alloc(TypeKind kind);

  std::deque<Type> storage_;
  const Type* void_;
  const Type* int_;
  const Type* char_;
  const Type* bool_;
  std::map<const Type*, const Type*> pointer_types_;
  std::map<const StructDecl*, const Type*> struct_types_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_AST_TYPE_H_
