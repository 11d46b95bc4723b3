#include "src/ast/type.h"

#include "src/ast/ast.h"

namespace vc {

TypeTable::TypeTable() {
  void_ = Alloc(TypeKind::kVoid);
  int_ = Alloc(TypeKind::kInt);
  char_ = Alloc(TypeKind::kChar);
  bool_ = Alloc(TypeKind::kBool);
}

Type* TypeTable::Alloc(TypeKind kind) {
  storage_.push_back(Type(kind));
  return &storage_.back();
}

const Type* TypeTable::PointerTo(const Type* pointee) {
  auto it = pointer_types_.find(pointee);
  if (it != pointer_types_.end()) {
    return it->second;
  }
  Type* type = Alloc(TypeKind::kPointer);
  type->pointee_ = pointee;
  pointer_types_[pointee] = type;
  return type;
}

const Type* TypeTable::StructTypeFor(const StructDecl* decl) {
  auto it = struct_types_.find(decl);
  if (it != struct_types_.end()) {
    return it->second;
  }
  Type* type = Alloc(TypeKind::kStruct);
  type->struct_decl_ = decl;
  struct_types_[decl] = type;
  return type;
}

std::string Type::ToString() const {
  std::string out;
  AppendTo(out);
  return out;
}

void Type::AppendTo(std::string& out) const {
  switch (kind_) {
    case TypeKind::kVoid:
      out += "void";
      return;
    case TypeKind::kInt:
      out += "int";
      return;
    case TypeKind::kChar:
      out += "char";
      return;
    case TypeKind::kBool:
      out += "bool";
      return;
    case TypeKind::kStruct:
      out += "struct ";
      out += struct_decl_ != nullptr ? struct_decl_->name : std::string_view("<anon>");
      return;
    case TypeKind::kPointer:
      if (pointee_ != nullptr) {
        pointee_->AppendTo(out);
      } else {
        out += '?';
      }
      out += '*';
      return;
  }
  out += "<bad-type>";
}

}  // namespace vc
