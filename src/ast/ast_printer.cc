#include "src/ast/ast_printer.h"

#include "src/lexer/token.h"

namespace vc {

namespace {

std::string OpName(TokenKind op) { return TokenKindName(op); }

}  // namespace

std::string PrintExpr(const Expr* expr) {
  if (expr == nullptr) {
    return "<null>";
  }
  switch (expr->kind) {
    case ExprKind::kIntLit:
      return std::to_string(static_cast<const IntLitExpr*>(expr)->value);
    case ExprKind::kCharLit:
      return "'" + std::to_string(static_cast<const CharLitExpr*>(expr)->value) + "'";
    case ExprKind::kStrLit:
      return "\"" + std::string(static_cast<const StrLitExpr*>(expr)->value) + "\"";
    case ExprKind::kBoolLit:
      return static_cast<const BoolLitExpr*>(expr)->value ? "true" : "false";
    case ExprKind::kNullLit:
      return "null";
    case ExprKind::kIdent:
      return std::string(static_cast<const IdentExpr*>(expr)->name);
    case ExprKind::kBinary: {
      const auto* bin = static_cast<const BinaryExpr*>(expr);
      return "(" + OpName(bin->op) + " " + PrintExpr(bin->lhs) + " " + PrintExpr(bin->rhs) + ")";
    }
    case ExprKind::kUnary: {
      const auto* un = static_cast<const UnaryExpr*>(expr);
      std::string tag = un->is_postfix ? "post" : "pre";
      return "(" + tag + OpName(un->op) + " " + PrintExpr(un->operand) + ")";
    }
    case ExprKind::kAssign: {
      const auto* assign = static_cast<const AssignExpr*>(expr);
      return "(" + OpName(assign->op) + " " + PrintExpr(assign->lhs) + " " +
             PrintExpr(assign->rhs) + ")";
    }
    case ExprKind::kCall: {
      const auto* call = static_cast<const CallExpr*>(expr);
      std::string out = "(call " + PrintExpr(call->callee);
      for (const Expr* arg : call->args) {
        out += " " + PrintExpr(arg);
      }
      return out + ")";
    }
    case ExprKind::kMember: {
      const auto* member = static_cast<const MemberExpr*>(expr);
      return "(" + std::string(member->is_arrow ? "->" : ".") + " " + PrintExpr(member->base) +
             " " + std::string(member->member) + ")";
    }
    case ExprKind::kIndex: {
      const auto* index = static_cast<const IndexExpr*>(expr);
      return "(index " + PrintExpr(index->base) + " " + PrintExpr(index->index) + ")";
    }
    case ExprKind::kCast: {
      const auto* cast = static_cast<const CastExpr*>(expr);
      return "(cast " + (cast->target ? cast->target->ToString() : std::string("?")) + " " +
             PrintExpr(cast->operand) + ")";
    }
    case ExprKind::kCond: {
      const auto* cond = static_cast<const CondExpr*>(expr);
      return "(?: " + PrintExpr(cond->cond) + " " + PrintExpr(cond->then_expr) + " " +
             PrintExpr(cond->else_expr) + ")";
    }
    case ExprKind::kSizeof:
      return "(sizeof)";
  }
  return "<bad-expr>";
}

std::string PrintStmt(const Stmt* stmt) {
  if (stmt == nullptr) {
    return "<null>";
  }
  switch (stmt->kind) {
    case StmtKind::kCompound: {
      const auto* compound = static_cast<const CompoundStmt*>(stmt);
      std::string out = "{";
      for (const Stmt* child : compound->body) {
        out += " " + PrintStmt(child);
      }
      return out + " }";
    }
    case StmtKind::kDecl: {
      const auto* decl = static_cast<const DeclStmt*>(stmt);
      std::string out = "(decl " + decl->var->type->ToString() + " ";
      out += decl->var->name;
      if (decl->init != nullptr) {
        out += " = " + PrintExpr(decl->init);
      }
      return out + ")";
    }
    case StmtKind::kExpr:
      return PrintExpr(static_cast<const ExprStmt*>(stmt)->expr) + ";";
    case StmtKind::kIf: {
      const auto* if_stmt = static_cast<const IfStmt*>(stmt);
      std::string out =
          "(if " + PrintExpr(if_stmt->cond) + " " + PrintStmt(if_stmt->then_stmt);
      if (if_stmt->else_stmt != nullptr) {
        out += " else " + PrintStmt(if_stmt->else_stmt);
      }
      return out + ")";
    }
    case StmtKind::kWhile: {
      const auto* while_stmt = static_cast<const WhileStmt*>(stmt);
      return "(while " + PrintExpr(while_stmt->cond) + " " + PrintStmt(while_stmt->body) + ")";
    }
    case StmtKind::kDoWhile: {
      const auto* do_stmt = static_cast<const DoWhileStmt*>(stmt);
      return "(do " + PrintStmt(do_stmt->body) + " while " + PrintExpr(do_stmt->cond) + ")";
    }
    case StmtKind::kSwitch: {
      const auto* switch_stmt = static_cast<const SwitchStmt*>(stmt);
      std::string out = "(switch " + PrintExpr(switch_stmt->cond);
      for (const SwitchCase& arm : switch_stmt->cases) {
        out += arm.is_default ? " (default" : " (case " + std::to_string(arm.value);
        for (const Stmt* child : arm.body) {
          out += " " + PrintStmt(child);
        }
        out += ")";
      }
      return out + ")";
    }
    case StmtKind::kFor: {
      const auto* for_stmt = static_cast<const ForStmt*>(stmt);
      return "(for " + PrintStmt(for_stmt->init) + " " + PrintExpr(for_stmt->cond) + " " +
             PrintExpr(for_stmt->step) + " " + PrintStmt(for_stmt->body) + ")";
    }
    case StmtKind::kReturn: {
      const auto* ret = static_cast<const ReturnStmt*>(stmt);
      return ret->value != nullptr ? "(return " + PrintExpr(ret->value) + ")" : "(return)";
    }
    case StmtKind::kBreak:
      return "(break)";
    case StmtKind::kContinue:
      return "(continue)";
    case StmtKind::kEmpty:
      return "(empty)";
  }
  return "<bad-stmt>";
}

std::string PrintFunction(const FunctionDecl* func) {
  std::string out = func->return_type->ToString() + " ";
  out += func->name;
  out += "(";
  for (size_t i = 0; i < func->params.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += func->params[i]->type->ToString() + " ";
    out += func->params[i]->name;
  }
  out += ")";
  if (func->body != nullptr) {
    out += " " + PrintStmt(func->body);
  } else {
    out += ";";
  }
  return out;
}

std::string PrintUnit(const TranslationUnit& unit) {
  std::string out;
  for (const StructDecl* s : unit.structs) {
    out += "struct ";
    out += s->name;
    out += " {";
    for (const FieldDecl* field : s->fields) {
      out += " " + field->type->ToString() + " ";
      out += field->name;
      out += ";";
    }
    out += " };\n";
  }
  for (const FunctionDecl* func : unit.functions) {
    out += PrintFunction(func) + "\n";
  }
  return out;
}

}  // namespace vc
