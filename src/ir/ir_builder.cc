#include "src/ir/ir_builder.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace vc {

namespace {

// The value-or-slot result of lowering an lvalue expression. Direct slots
// keep field sensitivity; everything else degrades to an address value that
// is accessed indirectly (and therefore handled conservatively by liveness).
struct LValue {
  bool is_slot = false;
  SlotId slot = kInvalidSlot;
  ValueId addr = kNoValue;
};

const Expr* StripCasts(const Expr* expr) {
  while (expr != nullptr && expr->kind == ExprKind::kCast) {
    expr = static_cast<const CastExpr*>(expr)->operand;
  }
  return expr;
}

// True when `expr` is a literal constant; fills `value` if so.
bool IsConstExpr(const Expr* expr, long long* value) {
  if (expr == nullptr) {
    return false;
  }
  switch (expr->kind) {
    case ExprKind::kIntLit:
      *value = static_cast<const IntLitExpr*>(expr)->value;
      return true;
    case ExprKind::kCharLit:
      *value = static_cast<const CharLitExpr*>(expr)->value;
      return true;
    case ExprKind::kBoolLit:
      *value = static_cast<const BoolLitExpr*>(expr)->value ? 1 : 0;
      return true;
    case ExprKind::kNullLit:
      *value = 0;
      return true;
    default:
      return false;
  }
}

// Each block's instructions while its function lowers, by block id. They
// move into exactly sized vectors when the function is done, so a block
// allocates once, not once per doubling; the staging vectors stay with the
// thread and keep their capacity.
thread_local std::vector<std::vector<Instruction>> staged_insts;

class FunctionLowering {
 public:
  explicit FunctionLowering(const FunctionDecl* decl) : decl_(decl) {
    func_ = std::make_unique<IrFunction>();
    func_->name = decl->name;
    func_->decl = decl;
  }
  ~FunctionLowering() {
    for (size_t b = 0; b < staged_blocks_; ++b) {
      staged_insts[b].clear();
    }
  }

  // Registers the whole-variable slot and, for struct-typed variables, one
  // slot per field. Pre-creating field slots means the points-to analysis can
  // resolve `p->f` field-sensitively even when the field is never accessed
  // directly through the variable.
  SlotId EnsureSlots(const VarDecl* var) {
    SlotId slot = func_->slots.ForVar(var);
    if (var->type != nullptr && var->type->IsStruct() && var->type->struct_decl() != nullptr) {
      for (const FieldDecl* field : var->type->struct_decl()->fields) {
        func_->slots.ForField(var, field->index);
      }
    }
    return slot;
  }

  std::unique_ptr<IrFunction> Run() {
    cur_ = func_->NewBlock();
    for (const VarDecl* param : decl_->params) {
      func_->param_slots.push_back(EnsureSlots(param));
    }
    EmitStmt(decl_->body);
    if (!Terminated()) {
      Instruction ret;
      ret.op = Opcode::kRet;
      ret.loc = decl_->range.end.IsValid() ? decl_->range.end : decl_->loc;
      Append(std::move(ret));
    }
    for (const auto& block : func_->blocks) {
      std::vector<Instruction>& staged = Staged(*block);
      block->insts.assign(std::make_move_iterator(staged.begin()),
                          std::make_move_iterator(staged.end()));
    }
    func_->ComputeEdges();
    return std::move(func_);
  }

 private:
  // --- Instruction emission ----------------------------------------------

  std::vector<Instruction>& Staged(const BasicBlock& block) {
    const size_t id = static_cast<size_t>(block.id);
    if (id >= staged_insts.size()) {
      staged_insts.resize(id + 1);
    }
    staged_blocks_ = std::max(staged_blocks_, id + 1);
    return staged_insts[id];
  }

  bool Terminated() {
    const std::vector<Instruction>& insts = Staged(*cur_);
    if (insts.empty()) {
      return false;
    }
    const Opcode op = insts.back().op;
    return op == Opcode::kRet || op == Opcode::kBr || op == Opcode::kCondBr;
  }

  ValueId Append(Instruction inst, bool produces_value = false) {
    if (Terminated()) {
      // Dead code after return/break/continue still lowers (its loads/stores
      // participate in liveness of unreachable blocks) into a fresh block.
      cur_ = func_->NewBlock();
    }
    if (produces_value) {
      inst.result = func_->next_value++;
    }
    std::vector<Instruction>& insts = Staged(*cur_);
    insts.push_back(std::move(inst));
    return insts.back().result;
  }

  ValueId EmitConst(long long value, SourceLoc loc) {
    Instruction inst;
    inst.op = Opcode::kConst;
    inst.const_value = value;
    inst.loc = loc;
    return Append(std::move(inst), /*produces_value=*/true);
  }

  ValueId EmitLoadLValue(const LValue& lv, SourceLoc loc) {
    Instruction inst;
    inst.loc = loc;
    if (lv.is_slot) {
      inst.op = Opcode::kLoad;
      inst.slot = lv.slot;
    } else {
      inst.op = Opcode::kLoadInd;
      inst.operands.push_back(lv.addr);
    }
    return Append(std::move(inst), /*produces_value=*/true);
  }

  void EmitStoreLValue(const LValue& lv, ValueId value, Instruction annotations) {
    Instruction inst = std::move(annotations);  // carries loc + store flags
    inst.operands.clear();
    if (lv.is_slot) {
      inst.op = Opcode::kStore;
      inst.slot = lv.slot;
      inst.operands.push_back(value);
    } else {
      inst.op = Opcode::kStoreInd;
      inst.slot = kInvalidSlot;
      inst.operands.push_back(lv.addr);
      inst.operands.push_back(value);
    }
    Append(std::move(inst));
  }

  void EmitBr(BasicBlock* target, SourceLoc loc) {
    if (Terminated()) {
      return;
    }
    Instruction inst;
    inst.op = Opcode::kBr;
    inst.succ0 = target->id;
    inst.loc = loc;
    Append(std::move(inst));
  }

  void EmitCondBr(ValueId cond, BasicBlock* then_bb, BasicBlock* else_bb, SourceLoc loc) {
    Instruction inst;
    inst.op = Opcode::kCondBr;
    inst.operands.push_back(cond);
    inst.succ0 = then_bb->id;
    inst.succ1 = else_bb->id;
    inst.loc = loc;
    Append(std::move(inst));
  }

  // --- LValues -------------------------------------------------------------

  LValue EmitLValue(const Expr* expr) {
    expr = StripCasts(expr);
    LValue lv;
    if (expr == nullptr) {
      lv.is_slot = true;
      lv.slot = func_->slots.NewSyntheticTemp();
      return lv;
    }
    switch (expr->kind) {
      case ExprKind::kIdent: {
        const auto* ident = static_cast<const IdentExpr*>(expr);
        if (ident->var != nullptr) {
          lv.is_slot = true;
          lv.slot = func_->slots.ForVar(ident->var);
          return lv;
        }
        break;
      }
      case ExprKind::kMember: {
        const auto* member = static_cast<const MemberExpr*>(expr);
        const Expr* base = StripCasts(member->base);
        if (!member->is_arrow && base != nullptr && base->kind == ExprKind::kIdent) {
          const auto* base_ident = static_cast<const IdentExpr*>(base);
          if (base_ident->var != nullptr) {
            lv.is_slot = true;
            lv.slot = (member->field != nullptr)
                          ? func_->slots.ForField(base_ident->var, member->field->index)
                          : func_->slots.ForVar(base_ident->var);
            return lv;
          }
        }
        // p->f or nested member: compute an address and access indirectly.
        ValueId base_addr;
        if (member->is_arrow) {
          base_addr = EmitExpr(member->base);
        } else {
          LValue base_lv = EmitLValue(member->base);
          base_addr = LValueAddress(base_lv, member->loc);
        }
        Instruction inst;
        inst.op = Opcode::kFieldPtr;
        inst.operands.push_back(base_addr);
        inst.field_index = member->field != nullptr ? member->field->index : -1;
        inst.loc = member->loc;
        lv.addr = Append(std::move(inst), /*produces_value=*/true);
        return lv;
      }
      case ExprKind::kUnary: {
        const auto* unary = static_cast<const UnaryExpr*>(expr);
        if (unary->op == TokenKind::kStar && !unary->is_postfix) {
          lv.addr = EmitExpr(unary->operand);
          return lv;
        }
        break;
      }
      case ExprKind::kIndex: {
        const auto* index = static_cast<const IndexExpr*>(expr);
        ValueId base = EmitExpr(index->base);
        ValueId idx = EmitExpr(index->index);
        Instruction inst;
        inst.op = Opcode::kBinOp;
        inst.operands = {base, idx};
        inst.loc = index->loc;
        lv.addr = Append(std::move(inst), /*produces_value=*/true);
        return lv;
      }
      default:
        break;
    }
    // Non-lvalue fallback: write goes to a synthetic temp so lowering stays
    // total on malformed input.
    lv.is_slot = true;
    lv.slot = func_->slots.NewSyntheticTemp();
    return lv;
  }

  // Materializes the address of an lvalue (used for &x and nested members).
  ValueId LValueAddress(const LValue& lv, SourceLoc loc) {
    if (!lv.is_slot) {
      return lv.addr;
    }
    Instruction inst;
    inst.op = Opcode::kAddrSlot;
    inst.slot = lv.slot;
    inst.loc = loc;
    return Append(std::move(inst), /*produces_value=*/true);
  }

  // --- Expressions ----------------------------------------------------------

  ValueId EmitExpr(const Expr* expr) {
    if (expr == nullptr) {
      return EmitConst(0, SourceLoc{});
    }
    switch (expr->kind) {
      case ExprKind::kIntLit:
        return EmitConst(static_cast<const IntLitExpr*>(expr)->value, expr->loc);
      case ExprKind::kCharLit:
        return EmitConst(static_cast<const CharLitExpr*>(expr)->value, expr->loc);
      case ExprKind::kBoolLit:
        return EmitConst(static_cast<const BoolLitExpr*>(expr)->value ? 1 : 0, expr->loc);
      case ExprKind::kNullLit:
        return EmitConst(0, expr->loc);
      case ExprKind::kStrLit:
        return EmitConst(0, expr->loc);
      case ExprKind::kSizeof:
        return EmitConst(4, expr->loc);
      case ExprKind::kIdent: {
        const auto* ident = static_cast<const IdentExpr*>(expr);
        if (ident->func != nullptr) {
          Instruction inst;
          inst.op = Opcode::kAddrFunc;
          inst.callee = ident->func;
          inst.loc = ident->loc;
          return Append(std::move(inst), /*produces_value=*/true);
        }
        LValue lv = EmitLValue(expr);
        return EmitLoadLValue(lv, expr->loc);
      }
      case ExprKind::kMember:
      case ExprKind::kIndex: {
        LValue lv = EmitLValue(expr);
        return EmitLoadLValue(lv, expr->loc);
      }
      case ExprKind::kCast: {
        const auto* cast = static_cast<const CastExpr*>(expr);
        return EmitExpr(cast->operand);
      }
      case ExprKind::kBinary: {
        // && and || lower as strict binary operations (both sides evaluated);
        // uses are still recorded correctly, which is all liveness needs.
        const auto* bin = static_cast<const BinaryExpr*>(expr);
        ValueId lhs = EmitExpr(bin->lhs);
        ValueId rhs = EmitExpr(bin->rhs);
        Instruction inst;
        inst.op = Opcode::kBinOp;
        inst.operands = {lhs, rhs};
        inst.loc = bin->loc;
        return Append(std::move(inst), /*produces_value=*/true);
      }
      case ExprKind::kCond: {
        const auto* cond = static_cast<const CondExpr*>(expr);
        ValueId c = EmitExpr(cond->cond);
        ValueId t = EmitExpr(cond->then_expr);
        ValueId e = EmitExpr(cond->else_expr);
        Instruction inst;
        inst.op = Opcode::kBinOp;
        inst.operands = {c, t, e};
        inst.loc = cond->loc;
        return Append(std::move(inst), /*produces_value=*/true);
      }
      case ExprKind::kUnary:
        return EmitUnary(static_cast<const UnaryExpr*>(expr));
      case ExprKind::kAssign:
        return EmitAssign(static_cast<const AssignExpr*>(expr));
      case ExprKind::kCall:
        return EmitCall(static_cast<const CallExpr*>(expr), /*result_assigned=*/true);
    }
    return EmitConst(0, expr->loc);
  }

  ValueId EmitUnary(const UnaryExpr* unary) {
    switch (unary->op) {
      case TokenKind::kAmp: {
        const Expr* operand = StripCasts(unary->operand);
        if (operand != nullptr && operand->kind == ExprKind::kIdent) {
          const auto* ident = static_cast<const IdentExpr*>(operand);
          if (ident->func != nullptr) {
            Instruction inst;
            inst.op = Opcode::kAddrFunc;
            inst.callee = ident->func;
            inst.loc = unary->loc;
            return Append(std::move(inst), /*produces_value=*/true);
          }
        }
        LValue lv = EmitLValue(unary->operand);
        return LValueAddress(lv, unary->loc);
      }
      case TokenKind::kStar: {
        LValue lv = EmitLValue(unary);
        return EmitLoadLValue(lv, unary->loc);
      }
      case TokenKind::kPlusPlus:
      case TokenKind::kMinusMinus: {
        LValue lv = EmitLValue(unary->operand);
        ValueId old_value = EmitLoadLValue(lv, unary->loc);
        ValueId one = EmitConst(1, unary->loc);
        Instruction add;
        add.op = Opcode::kBinOp;
        add.operands = {old_value, one};
        add.loc = unary->loc;
        ValueId new_value = Append(std::move(add), /*produces_value=*/true);
        Instruction store;
        store.loc = unary->loc;
        store.is_increment = true;
        store.increment_amount = unary->op == TokenKind::kPlusPlus ? 1 : -1;
        EmitStoreLValue(lv, new_value, std::move(store));
        return unary->is_postfix ? old_value : new_value;
      }
      default: {
        ValueId operand = EmitExpr(unary->operand);
        Instruction inst;
        inst.op = Opcode::kUnOp;
        inst.operands.push_back(operand);
        inst.loc = unary->loc;
        return Append(std::move(inst), /*produces_value=*/true);
      }
    }
  }

  // Detects `lhs = lhs ± const` (possibly via compound assignment), the shape
  // the cursor pruning pattern looks for.
  static bool IsIncrementShape(const AssignExpr* assign, long long* amount) {
    const Expr* lhs = StripCasts(assign->lhs);
    if (lhs == nullptr || lhs->kind != ExprKind::kIdent) {
      return false;
    }
    const VarDecl* lhs_var = static_cast<const IdentExpr*>(lhs)->var;
    if (lhs_var == nullptr) {
      return false;
    }
    long long value = 0;
    if (assign->op == TokenKind::kPlusAssign && IsConstExpr(StripCasts(assign->rhs), &value)) {
      *amount = value;
      return true;
    }
    if (assign->op == TokenKind::kMinusAssign && IsConstExpr(StripCasts(assign->rhs), &value)) {
      *amount = -value;
      return true;
    }
    if (assign->op != TokenKind::kAssign) {
      return false;
    }
    const Expr* rhs = StripCasts(assign->rhs);
    if (rhs == nullptr || rhs->kind != ExprKind::kBinary) {
      return false;
    }
    const auto* bin = static_cast<const BinaryExpr*>(rhs);
    if (bin->op != TokenKind::kPlus && bin->op != TokenKind::kMinus) {
      return false;
    }
    const Expr* bin_lhs = StripCasts(bin->lhs);
    if (bin_lhs == nullptr || bin_lhs->kind != ExprKind::kIdent ||
        static_cast<const IdentExpr*>(bin_lhs)->var != lhs_var) {
      return false;
    }
    if (!IsConstExpr(StripCasts(bin->rhs), &value)) {
      return false;
    }
    *amount = bin->op == TokenKind::kPlus ? value : -value;
    return true;
  }

  ValueId EmitAssign(const AssignExpr* assign) {
    // Evaluate RHS first (C evaluation order is unspecified; RHS-first keeps
    // `x = x + 1` reading the old value).
    ValueId rhs;
    Instruction store;
    store.loc = assign->loc;

    const Expr* bare_rhs = StripCasts(assign->rhs);
    if (assign->op == TokenKind::kAssign) {
      rhs = EmitExpr(assign->rhs);
      if (bare_rhs != nullptr && bare_rhs->kind == ExprKind::kCall) {
        store.origin_callee = static_cast<const CallExpr*>(bare_rhs)->resolved;
      }
      long long const_value = 0;
      if (IsConstExpr(bare_rhs, &const_value)) {
        store.is_const_store = true;
        store.const_value = const_value;
      }
    } else {
      LValue lhs_lv = EmitLValue(assign->lhs);
      ValueId old_value = EmitLoadLValue(lhs_lv, assign->loc);
      ValueId rhs_value = EmitExpr(assign->rhs);
      Instruction bin;
      bin.op = Opcode::kBinOp;
      bin.operands = {old_value, rhs_value};
      bin.loc = assign->loc;
      rhs = Append(std::move(bin), /*produces_value=*/true);
    }

    long long amount = 0;
    if (IsIncrementShape(assign, &amount)) {
      store.is_increment = true;
      store.increment_amount = amount;
    }

    LValue lv = EmitLValue(assign->lhs);
    EmitStoreLValue(lv, rhs, std::move(store));
    return rhs;
  }

  ValueId EmitCall(const CallExpr* call, bool result_assigned) {
    Instruction inst;
    inst.op = Opcode::kCall;
    inst.loc = call->loc;
    inst.callee = call->resolved;
    if (call->resolved == nullptr) {
      // Indirect call: operand 0 is the callee value.
      inst.operands.push_back(EmitExpr(call->callee));
    }
    for (const Expr* arg : call->args) {
      inst.operands.push_back(EmitExpr(arg));
    }
    ValueId result = Append(std::move(inst), /*produces_value=*/true);

    CallSite site;
    site.callee = call->resolved;
    site.caller = func_.get();
    site.loc = call->loc;
    site.result_assigned = result_assigned;
    func_->call_sites.push_back(site);
    return result;
  }

  // --- Statements -----------------------------------------------------------

  void EmitStmt(const Stmt* stmt) {
    if (stmt == nullptr) {
      return;
    }
    switch (stmt->kind) {
      case StmtKind::kCompound:
        for (const Stmt* child : static_cast<const CompoundStmt*>(stmt)->body) {
          EmitStmt(child);
        }
        return;
      case StmtKind::kDecl: {
        const auto* decl = static_cast<const DeclStmt*>(stmt);
        EnsureSlots(decl->var);
        if (decl->init == nullptr) {
          return;
        }
        const Expr* bare_init = StripCasts(decl->init);
        ValueId value = EmitExpr(decl->init);
        Instruction store;
        store.loc = decl->loc;
        store.is_decl_init = true;
        if (bare_init != nullptr && bare_init->kind == ExprKind::kCall) {
          store.origin_callee = static_cast<const CallExpr*>(bare_init)->resolved;
        }
        long long const_value = 0;
        if (IsConstExpr(bare_init, &const_value)) {
          store.is_const_store = true;
          store.const_value = const_value;
        }
        LValue lv;
        lv.is_slot = true;
        lv.slot = func_->slots.ForVar(decl->var);
        EmitStoreLValue(lv, value, std::move(store));
        return;
      }
      case StmtKind::kExpr: {
        const Expr* expr = static_cast<const ExprStmt*>(stmt)->expr;
        if (expr != nullptr && expr->kind == ExprKind::kCall) {
          // Ignored call result: the paper's implicit definition
          // "[tmp] = printf()". Void callees produce no value to ignore.
          const auto* call = static_cast<const CallExpr*>(expr);
          bool returns_void = call->resolved != nullptr &&
                              call->resolved->return_type != nullptr &&
                              call->resolved->return_type->IsVoid();
          ValueId value = EmitCall(call, /*result_assigned=*/returns_void);
          if (!returns_void) {
            func_->call_sites.back().result_assigned = false;
            Instruction store;
            store.loc = call->loc;
            store.is_synthetic_store = true;
            store.origin_callee = call->resolved;
            LValue lv;
            lv.is_slot = true;
            lv.slot = func_->slots.NewSyntheticTemp();
            EmitStoreLValue(lv, value, std::move(store));
          }
          return;
        }
        EmitExpr(expr);
        return;
      }
      case StmtKind::kIf: {
        const auto* if_stmt = static_cast<const IfStmt*>(stmt);
        ValueId cond = EmitExpr(if_stmt->cond);
        BasicBlock* then_bb = func_->NewBlock();
        BasicBlock* merge_bb = func_->NewBlock();
        BasicBlock* else_bb = if_stmt->else_stmt != nullptr ? func_->NewBlock() : merge_bb;
        EmitCondBr(cond, then_bb, else_bb, if_stmt->loc);
        cur_ = then_bb;
        EmitStmt(if_stmt->then_stmt);
        EmitBr(merge_bb, if_stmt->loc);
        if (if_stmt->else_stmt != nullptr) {
          cur_ = else_bb;
          EmitStmt(if_stmt->else_stmt);
          EmitBr(merge_bb, if_stmt->loc);
        }
        cur_ = merge_bb;
        return;
      }
      case StmtKind::kWhile: {
        const auto* while_stmt = static_cast<const WhileStmt*>(stmt);
        BasicBlock* header = func_->NewBlock();
        EmitBr(header, while_stmt->loc);
        cur_ = header;
        ValueId cond = EmitExpr(while_stmt->cond);
        BasicBlock* body = func_->NewBlock();
        BasicBlock* exit = func_->NewBlock();
        EmitCondBr(cond, body, exit, while_stmt->loc);
        loops_.push_back({exit->id, header->id});
        cur_ = body;
        EmitStmt(while_stmt->body);
        EmitBr(header, while_stmt->loc);
        loops_.pop_back();
        cur_ = exit;
        return;
      }
      case StmtKind::kDoWhile: {
        const auto* do_stmt = static_cast<const DoWhileStmt*>(stmt);
        BasicBlock* body = func_->NewBlock();
        BasicBlock* cond_bb = func_->NewBlock();
        BasicBlock* exit = func_->NewBlock();
        EmitBr(body, do_stmt->loc);
        loops_.push_back({exit->id, cond_bb->id});
        cur_ = body;
        EmitStmt(do_stmt->body);
        EmitBr(cond_bb, do_stmt->loc);
        loops_.pop_back();
        cur_ = cond_bb;
        ValueId cond = EmitExpr(do_stmt->cond);
        EmitCondBr(cond, body, exit, do_stmt->loc);
        cur_ = exit;
        return;
      }
      case StmtKind::kSwitch: {
        const auto* switch_stmt = static_cast<const SwitchStmt*>(stmt);
        ValueId value = EmitExpr(switch_stmt->cond);
        BasicBlock* exit = func_->NewBlock();

        // One body block per arm, allocated up front so fallthrough edges can
        // point forward.
        std::vector<BasicBlock*> bodies;
        bodies.reserve(switch_stmt->cases.size());
        const SwitchCase* default_case = nullptr;
        size_t default_index = 0;
        for (size_t i = 0; i < switch_stmt->cases.size(); ++i) {
          bodies.push_back(func_->NewBlock());
          if (switch_stmt->cases[i].is_default) {
            default_case = &switch_stmt->cases[i];
            default_index = i;
          }
        }

        // Dispatch chain: compare against each case constant in order; the
        // final fallback is the default arm (wherever it appears) or exit.
        for (size_t i = 0; i < switch_stmt->cases.size(); ++i) {
          const SwitchCase& arm = switch_stmt->cases[i];
          if (arm.is_default) {
            continue;
          }
          ValueId constant = EmitConst(arm.value, arm.loc);
          Instruction cmp;
          cmp.op = Opcode::kBinOp;
          cmp.operands = {value, constant};
          cmp.loc = arm.loc;
          ValueId matched = Append(std::move(cmp), /*produces_value=*/true);
          BasicBlock* next_test = func_->NewBlock();
          EmitCondBr(matched, bodies[i], next_test, arm.loc);
          cur_ = next_test;
        }
        EmitBr(default_case != nullptr ? bodies[default_index] : exit, switch_stmt->loc);

        // Arm bodies with C fallthrough: an arm that does not break flows
        // into the next arm's body. `continue` still targets the enclosing
        // loop (kInvalidTarget when there is none).
        BlockId enclosing_continue = loops_.empty() ? -1 : loops_.back().continue_target;
        loops_.push_back({exit->id, enclosing_continue});
        for (size_t i = 0; i < switch_stmt->cases.size(); ++i) {
          cur_ = bodies[i];
          for (const Stmt* child : switch_stmt->cases[i].body) {
            EmitStmt(child);
          }
          EmitBr(i + 1 < bodies.size() ? bodies[i + 1] : exit, switch_stmt->loc);
        }
        loops_.pop_back();
        cur_ = exit;
        return;
      }
      case StmtKind::kFor: {
        const auto* for_stmt = static_cast<const ForStmt*>(stmt);
        EmitStmt(for_stmt->init);
        BasicBlock* header = func_->NewBlock();
        EmitBr(header, for_stmt->loc);
        cur_ = header;
        BasicBlock* body = func_->NewBlock();
        BasicBlock* step_bb = func_->NewBlock();
        BasicBlock* exit = func_->NewBlock();
        if (for_stmt->cond != nullptr) {
          ValueId cond = EmitExpr(for_stmt->cond);
          EmitCondBr(cond, body, exit, for_stmt->loc);
        } else {
          EmitBr(body, for_stmt->loc);
        }
        loops_.push_back({exit->id, step_bb->id});
        cur_ = body;
        EmitStmt(for_stmt->body);
        EmitBr(step_bb, for_stmt->loc);
        cur_ = step_bb;
        if (for_stmt->step != nullptr) {
          EmitExpr(for_stmt->step);
        }
        EmitBr(header, for_stmt->loc);
        loops_.pop_back();
        cur_ = exit;
        return;
      }
      case StmtKind::kReturn: {
        const auto* ret = static_cast<const ReturnStmt*>(stmt);
        Instruction inst;
        inst.op = Opcode::kRet;
        inst.loc = ret->loc;
        if (ret->value != nullptr) {
          inst.operands.push_back(EmitExpr(ret->value));
        }
        func_->return_locs.push_back(ret->loc);
        Append(std::move(inst));
        return;
      }
      case StmtKind::kBreak:
        if (!loops_.empty()) {
          Instruction inst;
          inst.op = Opcode::kBr;
          inst.succ0 = loops_.back().break_target;
          inst.loc = stmt->loc;
          Append(std::move(inst));
        }
        return;
      case StmtKind::kContinue:
        if (!loops_.empty() && loops_.back().continue_target >= 0) {
          Instruction inst;
          inst.op = Opcode::kBr;
          inst.succ0 = loops_.back().continue_target;
          inst.loc = stmt->loc;
          Append(std::move(inst));
        }
        return;
      case StmtKind::kEmpty:
        return;
    }
  }

  struct LoopContext {
    BlockId break_target;
    BlockId continue_target;
  };

  const FunctionDecl* decl_;
  std::unique_ptr<IrFunction> func_;
  BasicBlock* cur_ = nullptr;
  std::vector<LoopContext> loops_;
  size_t staged_blocks_ = 0;  // staged_insts entries this function used
};

}  // namespace

std::unique_ptr<IrFunction> LowerFunction(const FunctionDecl* func) {
  FunctionLowering lowering(func);
  return lowering.Run();
}

std::unique_ptr<IrModule> LowerUnit(const TranslationUnit& unit) {
  auto module = std::make_unique<IrModule>();
  module->file = unit.file;
  for (const FunctionDecl* func : unit.functions) {
    if (func->IsDefined()) {
      module->functions.push_back(LowerFunction(func));
    }
  }
  return module;
}

}  // namespace vc
