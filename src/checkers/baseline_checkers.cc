#include "src/checkers/baseline_checkers.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/ast/walk.h"
#include "src/core/detector.h"

namespace vc {

namespace {

// Coverity CHECKED_RETURN thresholds: a callee needs at least this many call
// sites, and at least this fraction must consume the result, before ignored
// results are reported.
constexpr int kMinCallSites = 2;
constexpr double kCheckedFraction = 0.8;

// Shared candidate skeleton for AST-level baseline findings.
UnusedDefCandidate BaselineFinding(CheckerContext& ctx, SourceLoc loc, std::string_view slot,
                                   const std::string& description) {
  UnusedDefCandidate cand;
  cand.function = ctx.func().name;
  cand.slot_name = slot;
  cand.file = ctx.project().sources().Path(loc.file);
  cand.def_loc = loc;
  cand.ir_func = &ctx.func();
  cand.note = description;
  return cand;
}

// Collects, per variable, whether it is ever read (referenced outside the
// target position of an assignment) and whether it is ever written.
struct VarUsage {
  bool read = false;
  bool written = false;
  bool addr_taken = false;
};

void ScanFunction(const FunctionDecl* func, std::map<const VarDecl*, VarUsage>& usage) {
  // Mark assignment targets as writes; everything else that mentions the
  // variable is a read. The walk visits assignment LHS subtrees too, so we
  // pre-collect the exact Expr nodes that are "pure store targets": a bare
  // identifier on the LHS of '='.
  std::set<const Expr*> store_targets;
  ForEachExpr(func->body, [&store_targets](const Expr* expr) {
    if (expr->kind == ExprKind::kAssign) {
      const auto* assign = static_cast<const AssignExpr*>(expr);
      if (assign->op == TokenKind::kAssign && assign->lhs != nullptr &&
          assign->lhs->kind == ExprKind::kIdent) {
        store_targets.insert(assign->lhs);
      }
    }
  });

  ForEachExpr(func->body, [&](const Expr* expr) {
    if (expr->kind == ExprKind::kIdent) {
      const auto* ident = static_cast<const IdentExpr*>(expr);
      if (ident->var == nullptr) {
        return;
      }
      if (store_targets.count(expr) > 0) {
        usage[ident->var].written = true;
      } else {
        usage[ident->var].read = true;
      }
    } else if (expr->kind == ExprKind::kUnary) {
      const auto* unary = static_cast<const UnaryExpr*>(expr);
      if (unary->op == TokenKind::kAmp && unary->operand != nullptr &&
          unary->operand->kind == ExprKind::kIdent) {
        const auto* ident = static_cast<const IdentExpr*>(unary->operand);
        if (ident->var != nullptr) {
          usage[ident->var].addr_taken = true;
        }
      }
    }
  });

  // Initializers count as writes.
  ForEachStmt(func->body, [&usage](const Stmt* stmt) {
    if (stmt->kind == StmtKind::kDecl) {
      const auto* decl = static_cast<const DeclStmt*>(stmt);
      if (decl->init != nullptr) {
        usage[decl->var].written = true;
      } else {
        usage.try_emplace(decl->var);  // declared, maybe never touched
      }
    }
  });
}

}  // namespace

// --- baseline-clang ---------------------------------------------------------

std::vector<UnusedDefCandidate> ClangUnusedChecker::Check(CheckerContext& ctx) const {
  std::vector<UnusedDefCandidate> result;
  const FunctionDecl* func = ctx.func().decl;
  if (func == nullptr || !func->IsDefined()) {
    return result;
  }
  std::map<const VarDecl*, VarUsage> usage;
  ScanFunction(func, usage);
  for (const auto& [var, info] : usage) {
    if (var->is_global || var->is_param || var->has_unused_attr) {
      continue;
    }
    if (info.read || info.addr_taken) {
      continue;  // referenced somewhere: not reported (flow-insensitive)
    }
    UnusedDefCandidate cand = BaselineFinding(
        ctx, var->loc, var->name,
        info.written ? "variable set but never used" : "unused variable");
    cand.var = var;
    result.push_back(std::move(cand));
  }
  // `usage` is in address order, which depends on where the arena put each
  // declaration; report in declaration order, the same at any job count.
  std::stable_sort(result.begin(), result.end(),
                   [](const UnusedDefCandidate& a, const UnusedDefCandidate& b) {
                     return a.def_loc < b.def_loc;
                   });
  return result;
}

// --- baseline-smatch --------------------------------------------------------

std::string SmatchUnusedChecker::Unsupported(const Project& project,
                                             const ProjectTraits& traits) const {
  (void)project;
  if (!traits.is_pure_c) {
    return "sparse parse error: C++ constructs not supported";
  }
  return "";
}

std::vector<UnusedDefCandidate> SmatchUnusedChecker::Check(CheckerContext& ctx) const {
  std::vector<UnusedDefCandidate> result;
  const FunctionDecl* func = ctx.func().decl;
  if (func == nullptr || !func->IsDefined()) {
    return result;
  }

  // Flow-insensitive read set (same notion as the AST-walk warnings: any
  // non-store reference counts, wherever it appears).
  std::set<const VarDecl*> read;
  std::set<const Expr*> store_targets;
  ForEachExpr(func->body, [&store_targets](const Expr* expr) {
    if (expr->kind == ExprKind::kAssign) {
      const auto* assign = static_cast<const AssignExpr*>(expr);
      if (assign->op == TokenKind::kAssign && assign->lhs != nullptr &&
          assign->lhs->kind == ExprKind::kIdent) {
        store_targets.insert(assign->lhs);
      }
    }
  });
  ForEachExpr(func->body, [&](const Expr* expr) {
    if (expr->kind == ExprKind::kIdent && store_targets.count(expr) == 0) {
      const auto* ident = static_cast<const IdentExpr*>(expr);
      if (ident->var != nullptr) {
        read.insert(ident->var);
      }
    }
  });

  auto report = [&](const VarDecl* var, SourceLoc loc, std::string_view slot) {
    UnusedDefCandidate cand = BaselineFinding(ctx, loc, slot, "return value is never used");
    cand.var = var;
    result.push_back(std::move(cand));
  };

  // Pattern 1: `v = call(...)` (or `type v = call(...)`) where v is never
  // referenced on a right-hand side anywhere in the function.
  ForEachStmt(func->body, [&](const Stmt* stmt) {
    if (stmt->kind == StmtKind::kDecl) {
      const auto* decl = static_cast<const DeclStmt*>(stmt);
      if (decl->init != nullptr && decl->init->kind == ExprKind::kCall &&
          read.count(decl->var) == 0 && !decl->var->has_unused_attr) {
        report(decl->var, decl->loc, decl->var->name);
      }
    } else if (stmt->kind == StmtKind::kExpr) {
      const auto* expr_stmt = static_cast<const ExprStmt*>(stmt);
      const Expr* expr = expr_stmt->expr;
      if (expr == nullptr) {
        return;
      }
      if (expr->kind == ExprKind::kAssign) {
        const auto* assign = static_cast<const AssignExpr*>(expr);
        if (assign->op == TokenKind::kAssign && assign->lhs != nullptr &&
            assign->lhs->kind == ExprKind::kIdent && assign->rhs != nullptr &&
            assign->rhs->kind == ExprKind::kCall) {
          const auto* ident = static_cast<const IdentExpr*>(assign->lhs);
          if (ident->var != nullptr && read.count(ident->var) == 0 &&
              !ident->var->has_unused_attr) {
            report(ident->var, assign->loc, ident->var->name);
          }
        }
      } else if (expr->kind == ExprKind::kCall) {
        // Pattern 2: bare ignored call to a project-internal non-void
        // function (the kernel-style "must check" heuristic; externs are
        // whitelisted as ignorable).
        const auto* call = static_cast<const CallExpr*>(expr);
        if (call->resolved != nullptr && !call->resolved->is_implicit &&
            call->resolved->return_type != nullptr && !call->resolved->return_type->IsVoid()) {
          const FunctionInfo* info = ctx.project().FindFunction(call->resolved->name);
          if (info != nullptr && info->InProject()) {
            report(nullptr, call->loc, call->resolved->name);
          }
        }
      }
    }
  });
  return result;
}

// --- baseline-infer ---------------------------------------------------------

std::string InferUnusedChecker::Unsupported(const Project& project,
                                            const ProjectTraits& traits) const {
  (void)project;
  if (traits.uses_kernel_extensions) {
    return "capture failed: unsupported compiler extensions";
  }
  return "";
}

std::vector<UnusedDefCandidate> InferUnusedChecker::Check(CheckerContext& ctx) const {
  std::vector<UnusedDefCandidate> result;
  // Same flow-sensitive liveness engine (shared through the context),
  // different envelope: infer's dead store reports explicit assignments to
  // whole local variables only.
  for (UnusedDefCandidate& cand : DetectInFunctionWith(ctx)) {
    if (cand.is_param || cand.is_synthetic || cand.is_field_slot) {
      continue;  // outside the Dead Store checker's scope
    }
    if (cand.var == nullptr || cand.var->has_unused_attr) {
      continue;  // attribute suppression works in infer
    }
    if (cand.var->is_param) {
      continue;  // stores to formals are not reported by the Dead Store check
    }
    // Sentinel-value whitelist: `int x = 0;`-style defensive initializers
    // are not flagged by the real tool.
    const Instruction* store = nullptr;
    for (const auto& block : cand.ir_func->blocks) {
      for (const Instruction& inst : block.insts) {
        if (inst.op == Opcode::kStore && inst.slot == cand.slot && inst.loc == cand.def_loc) {
          store = &inst;
        }
      }
    }
    if (store != nullptr && store->is_decl_init && store->is_const_store &&
        store->const_value() == 0) {
      continue;
    }
    cand.note = "dead store: value written is never read";
    // Reset the detector's classification inputs: the baseline has no
    // cross-scope notion of its own.
    cand.kind = CandidateKind::kPlainUnused;
    result.push_back(std::move(cand));
  }
  return result;
}

// --- baseline-coverity ------------------------------------------------------

std::vector<UnusedDefCandidate> CoverityUnusedChecker::Check(CheckerContext& ctx) const {
  std::vector<UnusedDefCandidate> result;
  const IrFunction& func = ctx.func();

  // --- UNUSED_VALUE: block-local dead-store scan. A store is flagged only
  // when a second store to the same slot follows in the same basic block with
  // no intervening read — the conservative, low-noise envelope of the
  // commercial checker. It will not chase a kill across branches, which is
  // why cross-block overwrites escape it while full liveness catches them.
  for (const auto& block : func.blocks) {
    std::map<SlotId, const Instruction*> pending;
    for (const Instruction& inst : block.insts) {
      switch (inst.op) {
        case Opcode::kLoad:
        case Opcode::kAddrSlot:
          pending.erase(inst.slot);
          break;
        case Opcode::kStore: {
          const Slot& slot = func.slots[inst.slot];
          auto it = pending.find(inst.slot);
          if (it != pending.end()) {
            const Instruction* dead = it->second;
            UnusedDefCandidate cand =
                BaselineFinding(ctx, dead->loc, slot.name, "UNUSED_VALUE: assigned value is not used");
            cand.var = slot.var;
            result.push_back(std::move(cand));
          }
          // Eligibility for being reported later: whole local variables only,
          // no formals, no cursor-shaped stores, no sentinel initializers,
          // no attribute-suppressed variables.
          bool eligible = !slot.is_synthetic && !slot.IsFieldSlot() && slot.var != nullptr &&
                          !slot.var->is_param && !slot.var->is_global &&
                          !slot.var->has_unused_attr && !inst.is_increment &&
                          !(inst.is_decl_init && inst.is_const_store && inst.const_value() == 0);
          if (eligible) {
            pending[inst.slot] = &inst;
          } else {
            pending.erase(inst.slot);
          }
          break;
        }
        default:
          break;
      }
    }
  }

  // --- CHECKED_RETURN: usage-ratio inference over call sites, re-keyed to
  // this function's ignored calls (the driver visits every function, so the
  // union over functions is the original whole-project scan). A site whose
  // assigned variable is itself a dead store still counts as "used" here —
  // the checker keys on the syntactic consumption, which is exactly why it
  // misses the paper's Fig. 8 bug. Findings come in callee-name order, then
  // call order, which fingerprint ordinals depend on.
  std::vector<const CallSite*> ignored;
  for (const CallSite& site : func.call_sites) {
    if (site.callee != nullptr && !site.result_assigned) {
      ignored.push_back(&site);
    }
  }
  std::stable_sort(ignored.begin(), ignored.end(), [](const CallSite* a, const CallSite* b) {
    return a->callee->name < b->callee->name;
  });
  const std::string_view* callee = nullptr;
  bool usually_checked = false;
  for (const CallSite* site : ignored) {
    if (callee == nullptr || *callee != site->callee->name) {
      callee = &site->callee->name;
      int total = 0;
      int used = 0;
      if (const FunctionInfo* info = ctx.project().FindFunction(*callee)) {
        total = static_cast<int>(info->call_sites.size());
        for (const CallSite& other : info->call_sites) {
          used += other.result_assigned ? 1 : 0;
        }
      }
      usually_checked = total >= kMinCallSites &&
                        static_cast<double>(used) >= kCheckedFraction * static_cast<double>(total);
    }
    if (usually_checked) {
      result.push_back(BaselineFinding(ctx, site->loc, site->callee->name,
                                       "CHECKED_RETURN: callers usually use the value"));
    }
  }
  return result;
}

}  // namespace vc
