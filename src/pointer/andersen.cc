#include "src/pointer/andersen.h"

#include <atomic>

namespace vc {

const std::set<SlotId> PointsTo::kEmptySlots;
const std::set<const FunctionDecl*> PointsTo::kEmptyFuncs;

namespace {

std::atomic<bool> g_force_nonconvergence{false};

}  // namespace

void PointsTo::ForceNonConvergenceForTest(bool on) {
  g_force_nonconvergence.store(on, std::memory_order_relaxed);
}

namespace {

// Merges src into dst; returns true on growth.
bool Merge(PointsTo* unused, std::set<SlotId>& dst, const std::set<SlotId>& src) {
  bool changed = false;
  for (SlotId s : src) {
    changed |= dst.insert(s).second;
  }
  return changed;
}

}  // namespace

PointsTo::PointsTo(const IrFunction& func, int max_iterations)
    : max_iterations_(max_iterations > 0 ? max_iterations : kDefaultPointerIterationLimit) {
  values_.resize(static_cast<size_t>(func.next_value));
  slots_.resize(static_cast<size_t>(func.slots.size()));
  // Pointer-typed formals hold caller memory we cannot see: unknown.
  for (SlotId param : func.param_slots) {
    const Slot& slot = func.slots[param];
    if (slot.var != nullptr && slot.var->type != nullptr && slot.var->type->IsPointer()) {
      slots_[param].unknown = true;
    }
  }
  Solve(func);
  if (capped_) {
    ApplyTop(func);
  }
  for (const NodeState& state : values_) {
    for (SlotId slot : state.slots) {
      pointee_slots_.insert(slot);
    }
  }
  for (const NodeState& state : slots_) {
    for (SlotId slot : state.slots) {
      pointee_slots_.insert(slot);
    }
  }
}

void PointsTo::Solve(const IrFunction& func) {
  // Iterate all constraints to a fix point. Functions are small (the project
  // is analyzed one function at a time), so the simple quadratic strategy is
  // more than fast enough and trivially correct.
  bool changed = true;
  while (changed) {
    if (iterations_ >= max_iterations_) {
      // Non-convergence (or the test hook): degrade to top instead of
      // spinning. The caller applies the fallback after Solve returns.
      capped_ = true;
      return;
    }
    changed = g_force_nonconvergence.load(std::memory_order_relaxed);
    ++iterations_;
    for (const auto& block : func.blocks) {
      for (const Instruction& inst : block.insts) {
        switch (inst.op) {
          case Opcode::kAddrSlot: {
            changed |= values_[inst.result].slots.insert(inst.slot).second;
            break;
          }
          case Opcode::kAddrFunc: {
            changed |= values_[inst.result].funcs.insert(inst.callee()).second;
            break;
          }
          case Opcode::kLoad: {
            // result ⊇ contents(slot)
            NodeState& dst = values_[inst.result];
            const NodeState& src = slots_[inst.slot];
            changed |= Merge(this, dst.slots, src.slots);
            for (const FunctionDecl* f : src.funcs) {
              changed |= dst.funcs.insert(f).second;
            }
            if (src.unknown && !dst.unknown) {
              dst.unknown = true;
              changed = true;
            }
            break;
          }
          case Opcode::kStore: {
            // contents(slot) ⊇ value
            if (inst.operands.empty()) {
              break;
            }
            NodeState& dst = slots_[inst.slot];
            const NodeState& src = values_[inst.operands[0]];
            changed |= Merge(this, dst.slots, src.slots);
            for (const FunctionDecl* f : src.funcs) {
              changed |= dst.funcs.insert(f).second;
            }
            if (src.unknown && !dst.unknown) {
              dst.unknown = true;
              changed = true;
            }
            break;
          }
          case Opcode::kLoadInd: {
            // result ⊇ contents(*ptr) for each pointee
            NodeState& dst = values_[inst.result];
            const NodeState& ptr = values_[inst.operands[0]];
            for (SlotId pointee : ptr.slots) {
              const NodeState& src = slots_[pointee];
              changed |= Merge(this, dst.slots, src.slots);
              for (const FunctionDecl* f : src.funcs) {
                changed |= dst.funcs.insert(f).second;
              }
              if (src.unknown && !dst.unknown) {
                dst.unknown = true;
                changed = true;
              }
            }
            if (ptr.unknown && !dst.unknown) {
              dst.unknown = true;
              changed = true;
            }
            break;
          }
          case Opcode::kStoreInd: {
            // contents(pointee) ⊇ value for each pointee (weak update)
            const NodeState& ptr = values_[inst.operands[0]];
            const NodeState& src = values_[inst.operands[1]];
            for (SlotId pointee : ptr.slots) {
              NodeState& dst = slots_[pointee];
              changed |= Merge(this, dst.slots, src.slots);
              for (const FunctionDecl* f : src.funcs) {
                changed |= dst.funcs.insert(f).second;
              }
              if (src.unknown && !dst.unknown) {
                dst.unknown = true;
                changed = true;
              }
            }
            break;
          }
          case Opcode::kFieldPtr: {
            // Field-sensitive: &(o->f) for each object o the base may point
            // to. When the base object is a whole struct-typed local whose
            // field slot exists, target it precisely; otherwise escape.
            NodeState& dst = values_[inst.result];
            const NodeState& base = values_[inst.operands[0]];
            for (SlotId obj : base.slots) {
              const Slot& slot = func.slots[obj];
              SlotId field_slot = kInvalidSlot;
              if (slot.var != nullptr && slot.field_index < 0 && inst.field_index >= 0) {
                field_slot = func.slots.Find(slot.var, inst.field_index);
              }
              if (field_slot != kInvalidSlot) {
                changed |= dst.slots.insert(field_slot).second;
              } else if (!dst.unknown) {
                dst.unknown = true;
                changed = true;
              }
            }
            if (base.unknown && !dst.unknown) {
              dst.unknown = true;
              changed = true;
            }
            break;
          }
          case Opcode::kBinOp:
          case Opcode::kUnOp: {
            // Pointer arithmetic and selects preserve the pointee set.
            NodeState& dst = values_[inst.result];
            for (ValueId operand : inst.operands) {
              const NodeState& src = values_[operand];
              changed |= Merge(this, dst.slots, src.slots);
              for (const FunctionDecl* f : src.funcs) {
                changed |= dst.funcs.insert(f).second;
              }
              if (src.unknown && !dst.unknown) {
                dst.unknown = true;
                changed = true;
              }
            }
            break;
          }
          case Opcode::kCall: {
            // Call results may point anywhere we do not model.
            if (inst.result != kNoValue && !values_[inst.result].unknown) {
              values_[inst.result].unknown = true;
              changed = true;
            }
            break;
          }
          default:
            break;
        }
      }
    }
  }
}

void PointsTo::ApplyTop(const IrFunction& func) {
  // Sound over-approximation for a solver that did not converge: every value
  // and slot may point anywhere, and every slot may be aliased. Downstream
  // consumers treat "unknown"/"pointee" conservatively (suppress candidates,
  // keep indirect edges), so top loses precision, never soundness.
  for (NodeState& state : values_) {
    state.unknown = true;
  }
  for (NodeState& state : slots_) {
    state.unknown = true;
  }
  for (SlotId slot = 0; slot < static_cast<SlotId>(func.slots.size()); ++slot) {
    pointee_slots_.insert(slot);
  }
}

const std::set<SlotId>& PointsTo::SlotsPointedBy(ValueId value) const {
  if (value < 0 || value >= static_cast<ValueId>(values_.size())) {
    return kEmptySlots;
  }
  return values_[value].slots;
}

const std::set<const FunctionDecl*>& PointsTo::FunctionsPointedBy(ValueId value) const {
  if (value < 0 || value >= static_cast<ValueId>(values_.size())) {
    return kEmptyFuncs;
  }
  return values_[value].funcs;
}

bool PointsTo::PointsToUnknown(ValueId value) const {
  if (value < 0 || value >= static_cast<ValueId>(values_.size())) {
    return true;
  }
  return values_[value].unknown;
}

bool PointsTo::SlotIsPointee(SlotId slot) const { return pointee_slots_.count(slot) > 0; }

}  // namespace vc
