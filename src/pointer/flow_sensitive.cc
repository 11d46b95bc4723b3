#include "src/pointer/flow_sensitive.h"

namespace vc {

const std::set<SlotId> FlowSensitivePointsTo::kEmptySlots;
const std::set<const FunctionDecl*> FlowSensitivePointsTo::kEmptyFuncs;

bool FlowSensitivePointsTo::NodeState::MergeFrom(const NodeState& other) {
  bool changed = false;
  for (SlotId slot : other.slots) {
    changed |= slots.insert(slot).second;
  }
  for (const FunctionDecl* func : other.funcs) {
    changed |= funcs.insert(func).second;
  }
  if (other.unknown && !unknown) {
    unknown = true;
    changed = true;
  }
  return changed;
}

bool FlowSensitivePointsTo::MergeMap(SlotMap& into, const SlotMap& from) {
  bool changed = false;
  for (const auto& [slot, state] : from) {
    changed |= into[slot].MergeFrom(state);
  }
  return changed;
}

FlowSensitivePointsTo::FlowSensitivePointsTo(const IrFunction& func) {
  values_.resize(static_cast<size_t>(func.next_value));
  block_in_.resize(func.blocks.size());
  // Pointer-typed formals hold caller memory we cannot see: unknown.
  if (!func.blocks.empty()) {
    for (SlotId param : func.param_slots) {
      const Slot& slot = func.slots[param];
      if (slot.var != nullptr && slot.var->type != nullptr && slot.var->type->IsPointer()) {
        block_in_[0][param].unknown = true;
      }
    }
  }
  Solve(func);
  for (const NodeState& state : values_) {
    pointee_slots_.insert(state.slots.begin(), state.slots.end());
  }
  for (const SlotMap& map : block_in_) {
    for (const auto& [slot, state] : map) {
      pointee_slots_.insert(state.slots.begin(), state.slots.end());
    }
  }
}

void FlowSensitivePointsTo::Transfer(const IrFunction& func, const Instruction& inst,
                                     SlotMap& state, bool record_values) {
  auto value_state = [&](ValueId value) -> NodeState& { return values_[value]; };
  auto set_value = [&](ValueId value, NodeState node) {
    if (record_values) {
      values_[value].MergeFrom(node);
    } else {
      // During fix-point iteration still accumulate; values are block-local,
      // so their final state comes from the last visit with the converged
      // in-state — accumulation is sound and converges.
      values_[value].MergeFrom(node);
    }
  };

  switch (inst.op) {
    case Opcode::kAddrSlot: {
      NodeState node;
      node.slots.insert(inst.slot);
      set_value(inst.result, node);
      break;
    }
    case Opcode::kAddrFunc: {
      NodeState node;
      node.funcs.insert(inst.callee());
      set_value(inst.result, node);
      break;
    }
    case Opcode::kLoad: {
      auto it = state.find(inst.slot);
      if (it != state.end()) {
        set_value(inst.result, it->second);
      }
      break;
    }
    case Opcode::kStore: {
      if (inst.operands.empty()) {
        break;
      }
      // Strong update: the slot now holds exactly what the value points to.
      state[inst.slot] = value_state(inst.operands[0]);
      break;
    }
    case Opcode::kLoadInd: {
      const NodeState& ptr = value_state(inst.operands[0]);
      NodeState merged;
      for (SlotId pointee : ptr.slots) {
        auto it = state.find(pointee);
        if (it != state.end()) {
          merged.MergeFrom(it->second);
        }
      }
      merged.unknown |= ptr.unknown;
      set_value(inst.result, merged);
      break;
    }
    case Opcode::kStoreInd: {
      const NodeState& ptr = value_state(inst.operands[0]);
      const NodeState& src = value_state(inst.operands[1]);
      if (ptr.slots.size() == 1 && !ptr.unknown) {
        // Unique pointee: strong update is safe.
        state[*ptr.slots.begin()] = src;
      } else {
        for (SlotId pointee : ptr.slots) {
          state[pointee].MergeFrom(src);
        }
      }
      break;
    }
    case Opcode::kFieldPtr: {
      const NodeState& base = value_state(inst.operands[0]);
      NodeState node;
      for (SlotId obj : base.slots) {
        const Slot& slot = func.slots[obj];
        SlotId field_slot = kInvalidSlot;
        if (slot.var != nullptr && slot.field_index < 0 && inst.field_index >= 0) {
          field_slot = func.slots.Find(slot.var, inst.field_index);
        }
        if (field_slot != kInvalidSlot) {
          node.slots.insert(field_slot);
        } else {
          node.unknown = true;
        }
      }
      node.unknown |= base.unknown;
      set_value(inst.result, node);
      break;
    }
    case Opcode::kBinOp:
    case Opcode::kUnOp: {
      NodeState node;
      for (ValueId operand : inst.operands) {
        node.MergeFrom(value_state(operand));
      }
      set_value(inst.result, node);
      break;
    }
    case Opcode::kCall: {
      if (inst.result != kNoValue) {
        NodeState node;
        node.unknown = true;
        set_value(inst.result, node);
      }
      break;
    }
    default:
      break;
  }
}

void FlowSensitivePointsTo::Solve(const IrFunction& func) {
  // Forward fix point over monotonically growing in/out maps. The transfer is
  // monotone (strong updates replace with value states, which themselves only
  // grow), so merging out-states converges.
  std::vector<SlotMap> block_out(func.blocks.size());
  bool changed = true;
  while (changed) {
    changed = false;
    ++iterations_;
    for (const auto& block : func.blocks) {
      SlotMap in;
      for (BlockId pred : block.preds) {
        MergeMap(in, block_out[pred]);
      }
      changed |= MergeMap(block_in_[block.id], in);
      SlotMap out = block_in_[block.id];
      for (const Instruction& inst : block.insts) {
        Transfer(func, inst, out, /*record_values=*/false);
      }
      changed |= MergeMap(block_out[block.id], out);
    }
  }

  // Final pass: record value states from converged block in-states.
  for (const auto& block : func.blocks) {
    SlotMap state = block_in_[block.id];
    for (const Instruction& inst : block.insts) {
      Transfer(func, inst, state, /*record_values=*/true);
    }
  }
}

const std::set<SlotId>& FlowSensitivePointsTo::SlotsPointedBy(ValueId value) const {
  if (value < 0 || value >= static_cast<ValueId>(values_.size())) {
    return kEmptySlots;
  }
  return values_[value].slots;
}

const std::set<const FunctionDecl*>& FlowSensitivePointsTo::FunctionsPointedBy(
    ValueId value) const {
  if (value < 0 || value >= static_cast<ValueId>(values_.size())) {
    return kEmptyFuncs;
  }
  return values_[value].funcs;
}

bool FlowSensitivePointsTo::PointsToUnknown(ValueId value) const {
  if (value < 0 || value >= static_cast<ValueId>(values_.size())) {
    return true;
  }
  return values_[value].unknown;
}

bool FlowSensitivePointsTo::SlotIsPointee(SlotId slot) const {
  return pointee_slots_.count(slot) > 0;
}

size_t FlowSensitivePointsTo::TotalPointsToSize() const {
  size_t total = 0;
  for (const NodeState& state : values_) {
    total += state.slots.size() + (state.unknown ? 1 : 0);
  }
  return total;
}

}  // namespace vc
