#include "src/pointer/value_flow.h"

namespace vc {

const std::vector<SlotAccess> ValueFlowGraph::kEmpty;

ValueFlowGraph::ValueFlowGraph(const IrFunction& func, const PointsTo& pts) {
  accesses_.resize(static_cast<size_t>(func.slots.size()));

  auto record = [this](SlotId slot, const Instruction& inst, BlockId block, int index,
                       bool is_def, bool indirect) {
    if (slot < 0 || slot >= static_cast<SlotId>(accesses_.size())) {
      return;
    }
    SlotAccess access;
    access.inst = &inst;
    access.block = block;
    access.index = index;
    access.is_def = is_def;
    access.is_indirect = indirect;
    accesses_[slot].push_back(access);
  };

  for (const auto& block : func.blocks) {
    for (size_t i = 0; i < block.insts.size(); ++i) {
      const Instruction& inst = block.insts[i];
      const int index = static_cast<int>(i);
      switch (inst.op) {
        case Opcode::kLoad:
          record(inst.slot, inst, block.id, index, /*is_def=*/false, /*indirect=*/false);
          break;
        case Opcode::kStore:
          record(inst.slot, inst, block.id, index, /*is_def=*/true, /*indirect=*/false);
          break;
        case Opcode::kLoadInd:
          for (SlotId pointee : pts.SlotsPointedBy(inst.operands[0])) {
            record(pointee, inst, block.id, index, /*is_def=*/false, /*indirect=*/true);
          }
          break;
        case Opcode::kStoreInd:
          for (SlotId pointee : pts.SlotsPointedBy(inst.operands[0])) {
            record(pointee, inst, block.id, index, /*is_def=*/true, /*indirect=*/true);
          }
          break;
        default:
          break;
      }
    }
  }
}

const std::vector<SlotAccess>& ValueFlowGraph::AccessesOf(SlotId slot) const {
  if (slot < 0 || slot >= static_cast<SlotId>(accesses_.size())) {
    return kEmpty;
  }
  return accesses_[slot];
}

int ValueFlowGraph::NumDefs(SlotId slot) const {
  int n = 0;
  for (const SlotAccess& access : AccessesOf(slot)) {
    n += access.is_def ? 1 : 0;
  }
  return n;
}

int ValueFlowGraph::NumUses(SlotId slot) const {
  int n = 0;
  for (const SlotAccess& access : AccessesOf(slot)) {
    n += access.is_def ? 0 : 1;
  }
  return n;
}

int ValueFlowGraph::NumIncrementDefs(SlotId slot, long long step) const {
  int n = 0;
  for (const SlotAccess& access : AccessesOf(slot)) {
    if (!access.is_def || access.is_indirect || !access.inst->is_increment) {
      continue;
    }
    if (step == 0 || access.inst->increment_amount() == step) {
      ++n;
    }
  }
  return n;
}

bool ValueFlowGraph::HasIndirectUse(SlotId slot) const {
  for (const SlotAccess& access : AccessesOf(slot)) {
    if (!access.is_def && access.is_indirect) {
      return true;
    }
  }
  return false;
}

}  // namespace vc
