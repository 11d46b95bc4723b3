#include "src/checkers/dead_global_store.h"

#include <vector>

namespace vc {

std::vector<UnusedDefCandidate> DeadGlobalStoreChecker::Check(CheckerContext& ctx) const {
  const IrFunction& func = ctx.func();
  std::vector<UnusedDefCandidate> candidates;

  auto eligible = [&](SlotId id) {
    const Slot& slot = func.slots[id];
    return slot.var != nullptr && slot.var->is_global && !slot.is_synthetic &&
           !slot.IsFieldSlot();
  };

  // Pending global stores: written in this block, not yet observable. Flat
  // by slot and reused across the thread's functions; `pending_slots` lists
  // the slots set since the last clear.
  thread_local std::vector<const Instruction*> pending;
  thread_local std::vector<SlotId> pending_slots;
  pending.assign(func.slots.size(), nullptr);
  pending_slots.clear();
  auto clear_pending = [&] {
    for (SlotId slot : pending_slots) {
      pending[slot] = nullptr;
    }
    pending_slots.clear();
  };

  for (const auto& block : func.blocks) {
    if (ctx.meter() != nullptr) {
      ctx.meter()->Charge(block.insts.size() + 1);
    }
    clear_pending();
    for (const Instruction& inst : block.insts) {
      switch (inst.op) {
        case Opcode::kLoad:
        case Opcode::kAddrSlot:
          pending[inst.slot] = nullptr;
          break;
        case Opcode::kCall:
        case Opcode::kLoadInd:
        case Opcode::kStoreInd:
          // A call (or indirect memory op) may read any global.
          clear_pending();
          break;
        case Opcode::kStore: {
          if (!eligible(inst.slot)) {
            pending[inst.slot] = nullptr;
            break;
          }
          const Instruction* dead = pending[inst.slot];
          if (dead != nullptr && !(dead->loc == inst.loc)) {
            const Slot& slot = func.slots[inst.slot];
            UnusedDefCandidate cand;
            cand.function = func.name;
            cand.slot_name = slot.name;
            cand.file = ctx.path();
            cand.def_loc = dead->loc;
            cand.ir_func = &func;
            cand.slot = inst.slot;
            cand.var = slot.var;
            cand.overwritten = true;
            cand.overwriter_locs.push_back(inst.loc);
            cand.kind = CandidateKind::kDeadGlobalStore;
            candidates.push_back(std::move(cand));
          }
          if (dead == nullptr) {
            pending_slots.push_back(inst.slot);
          }
          pending[inst.slot] = &inst;
          break;
        }
        default:
          break;
      }
    }
    // Stores still pending at the block's end survive to a point another
    // function could observe — not dead, not reported.
  }
  return candidates;
}

}  // namespace vc
