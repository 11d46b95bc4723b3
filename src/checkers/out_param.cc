#include "src/checkers/out_param.h"

#include <algorithm>
#include <vector>

namespace vc {

std::vector<UnusedDefCandidate> OutParamChecker::Check(CheckerContext& ctx) const {
  const IrFunction& func = ctx.func();
  const LivenessResult& liveness = ctx.liveness();
  const SlotEvents& events = ctx.events();
  std::vector<UnusedDefCandidate> candidates;

  // Prepass over the address-of events: which value is the address of which
  // slot, and how many times each slot's address is taken. A slot whose
  // address is taken more than once may be read later through a saved
  // pointer — out of the envelope. Flat by value and by slot, reused across
  // the thread's functions.
  thread_local std::vector<SlotId> addr_of;
  thread_local std::vector<int> addr_count;
  thread_local std::vector<SlotId> out_args;
  bool any_addr = false;
  for (const auto& block : func.blocks) {
    for (const SlotEvent& event : events.Block(block.id)) {
      const Instruction& inst = block.insts[event.inst];
      if (event.op != Opcode::kAddrSlot || inst.result == kNoValue) {
        continue;
      }
      if (!any_addr) {
        addr_of.assign(func.next_value, kInvalidSlot);
        addr_count.assign(func.slots.size(), 0);
        any_addr = true;
      }
      addr_of[inst.result] = event.slot;
      ++addr_count[event.slot];
    }
  }
  if (!any_addr) {
    return candidates;
  }

  auto eligible = [&](SlotId id) {
    const Slot& slot = func.slots[id];
    return slot.var != nullptr && !slot.var->is_global && !slot.is_synthetic &&
           !slot.IsFieldSlot() && addr_count[id] == 1;
  };

  // Backward replay from each block's live-out: at a direct call taking
  // &slot, the live set holds exactly the slots read on some path after the
  // call. Not live there means the callee's write is never consumed.
  SlotSet& live = ctx.replay_live();
  for (const auto& block : func.blocks) {
    if (ctx.meter() != nullptr) {
      ctx.meter()->Charge(block.insts.size() + 1);
    }
    live = liveness.live_out[block.id];
    for (size_t j = block.insts.size(); j-- > 0;) {
      const Instruction& inst = block.insts[j];
      if (inst.op == Opcode::kCall && inst.callee() != nullptr) {
        // The distinct slots whose address the call takes, in slot order.
        out_args.clear();
        for (ValueId v : inst.operands) {
          if (addr_of[v] != kInvalidSlot) {
            out_args.push_back(addr_of[v]);
          }
        }
        std::sort(out_args.begin(), out_args.end());
        out_args.erase(std::unique(out_args.begin(), out_args.end()), out_args.end());
        for (SlotId x : out_args) {
          if (!eligible(x) || live.Contains(x)) {
            continue;
          }
          const Slot& slot = func.slots[x];
          UnusedDefCandidate cand;
          cand.function = func.name;
          cand.slot_name = slot.name;
          cand.file = ctx.path();
          cand.def_loc = inst.loc;
          cand.ir_func = &func;
          cand.slot = x;
          cand.var = slot.var;
          cand.callee_name = inst.callee()->name;
          cand.kind = CandidateKind::kOutParamUnused;
          candidates.push_back(std::move(cand));
        }
      }
      ApplyLivenessTransfer(events, inst.op, inst.slot, live);
    }
  }
  return candidates;
}

}  // namespace vc
