#include "src/checkers/out_param.h"

#include <map>
#include <set>

namespace vc {

std::vector<UnusedDefCandidate> OutParamChecker::Check(CheckerContext& ctx) const {
  const IrFunction& func = ctx.func();
  const LivenessResult& liveness = ctx.liveness();
  std::vector<UnusedDefCandidate> candidates;

  // Prepass: which value is the address of which slot, and how many times
  // each slot's address is taken. A slot whose address is taken more than
  // once may be read later through a saved pointer — out of the envelope.
  std::map<ValueId, SlotId> addr_of;
  std::map<SlotId, int> addr_count;
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block->insts) {
      if (inst.op == Opcode::kAddrSlot && inst.result != kNoValue) {
        addr_of[inst.result] = inst.slot;
        ++addr_count[inst.slot];
      }
    }
  }
  if (addr_of.empty()) {
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
  for (const auto& block : func.blocks) {
    if (ctx.meter() != nullptr) {
      ctx.meter()->Charge(block->insts.size() + 1);
    }
    SlotSet live = liveness.live_out[block->id];
    for (size_t j = block->insts.size(); j-- > 0;) {
      const Instruction& inst = block->insts[j];
      if (inst.op == Opcode::kCall && inst.callee != nullptr) {
        std::set<SlotId> out_args;
        for (ValueId v : inst.operands) {
          auto it = addr_of.find(v);
          if (it != addr_of.end()) {
            out_args.insert(it->second);
          }
        }
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
          cand.callee_name = inst.callee->name;
          cand.kind = CandidateKind::kOutParamUnused;
          candidates.push_back(std::move(cand));
        }
      }
      ApplyLivenessTransfer(func, inst, live);
    }
  }
  return candidates;
}

}  // namespace vc
