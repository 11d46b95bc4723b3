#include "src/core/detector.h"

#include "src/checkers/driver.h"
#include "src/checkers/registry.h"

namespace vc {

namespace {

const char* kKindNames[] = {"overwritten-def",  "unused-retval",    "unused-param",
                            "overwritten-param", "plain-unused",    "double-overwrite",
                            "dead-global-store", "out-param-unused", "stale-copy"};
const char* kPruneNames[] = {"none", "config-dependency", "cursor", "unused-hint",
                             "peer-definition", "stale-code"};

}  // namespace

const char* CandidateKindName(CandidateKind kind) {
  return kKindNames[static_cast<int>(kind)];
}

const char* PruneReasonName(PruneReason reason) { return kPruneNames[static_cast<int>(reason)]; }

std::vector<UnusedDefCandidate> DetectInFunctionWith(CheckerContext& ctx) {
  const LivenessResult& liveness = ctx.liveness();
  const DefineSetResult& defines = ctx.defines();
  const SlotEvents& events = ctx.events();
  const IrFunction& func = ctx.func();
  BudgetMeter* meter = ctx.meter();
  std::vector<UnusedDefCandidate> candidates;

  auto make_candidate = [&](SlotId slot_id, SourceLoc loc) {
    UnusedDefCandidate cand;
    const Slot& slot = func.slots[slot_id];
    cand.function = func.name;
    cand.slot_name = slot.name;
    cand.file = ctx.path();
    cand.def_loc = loc;
    cand.ir_func = &func;
    cand.slot = slot_id;
    cand.var = slot.var;
    cand.is_synthetic = slot.is_synthetic;
    cand.is_field_slot = slot.IsFieldSlot();
    return cand;
  };

  // Replay every block's slot events from its out-state, checking stores
  // against the live set before applying their own transfer (the state
  // "after" the store in program order).
  SlotSet& live = ctx.replay_live();
  DefineMap& defs = ctx.replay_defines();
  for (const auto& block : func.blocks) {
    live = liveness.live_out[block->id];
    defs = defines.out[block->id];
    if (meter != nullptr) {
      meter->Charge(block->insts.size() + 1);
    }
    const std::span<const SlotEvent> block_events = events.Block(block->id);
    for (size_t k = block_events.size(); k-- > 0;) {
      const SlotEvent& event = block_events[k];
      if (event.op == Opcode::kStore && !live.Contains(event.slot) &&
          !liveness.address_taken.Contains(event.slot)) {  // else: may be used through a pointer
        const Instruction& inst = block->insts[event.inst];
        const Slot& slot = func.slots[event.slot];
        const bool global = slot.var != nullptr && slot.var->is_global;  // out of scope (§3.1)
        // Lowering fallback temps are not real definitions.
        const bool fallback_temp = slot.is_synthetic && !inst.is_synthetic_store;
        if (!global && !fallback_temp) {
          UnusedDefCandidate cand = make_candidate(event.slot, inst.loc);
          if (inst.origin_callee != nullptr) {
            cand.callee_name = inst.origin_callee->name;
          }
          cand.is_increment = inst.is_increment;
          cand.increment_amount = inst.increment_amount;
          cand.overwriter_locs = defs.Find(events, event.slot);
          cand.overwritten = !cand.overwriter_locs.empty();
          candidates.push_back(std::move(cand));
        }
      }
      ApplyLivenessTransfer(events, event.op, event.slot, live);
      if (event.op == Opcode::kStore) {
        defs.Replace(events, event.slot, event.store);
      }
    }
  }

  // Unused parameters: not live at function entry means the argument value is
  // never read (an implicit unused definition at the call boundary).
  if (func.Entry() != nullptr) {
    const SlotSet& entry_live = liveness.live_in[func.Entry()->id];
    const DefineMap& entry_defs = defines.in[func.Entry()->id];
    for (SlotId param_slot : func.param_slots) {
      if (entry_live.Contains(param_slot) || liveness.address_taken.Contains(param_slot)) {
        continue;
      }
      const Slot& slot = func.slots[param_slot];
      UnusedDefCandidate cand = make_candidate(param_slot, slot.var->loc);
      cand.is_param = true;
      cand.overwriter_locs = entry_defs.Find(events, param_slot);
      cand.overwritten = !cand.overwriter_locs.empty();
      candidates.push_back(std::move(cand));
    }
  }

  return candidates;
}

std::vector<UnusedDefCandidate> DetectAll(const Project& project, int jobs,
                                          const ResourceBudget* budget,
                                          const FaultInjector* fault,
                                          std::vector<QuarantinedUnit>* quarantined) {
  // One code path for detection: the unused-def checker through the checker
  // driver (src/checkers/driver.cc), which owns the parallel per-function
  // loop, the deterministic slot-indexed merge, and the isolation boundary.
  std::vector<const Checker*> checkers = {CheckerRegistry::Global().Find("unused-def")};
  CheckerRunResult result = RunCheckers(project, checkers, ProjectTraits(), jobs, budget, fault,
                                        /*isolate=*/quarantined != nullptr);
  if (quarantined != nullptr) {
    for (QuarantinedUnit& unit : result.quarantined) {
      quarantined->push_back(std::move(unit));
    }
  }
  return std::move(result.candidates);
}

}  // namespace vc
