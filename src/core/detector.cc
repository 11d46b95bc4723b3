#include "src/core/detector.h"

#include "src/checkers/driver.h"
#include "src/checkers/registry.h"
#include "src/dataflow/define_sets.h"
#include "src/dataflow/liveness.h"

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

std::vector<UnusedDefCandidate> DetectInFunctionWith(const Project& project, FileId file,
                                                     const IrFunction& func,
                                                     const LivenessResult& liveness,
                                                     const DefineSetResult& defines,
                                                     BudgetMeter* meter) {
  std::vector<UnusedDefCandidate> candidates;
  const std::string& path = project.sources().Path(file);

  auto make_candidate = [&](SlotId slot_id, SourceLoc loc) {
    UnusedDefCandidate cand;
    const Slot& slot = func.slots[slot_id];
    cand.function = func.name;
    cand.slot_name = slot.name;
    cand.file = path;
    cand.def_loc = loc;
    cand.ir_func = &func;
    cand.slot = slot_id;
    cand.var = slot.var;
    cand.is_synthetic = slot.is_synthetic;
    cand.is_field_slot = slot.IsFieldSlot();
    return cand;
  };

  // Replay every block from its out-state, checking stores against the live
  // set before applying their own transfer (the state "after" the store in
  // program order).
  for (const auto& block : func.blocks) {
    SlotSet live = liveness.live_out[block->id];
    DefineMap defs = defines.out[block->id];
    if (meter != nullptr) {
      meter->Charge(block->insts.size() + 1);
    }
    for (size_t j = block->insts.size(); j-- > 0;) {
      const Instruction& inst = block->insts[j];
      if (inst.op == Opcode::kStore) {
        const Slot& slot = func.slots[inst.slot];
        bool skip = false;
        if (slot.var != nullptr && slot.var->is_global) {
          skip = true;  // shared variables are out of scope (§3.1)
        }
        if (slot.is_synthetic && !inst.is_synthetic_store) {
          skip = true;  // lowering fallback temps are not real definitions
        }
        if (liveness.address_taken.Contains(inst.slot)) {
          skip = true;  // may be used through a pointer (checkAlias)
        }
        if (!skip && !live.Contains(inst.slot)) {
          UnusedDefCandidate cand = make_candidate(inst.slot, inst.loc);
          if (inst.origin_callee != nullptr) {
            cand.callee_name = inst.origin_callee->name;
          }
          cand.is_increment = inst.is_increment;
          cand.increment_amount = inst.increment_amount;
          if (const std::vector<SourceLoc>* overwriters = defs.Find(inst.slot)) {
            cand.overwritten = true;
            cand.overwriter_locs = *overwriters;
          }
          candidates.push_back(std::move(cand));
        }
      }
      ApplyLivenessTransfer(func, inst, live);
      ApplyDefineTransfer(func, inst, defs);
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
      if (const std::vector<SourceLoc>* overwriters = entry_defs.Find(param_slot)) {
        cand.overwritten = true;
        cand.overwriter_locs = *overwriters;
      }
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
