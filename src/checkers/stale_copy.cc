#include "src/checkers/stale_copy.h"

#include <vector>

namespace vc {

namespace {

struct CopyInfo {
  SlotId src = kInvalidSlot;  // kInvalidSlot: the slot holds no tracked copy
  SourceLoc copy_loc;
  bool stale = false;
  SourceLoc mod_loc;
  bool listed = false;  // in Scan::listed
};

// The scan's flat state, reused across the thread's functions.
struct Scan {
  SlotSet eligible;
  std::vector<CopyInfo> copies;  // by copy slot
  std::vector<SlotId> listed;    // slots whose copies[] entry this block set
  // By value: the slot it was loaded from, valid while loaded_in holds the
  // current block's stamp.
  std::vector<SlotId> loaded_from;
  std::vector<uint32_t> loaded_in;
};

}  // namespace

std::vector<UnusedDefCandidate> StaleCopyChecker::Check(CheckerContext& ctx) const {
  const IrFunction& func = ctx.func();
  const SlotSet& address_taken = ctx.address_taken();
  const SlotEvents& events = ctx.events();
  std::vector<UnusedDefCandidate> candidates;

  thread_local Scan scan;
  scan.eligible.Reset(func.slots.size());
  for (SlotId id = 0; id < func.slots.size(); ++id) {
    const Slot& slot = func.slots[id];
    if (slot.var != nullptr && !slot.var->is_global && !slot.is_synthetic &&
        !slot.IsFieldSlot() && !address_taken.Contains(id)) {
      scan.eligible.Add(id);
    }
  }
  scan.copies.assign(func.slots.size(), CopyInfo());
  scan.listed.clear();
  scan.loaded_from.resize(func.next_value);
  scan.loaded_in.assign(func.next_value, 0);

  for (const auto& block : func.blocks) {
    if (ctx.meter() != nullptr) {
      ctx.meter()->Charge(block->insts.size() + 1);
    }
    const uint32_t stamp = static_cast<uint32_t>(block->id) + 1;
    for (SlotId slot : scan.listed) {  // the copies are per block
      scan.copies[slot] = CopyInfo();
    }
    scan.listed.clear();
    // Address-of events need nothing: eligibility already excludes
    // address-taken slots function-wide.
    for (const SlotEvent& event : events.Block(block->id)) {
      const Instruction& inst = block->insts[event.inst];
      if (event.op == Opcode::kLoad) {
        CopyInfo& copy = scan.copies[event.slot];
        if (copy.src != kInvalidSlot && copy.stale) {
          const Slot& slot = func.slots[event.slot];
          UnusedDefCandidate cand;
          cand.function = func.name;
          cand.slot_name = slot.name;
          cand.file = ctx.path();
          cand.def_loc = copy.copy_loc;
          cand.ir_func = &func;
          cand.slot = event.slot;
          cand.var = slot.var;
          cand.overwritten = true;
          cand.overwriter_locs.push_back(copy.mod_loc);
          cand.kind = CandidateKind::kStaleCopy;
          candidates.push_back(std::move(cand));
          copy.src = kInvalidSlot;  // one report per copy
        }
        if (inst.result != kNoValue && scan.eligible.Contains(event.slot)) {
          scan.loaded_from[inst.result] = event.slot;
          scan.loaded_in[inst.result] = stamp;
        }
      } else if (event.op == Opcode::kStore) {
        // A store to the source invalidates its copies — unless it is the
        // cursor/post-increment idiom (`old = x; x++;` snapshots x on
        // purpose), which drops the pair instead of flagging it.
        for (SlotId copy_slot : scan.listed) {
          CopyInfo& copy = scan.copies[copy_slot];
          if (copy.src != event.slot) {
            continue;
          }
          if (inst.is_increment) {
            copy.src = kInvalidSlot;
          } else {
            copy.stale = true;
            copy.mod_loc = inst.loc;
          }
        }
        scan.copies[event.slot].src = kInvalidSlot;  // the copy itself was rewritten
        if (scan.eligible.Contains(event.slot) && !inst.is_increment && !inst.operands.empty()) {
          const ValueId value = inst.operands[0];
          if (scan.loaded_in[value] == stamp && scan.loaded_from[value] != event.slot) {
            CopyInfo& copy = scan.copies[event.slot];
            copy = CopyInfo{scan.loaded_from[value], inst.loc, false, SourceLoc(), copy.listed};
            if (!copy.listed) {
              copy.listed = true;
              scan.listed.push_back(event.slot);
            }
          }
        }
      }
    }
  }
  return candidates;
}

}  // namespace vc
