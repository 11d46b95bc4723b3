#include "src/checkers/double_overwrite.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

namespace vc {

namespace {

// Must-analysis state: per slot, the one store location that is pending
// (written, not yet read) on every path reaching this point.
using PendingMap = std::map<SlotId, SourceLoc>;

// in = intersection of the pending maps (same slot, same store).
void IntersectInto(PendingMap& into, const PendingMap& other) {
  for (auto it = into.begin(); it != into.end();) {
    auto found = other.find(it->first);
    if (found == other.end() || !(found->second == it->second)) {
      it = into.erase(it);
    } else {
      ++it;
    }
  }
}

// Charges `meter` what the fix point below charges when nothing can ever be
// pending: every out-state stays empty, so a sweep changes something only
// where a block first gets one, which it does once a pred has one or when
// it has no preds.
void ChargeEmptySweeps(const IrFunction& func, BudgetMeter& meter) {
  SlotSet has_out(static_cast<int>(func.blocks.size()));
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& block : func.blocks) {
      meter.Charge(block.insts.size() + 1);
      bool seeded = block.preds.empty();
      for (BlockId pred : block.preds) {
        seeded |= has_out.Contains(pred);
      }
      if (seeded && !has_out.Contains(block.id)) {
        has_out.Add(block.id);
        changed = true;
      }
    }
  }
}

}  // namespace

std::vector<UnusedDefCandidate> DoubleOverwriteChecker::Check(CheckerContext& ctx) const {
  const IrFunction& func = ctx.func();
  const SlotSet& address_taken = ctx.address_taken();

  // Only address-taken slots: everything else is already covered (better) by
  // the unused-def checker, and disjoint envelopes keep the two checkers'
  // findings from double-reporting one dead store.
  auto eligible = [&](SlotId id) {
    const Slot& slot = func.slots[id];
    return address_taken.Contains(id) && slot.var != nullptr && !slot.var->is_global &&
           !slot.is_synthetic && !slot.IsFieldSlot();
  };
  // A function that takes no local's address can report nothing; it still
  // pays the meter what the sweeps would have charged.
  bool any_eligible = false;
  for (SlotId id = 0; id < func.slots.size() && !any_eligible; ++id) {
    any_eligible = eligible(id);
  }
  if (!any_eligible) {
    if (ctx.meter() != nullptr) {
      ChargeEmptySweeps(func, *ctx.meter());
    }
    return {};
  }

  // One forward transfer of `inst` over `pending`; when `report` is non-null,
  // records (killed store, overwriter) pairs.
  auto transfer = [&](const Instruction& inst, PendingMap& pending,
                      std::vector<std::pair<SourceLoc, SourceLoc>>* report) {
    switch (inst.op) {
      case Opcode::kLoad:
        pending.erase(inst.slot);
        break;
      case Opcode::kAddrSlot:
        // The address flows somewhere; any later use could read the slot.
        pending.erase(inst.slot);
        break;
      case Opcode::kCall:
      case Opcode::kLoadInd:
      case Opcode::kStoreInd:
        // May read any slot whose address escaped.
        for (auto it = pending.begin(); it != pending.end();) {
          if (address_taken.Contains(it->first)) {
            it = pending.erase(it);
          } else {
            ++it;
          }
        }
        break;
      case Opcode::kStore: {
        if (!eligible(inst.slot)) {
          pending.erase(inst.slot);
          break;
        }
        auto it = pending.find(inst.slot);
        if (it != pending.end() && report != nullptr && !(it->second == inst.loc)) {
          report->push_back({it->second, inst.loc});
        }
        pending[inst.slot] = inst.loc;
        break;
      }
      default:
        break;
    }
  };

  // Fix point: "no out-state yet" is TOP. A block's in-state is the
  // intersection over the preds that have materialized an out-state; as more
  // preds materialize (or their outs shrink), that intersection only
  // shrinks, the transfer is monotone, so every out-state descends after its
  // first assignment and the iteration converges.
  //
  // The one trap is a block whose preds exist but have ALL still-TOP outs:
  // seeding it from the empty map would be BOTTOM, not TOP — its out-state
  // could later have to grow, and a grown state flowing around a loop can
  // oscillate against the intersection forever (a 1-core sweep over a
  // generated corpus found exactly that: recursion + address-taken local +
  // an if inside a loop never converged). Such blocks are skipped until a
  // pred materializes; blocks with no preds at all (the entry, or dead
  // code) correctly start from "nothing pending".
  const size_t num_blocks = func.blocks.size();
  std::vector<PendingMap> out(num_blocks);
  std::vector<bool> has_out(num_blocks, false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& block : func.blocks) {
      if (ctx.meter() != nullptr) {
        ctx.meter()->Charge(block.insts.size() + 1);
      }
      PendingMap in;
      bool first = true;
      for (BlockId pred : block.preds) {
        if (!has_out[pred]) {
          continue;
        }
        if (first) {
          in = out[pred];
          first = false;
        } else {
          IntersectInto(in, out[pred]);
        }
      }
      if (first && !block.preds.empty()) {
        continue;  // every pred is still TOP: stay TOP, revisit next pass
      }
      for (const Instruction& inst : block.insts) {
        transfer(inst, in, nullptr);
      }
      if (!has_out[block.id] || !(out[block.id] == in)) {
        out[block.id] = std::move(in);
        has_out[block.id] = true;
        changed = true;
      }
    }
  }

  // Final replay from the converged in-states to collect the kills once.
  std::set<std::pair<SourceLoc, SourceLoc>> seen;
  std::vector<std::pair<SlotId, std::pair<SourceLoc, SourceLoc>>> kills;
  for (const auto& block : func.blocks) {
    PendingMap in;
    bool first = true;
    for (BlockId pred : block.preds) {
      if (!has_out[pred]) {
        continue;
      }
      if (first) {
        in = out[pred];
        first = false;
      } else {
        IntersectInto(in, out[pred]);
      }
    }
    std::vector<std::pair<SourceLoc, SourceLoc>> report;
    for (const Instruction& inst : block.insts) {
      SlotId slot = inst.slot;
      size_t before = report.size();
      transfer(inst, in, &report);
      for (size_t k = before; k < report.size(); ++k) {
        if (seen.insert(report[k]).second) {
          kills.push_back({slot, report[k]});
        }
      }
    }
  }

  std::sort(kills.begin(), kills.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  std::vector<UnusedDefCandidate> candidates;
  for (const auto& [slot_id, pair] : kills) {
    const Slot& slot = func.slots[slot_id];
    UnusedDefCandidate cand;
    cand.function = func.name;
    cand.slot_name = slot.name;
    cand.file = ctx.path();
    cand.def_loc = pair.first;
    cand.ir_func = &func;
    cand.slot = slot_id;
    cand.var = slot.var;
    cand.overwritten = true;
    cand.overwriter_locs.push_back(pair.second);
    cand.kind = CandidateKind::kDoubleOverwrite;
    candidates.push_back(std::move(cand));
  }
  return candidates;
}

}  // namespace vc
