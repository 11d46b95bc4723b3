// Differential test of the dataflow kernel. The kernel from before slot
// events — the std::vector<bool> SlotSet, the std::map DefineMap,
// ComputeLiveness and ComputeDefineSets with a transfer per instruction per
// sweep, DetectInFunctionWith's replay over every instruction and the
// double-overwrite checker without its early return — is kept verbatim below
// in namespace `reference` (the checker reads its context through a small
// shim, Context, and one call is qualified so that argument-dependent lookup
// does not also find vc::ComputeAddressTaken). On every function of the four generated apps' head files
// and of 300 testgen programs (which take addresses, copy structs and loop),
// the production kernel must give the same live-in, live-out and
// address-taken sets, the same define sets per block and slot, the same
// sweep counts, the same unused-def and double-overwrite candidates in every
// field, and the same BudgetMeter steps after each of the four passes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/checkers/checker_context.h"
#include "src/checkers/double_overwrite.h"
#include "src/core/detector.h"
#include "src/core/project.h"
#include "src/corpus/generator.h"
#include "src/corpus/profile.h"
#include "src/testing/testgen.h"

namespace vc {
namespace reference {

class SlotSet {
 public:
  SlotSet() = default;
  explicit SlotSet(int num_slots) : bits_(static_cast<size_t>(num_slots), false) {}

  void Resize(int num_slots) { bits_.resize(static_cast<size_t>(num_slots), false); }

  bool Contains(SlotId slot) const {
    return slot >= 0 && slot < static_cast<SlotId>(bits_.size()) && bits_[slot];
  }

  void Add(SlotId slot) {
    if (slot >= static_cast<SlotId>(bits_.size())) {
      bits_.resize(static_cast<size_t>(slot) + 1, false);
    }
    if (slot >= 0) {
      bits_[slot] = true;
    }
  }

  void Remove(SlotId slot) {
    if (slot >= 0 && slot < static_cast<SlotId>(bits_.size())) {
      bits_[slot] = false;
    }
  }

  // this |= other. Returns true if this changed.
  bool UnionWith(const SlotSet& other) {
    if (other.bits_.size() > bits_.size()) {
      bits_.resize(other.bits_.size(), false);
    }
    bool changed = false;
    for (size_t i = 0; i < other.bits_.size(); ++i) {
      if (other.bits_[i] && !bits_[i]) {
        bits_[i] = true;
        changed = true;
      }
    }
    return changed;
  }

  int Count() const {
    int n = 0;
    for (bool bit : bits_) {
      n += bit ? 1 : 0;
    }
    return n;
  }

  friend bool operator==(const SlotSet& a, const SlotSet& b) {
    size_t common = std::min(a.bits_.size(), b.bits_.size());
    for (size_t i = 0; i < common; ++i) {
      if (a.bits_[i] != b.bits_[i]) {
        return false;
      }
    }
    const auto& longer = a.bits_.size() > b.bits_.size() ? a.bits_ : b.bits_;
    for (size_t i = common; i < longer.size(); ++i) {
      if (longer[i]) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<bool> bits_;
};

class DefineMap {
 public:
  void Replace(SlotId slot, SourceLoc loc) { defs_[slot] = {loc}; }

  void Clear(SlotId slot) { defs_.erase(slot); }

  const std::vector<SourceLoc>* Find(SlotId slot) const {
    auto it = defs_.find(slot);
    return it == defs_.end() ? nullptr : &it->second;
  }

  // this = union(this, other) per slot. Returns true if this changed.
  bool UnionWith(const DefineMap& other) {
    bool changed = false;
    for (const auto& [slot, locs] : other.defs_) {
      std::vector<SourceLoc>& mine = defs_[slot];
      for (const SourceLoc& loc : locs) {
        if (std::find(mine.begin(), mine.end(), loc) == mine.end()) {
          mine.push_back(loc);
          changed = true;
        }
      }
      std::sort(mine.begin(), mine.end());
    }
    return changed;
  }

  friend bool operator==(const DefineMap& a, const DefineMap& b) { return a.defs_ == b.defs_; }

 private:
  std::map<SlotId, std::vector<SourceLoc>> defs_;
};

struct DefineSetResult {
  // Indexed by block id: state at block entry (in) and exit (out), in
  // backward-analysis orientation (in = before the first instruction).
  std::vector<DefineMap> in;
  std::vector<DefineMap> out;
  int iterations = 0;
};

struct LivenessResult {
  // Indexed by block id.
  std::vector<SlotSet> live_in;
  std::vector<SlotSet> live_out;
  // Slots whose address is taken anywhere in the function (plus, for struct
  // variables, their sibling field slots).
  SlotSet address_taken;
  // Number of worklist iterations until the fix point (loops need > 1).
  int iterations = 0;
};

void ApplyDefineTransfer(const IrFunction& func, const Instruction& inst, DefineMap& defs) {
  if (inst.op != Opcode::kStore) {
    return;
  }
  defs.Replace(inst.slot, inst.loc);
}

DefineSetResult ComputeDefineSets(const IrFunction& func, BudgetMeter* meter) {
  DefineSetResult result;
  const size_t num_blocks = func.blocks.size();
  result.in.assign(num_blocks, DefineMap());
  result.out.assign(num_blocks, DefineMap());

  bool changed = true;
  while (changed) {
    changed = false;
    ++result.iterations;
    for (size_t i = num_blocks; i-- > 0;) {
      const BasicBlock& block = func.blocks[i];
      if (meter != nullptr) {
        meter->Charge(block.insts.size() + 1);
      }
      DefineMap out;
      for (BlockId succ : block.succs) {
        out.UnionWith(result.in[succ]);
      }
      DefineMap in = out;
      for (size_t j = block.insts.size(); j-- > 0;) {
        ApplyDefineTransfer(func, block.insts[j], in);
      }
      if (!(out == result.out[i])) {
        result.out[i] = std::move(out);
        changed = true;
      }
      if (!(in == result.in[i])) {
        result.in[i] = std::move(in);
        changed = true;
      }
    }
  }
  return result;
}

namespace {

bool IsStructVarSlot(const IrFunction& func, SlotId slot) {
  const Slot& s = func.slots[slot];
  return s.var != nullptr && s.field_index < 0 && s.var->type != nullptr &&
         s.var->type->IsStruct();
}

// Applies `fn` to every field slot of the same variable as `slot` (which must
// be a whole-variable slot).
template <typename Fn>
void ForEachFieldSlot(const IrFunction& func, SlotId slot, Fn fn) {
  const VarDecl* var = func.slots[slot].var;
  for (SlotId other = 0; other < func.slots.size(); ++other) {
    const Slot& candidate = func.slots[other];
    if (candidate.var == var && candidate.field_index >= 0) {
      fn(other);
    }
  }
}

}  // namespace

void ApplyLivenessTransfer(const IrFunction& func, const Instruction& inst, SlotSet& live) {
  switch (inst.op) {
    case Opcode::kLoad:
      live.Add(inst.slot);
      if (IsStructVarSlot(func, inst.slot)) {
        // Reading the whole struct reads each field.
        ForEachFieldSlot(func, inst.slot, [&live](SlotId field) { live.Add(field); });
      }
      break;
    case Opcode::kStore:
      live.Remove(inst.slot);
      if (IsStructVarSlot(func, inst.slot)) {
        // Overwriting the whole struct overwrites each field.
        ForEachFieldSlot(func, inst.slot, [&live](SlotId field) { live.Remove(field); });
      }
      break;
    case Opcode::kAddrSlot:
      // Escaped address: the slot may be read through a pointer after this
      // point, so treat the address-taking itself as a use (conservative, the
      // paper's rule from §4.1 "Pointer and Alias").
      live.Add(inst.slot);
      if (IsStructVarSlot(func, inst.slot)) {
        ForEachFieldSlot(func, inst.slot, [&live](SlotId field) { live.Add(field); });
      }
      break;
    default:
      // Loads/stores through pointers and all value operations touch no slot
      // directly; escaped slots are handled by the address-taken suppression.
      break;
  }
}

SlotSet ComputeAddressTaken(const IrFunction& func) {
  SlotSet taken(func.slots.size());
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block.insts) {
      if (inst.op == Opcode::kAddrSlot) {
        taken.Add(inst.slot);
        if (IsStructVarSlot(func, inst.slot)) {
          ForEachFieldSlot(func, inst.slot, [&taken](SlotId field) { taken.Add(field); });
        }
        // Taking a field's address escapes that field; its parent variable
        // stays precise.
      }
    }
  }
  return taken;
}

LivenessResult ComputeLiveness(const IrFunction& func, BudgetMeter* meter) {
  LivenessResult result;
  const size_t num_blocks = func.blocks.size();
  result.live_in.assign(num_blocks, SlotSet(func.slots.size()));
  result.live_out.assign(num_blocks, SlotSet(func.slots.size()));
  result.address_taken = reference::ComputeAddressTaken(func);  // not vc:: by ADL

  bool changed = true;
  while (changed) {
    changed = false;
    ++result.iterations;
    // Reverse block order converges quickly for reducible CFGs.
    for (size_t i = num_blocks; i-- > 0;) {
      const BasicBlock& block = func.blocks[i];
      if (meter != nullptr) {
        meter->Charge(block.insts.size() + 1);
      }
      SlotSet out(func.slots.size());
      for (BlockId succ : block.succs) {
        out.UnionWith(result.live_in[succ]);
      }
      SlotSet in = out;
      for (size_t j = block.insts.size(); j-- > 0;) {
        ApplyLivenessTransfer(func, block.insts[j], in);
      }
      if (!(out == result.live_out[i])) {
        result.live_out[i] = std::move(out);
        changed = true;
      }
      if (!(in == result.live_in[i])) {
        result.live_in[i] = std::move(in);
        changed = true;
      }
    }
  }
  return result;
}

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
    SlotSet live = liveness.live_out[block.id];
    DefineMap defs = defines.out[block.id];
    if (meter != nullptr) {
      meter->Charge(block.insts.size() + 1);
    }
    for (size_t j = block.insts.size(); j-- > 0;) {
      const Instruction& inst = block.insts[j];
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
          if (inst.origin_callee() != nullptr) {
            cand.callee_name = inst.origin_callee()->name;
          }
          cand.is_increment = inst.is_increment;
          cand.increment_amount = inst.increment_amount();
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

// What the reference double-overwrite checker reads from its context.
struct Context {
  const IrFunction& func_;
  const SlotSet& address_taken_;
  BudgetMeter* meter_;
  const std::string& path_;

  const IrFunction& func() const { return func_; }
  const SlotSet& address_taken() const { return address_taken_; }
  BudgetMeter* meter() const { return meter_; }
  const std::string& path() const { return path_; }
};

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

}  // namespace

std::vector<UnusedDefCandidate> DoubleOverwriteCheck(Context& ctx) {
  const IrFunction& func = ctx.func();
  const SlotSet& address_taken = ctx.address_taken();

  // Only address-taken slots: everything else is already covered (better) by
  // the unused-def checker, and disjoint envelopes keep the two checkers'
  // findings from double-reporting one dead store.
  auto eligible = [&](SlotId id) {
    const Slot& slot = func.slots[id];
    return slot.var != nullptr && !slot.var->is_global && !slot.is_synthetic &&
           !slot.IsFieldSlot() && address_taken.Contains(id);
  };

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

}  // namespace reference

namespace {

// Every field of a candidate, pointers included.
std::string Describe(const UnusedDefCandidate& c) {
  std::ostringstream out;
  out << c.function << "|" << c.slot_name << "|" << c.file << "|" << c.def_loc.file << ":"
      << c.def_loc.line << ":" << c.def_loc.column << "|" << c.ir_func << "|" << c.slot << "|"
      << c.var << "|" << c.is_param << c.is_synthetic << c.is_field_slot << c.overwritten << "|";
  for (const SourceLoc& loc : c.overwriter_locs) {
    out << loc.file << ":" << loc.line << ":" << loc.column << ",";
  }
  out << "|" << c.callee_name << "|" << c.is_increment << "|" << c.increment_amount << "|"
      << c.cross_scope << "|" << static_cast<int>(c.kind) << "|" << c.def_author << "|"
      << c.responsible_author << "|" << static_cast<int>(c.pruned_by) << "|" << c.familiarity
      << "|" << c.checker << "|" << c.checker_index << "|" << c.fingerprint_ns << "|"
      << c.from_baseline << "|" << c.note << "|" << c.fingerprint;
  return out.str();
}

std::vector<std::string> DescribeAll(const std::vector<UnusedDefCandidate>& candidates) {
  std::vector<std::string> out;
  for (const UnusedDefCandidate& c : candidates) {
    out.push_back(Describe(c));
  }
  return out;
}

// How much of the kernel the inputs exercised.
struct Coverage {
  int functions = 0;
  int address_taken = 0;  // functions taking some slot's address
  int struct_masks = 0;   // functions with a whole struct slot and its fields
  int loops = 0;          // functions whose liveness needed more than two sweeps
  int overwritten = 0;    // unused-def candidates with overwriters
  int double_overwrites = 0;
};

void ExpectSameKernel(const Project& project, Coverage& coverage) {
  ResourceBudget budget;
  budget.detect_step_limit = uint64_t{1} << 62;
  for (size_t m : project.unit_order()) {
    const IrModule& module = *project.modules()[m];
    const std::string& path = project.sources().Path(module.file);
    for (const auto& owned : module.functions) {
      const IrFunction& func = *owned;
      const std::string where = path + ":" + func.name;
      ++coverage.functions;

      BudgetMeter ref_meter(budget);
      const reference::LivenessResult ref_live = reference::ComputeLiveness(func, &ref_meter);
      const uint64_t ref_live_steps = ref_meter.steps();
      const reference::DefineSetResult ref_defs = reference::ComputeDefineSets(func, &ref_meter);
      const uint64_t ref_define_steps = ref_meter.steps();
      const std::vector<UnusedDefCandidate> ref_unused = reference::DetectInFunctionWith(
          project, module.file, func, ref_live, ref_defs, &ref_meter);
      const uint64_t ref_replay_steps = ref_meter.steps();
      reference::Context ref_ctx{func, ref_live.address_taken, &ref_meter, path};
      const std::vector<UnusedDefCandidate> ref_double = reference::DoubleOverwriteCheck(ref_ctx);
      const uint64_t ref_double_steps = ref_meter.steps();

      BudgetMeter meter(budget);
      CheckerContext ctx(project, module.file, func, &meter);
      const LivenessResult& live = ctx.liveness();
      ASSERT_EQ(meter.steps(), ref_live_steps) << where << ": steps after liveness";
      const DefineSetResult& defs = ctx.defines();
      ASSERT_EQ(meter.steps(), ref_define_steps) << where << ": steps after define sets";
      const std::vector<UnusedDefCandidate> unused = DetectInFunctionWith(ctx);
      ASSERT_EQ(meter.steps(), ref_replay_steps) << where << ": steps after the replay";
      const std::vector<UnusedDefCandidate> doubled = DoubleOverwriteChecker().Check(ctx);
      ASSERT_EQ(meter.steps(), ref_double_steps) << where << ": steps after double-overwrite";

      ASSERT_EQ(live.iterations, ref_live.iterations) << where;
      ASSERT_EQ(defs.iterations, ref_defs.iterations) << where;
      for (SlotId slot = 0; slot < func.slots.size(); ++slot) {
        ASSERT_EQ(live.address_taken.Contains(slot), ref_live.address_taken.Contains(slot))
            << where << ": address-taken " << func.slots[slot].name;
      }
      for (size_t b = 0; b < func.blocks.size(); ++b) {
        for (SlotId slot = 0; slot < func.slots.size(); ++slot) {
          const std::string at =
              where + " bb" + std::to_string(b) + " " + std::string(func.slots[slot].name);
          ASSERT_EQ(live.live_in[b].Contains(slot), ref_live.live_in[b].Contains(slot))
              << at << ": live-in";
          ASSERT_EQ(live.live_out[b].Contains(slot), ref_live.live_out[b].Contains(slot))
              << at << ": live-out";
          for (bool entry : {true, false}) {
            const reference::DefineMap& ref_map = entry ? ref_defs.in[b] : ref_defs.out[b];
            const DefineMap& map = entry ? defs.in[b] : defs.out[b];
            const std::vector<SourceLoc>* ref_locs = ref_map.Find(slot);
            ASSERT_EQ(map.Find(ctx.events(), slot),
                      ref_locs == nullptr ? std::vector<SourceLoc>() : *ref_locs)
                << at << (entry ? ": define set in" : ": define set out");
          }
        }
      }
      ASSERT_EQ(DescribeAll(unused), DescribeAll(ref_unused)) << where << ": unused-def";
      ASSERT_EQ(DescribeAll(doubled), DescribeAll(ref_double)) << where << ": double-overwrite";

      coverage.address_taken += ref_live.address_taken.Count() > 0;
      coverage.loops += ref_live.iterations > 2;
      coverage.overwritten += static_cast<int>(
          std::count_if(unused.begin(), unused.end(),
                        [](const UnusedDefCandidate& c) { return c.overwritten; }));
      coverage.double_overwrites += static_cast<int>(doubled.size());
      for (SlotId slot = 0; slot < func.slots.size(); ++slot) {
        if (func.slots[slot].IsFieldSlot()) {
          ++coverage.struct_masks;
          break;
        }
      }
    }
  }
}

TEST(DataflowDifferential, GeneratedAppHeadFiles) {
  Coverage coverage;
  for (const ProjectProfile& profile : AllProfiles()) {
    GeneratedApp app = GenerateApp(profile.Scaled(0.1));
    const Project project = Project::FromRepository(app.repo);
    ExpectSameKernel(project, coverage);
    if (HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(coverage.functions, 500);
  EXPECT_GT(coverage.overwritten, 0);
}

TEST(DataflowDifferential, TestgenPrograms) {
  Coverage coverage;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    const Project project =
        Project::FromSources(testing::GenerateProgram(seed).ToSources());
    ExpectSameKernel(project, coverage);
    if (HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(coverage.address_taken, 0);
  EXPECT_GT(coverage.struct_masks, 0);
  EXPECT_GT(coverage.loops, 0);
  EXPECT_GT(coverage.overwritten, 0);
  std::printf("testgen coverage: %d functions, %d take an address, %d have field slots, "
              "%d loop, %d overwritten candidates, %d double overwrites\n",
              coverage.functions, coverage.address_taken, coverage.struct_masks,
              coverage.loops, coverage.overwritten, coverage.double_overwrites);
}

}  // namespace
}  // namespace vc
