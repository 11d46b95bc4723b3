// Backward "next definition" analysis — the paper's DefineSet (Fig. 3/4).
//
// For every program point it records, per slot, the set of nearest stores
// that overwrite the slot on some path to the exit. When the detector finds
// an unused store, the DefineSet at that point names the overwriting
// definitions; the authorship phase compares their authors against the
// store's author to classify a cross-scope overwritten definition (§3.1
// scenario 3 and the overwritten-parameter variant of scenario 2).
//
// It is reaching definitions run backward over the function's numbered
// stores (SlotEvents): a state is a bitset of store numbers, a store clears
// its slot's number range and sets its own bit, and the meet is union.

#ifndef VALUECHECK_SRC_DATAFLOW_DEFINE_SETS_H_
#define VALUECHECK_SRC_DATAFLOW_DEFINE_SETS_H_

#include <vector>

#include "src/dataflow/slot_events.h"
#include "src/dataflow/slot_set.h"
#include "src/ir/ir.h"
#include "src/support/fault.h"

namespace vc {

// The nearest next definitions of each slot at one point: a set of the
// function's store numbers (SlotEvents), so one slot's next definitions are
// its stores in the set.
class DefineMap {
 public:
  // Empties the map and sizes it for `events`' stores.
  void Reset(const SlotEvents& events) { stores_.Reset(events.num_stores()); }

  // A store's backward transfer: store number `store` becomes `slot`'s only
  // next definition.
  void Replace(const SlotEvents& events, SlotId slot, int32_t store) {
    events.ReplaceStore(slot, store, stores_.words());
  }

  // The locations of `slot`'s next definitions, sorted and distinct; empty
  // when the slot has none. Built on each call, so only a report pays.
  std::vector<SourceLoc> Find(const SlotEvents& events, SlotId slot) const {
    std::vector<SourceLoc> locs;
    for (int store = events.StoresBegin(slot); store < events.StoresEnd(slot); ++store) {
      if (stores_.Contains(store)) {
        locs.push_back(events.StoreLoc(store));
      }
    }
    return locs;
  }

  // this = union(this, other). Returns true if this changed.
  bool UnionWith(const DefineMap& other) { return stores_.UnionWith(other.stores_); }

  // The set's words (SweepToFixPoint's state).
  uint64_t* words() { return stores_.words(); }

 private:
  SlotSet stores_;
};

struct DefineSetResult {
  // Indexed by block id: state at block entry (in) and exit (out), in
  // backward-analysis orientation (in = before the first instruction).
  std::vector<DefineMap> in;
  std::vector<DefineMap> out;
  int iterations = 0;
};

// Runs the analysis to its fix point into `result`, reusing its buffers, in
// the same sweeps as ComputeLiveness. A non-null `meter` is charged one step
// per instruction per block visit and may throw BudgetExceededError.
void ComputeDefineSets(const SlotEvents& events, BudgetMeter* meter, DefineSetResult& result);

// The same into a fresh result, whose maps answer Find() with `events`.
DefineSetResult ComputeDefineSets(const SlotEvents& events, BudgetMeter* meter = nullptr);

}  // namespace vc

#endif  // VALUECHECK_SRC_DATAFLOW_DEFINE_SETS_H_
