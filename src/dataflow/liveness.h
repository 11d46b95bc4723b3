// Backward flow-sensitive liveness over memory slots (paper §2.1, §4.1).
//
// The analysis is field-sensitive (a struct-typed local's fields are separate
// slots) and struct-copy aware: loading a whole struct variable counts as a
// use of every field slot, and storing the whole variable kills them (the
// slot masks of SlotEvents).
//
// Alias handling follows the paper's conservative rule: a slot whose address
// is taken is "referenced by pointers" and may be used through indirection,
// so kAddrSlot both generates a use and lands the slot in `address_taken`
// (the detector additionally suppresses all candidates on such slots).

#ifndef VALUECHECK_SRC_DATAFLOW_LIVENESS_H_
#define VALUECHECK_SRC_DATAFLOW_LIVENESS_H_

#include <vector>

#include "src/dataflow/slot_events.h"
#include "src/dataflow/slot_set.h"
#include "src/ir/ir.h"
#include "src/support/fault.h"

namespace vc {

struct LivenessResult {
  // Indexed by block id.
  std::vector<SlotSet> live_in;
  std::vector<SlotSet> live_out;
  // Slots whose address is taken anywhere in the function (plus, for struct
  // variables, their sibling field slots).
  SlotSet address_taken;
  // Number of sweeps until the fix point (loops need > 1).
  int iterations = 0;
};

// Applies one slot event's backward transfer to `live` (sized for the
// function's slots): a load or address-of makes the slot's mask live, a store
// kills it, and any other opcode touches no slot. The detector and the
// out-param checker replay block-internal states from a block's live-out
// with it.
inline void ApplyLivenessTransfer(const SlotEvents& events, Opcode op, SlotId slot,
                                  SlotSet& live) {
  if (op == Opcode::kStore) {
    events.RemoveMask(slot, live.words());
  } else if (op == Opcode::kLoad || op == Opcode::kAddrSlot) {
    // An escaped address may be read through a pointer after this point, so
    // taking it counts as a use (the paper's rule from §4.1 "Pointer and
    // Alias"). Loads and stores through pointers touch no slot directly;
    // escaped slots are handled by the address-taken suppression.
    events.AddMask(slot, live.words());
  }
}

// Runs the analysis to its fix point into `result`, reusing its buffers. The
// sweeps visit the blocks in reverse order until one changes nothing. A
// non-null `meter` is charged one step per instruction per block visit and
// may throw BudgetExceededError, which the detector's per-unit isolation
// turns into a quarantine.
void ComputeLiveness(const SlotEvents& events, BudgetMeter* meter, LivenessResult& result);

// The same for `func` alone, into a fresh result.
LivenessResult ComputeLiveness(const IrFunction& func, BudgetMeter* meter = nullptr);

// Computes the address-taken slot set alone (also part of LivenessResult).
SlotSet ComputeAddressTaken(const IrFunction& func);

}  // namespace vc

#endif  // VALUECHECK_SRC_DATAFLOW_LIVENESS_H_
