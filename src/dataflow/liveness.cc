#include "src/dataflow/liveness.h"

namespace vc {

namespace {

void ComputeAddressTaken(const SlotEvents& events, SlotSet& taken) {
  taken.Reset(events.num_slots());
  const IrFunction& func = events.func();
  for (const auto& block : func.blocks) {
    for (const SlotEvent& event : events.Block(block->id)) {
      // Taking a field's address escapes that field; its parent variable
      // stays precise. A whole struct's mask escapes its fields too.
      if (event.op == Opcode::kAddrSlot) {
        events.AddMask(event.slot, taken.words());
      }
    }
  }
}

}  // namespace

void ComputeLiveness(const SlotEvents& events, BudgetMeter* meter, LivenessResult& result) {
  const IrFunction& func = events.func();
  const size_t num_blocks = func.blocks.size();
  result.live_in.resize(num_blocks);
  result.live_out.resize(num_blocks);
  for (size_t i = 0; i < num_blocks; ++i) {
    result.live_in[i].Reset(events.num_slots());
    result.live_out[i].Reset(events.num_slots());
  }
  ComputeAddressTaken(events, result.address_taken);

  result.iterations =
      SweepToFixPoint(func, SlotSet::WordsFor(events.num_slots()), events.live_gen(),
                      events.live_kill(), result.live_in, result.live_out, meter);
}

LivenessResult ComputeLiveness(const IrFunction& func, BudgetMeter* meter) {
  LivenessResult result;
  ComputeLiveness(SlotEvents(func), meter, result);
  return result;
}

SlotSet ComputeAddressTaken(const IrFunction& func) {
  SlotSet taken;
  ComputeAddressTaken(SlotEvents(func), taken);
  return taken;
}

}  // namespace vc
