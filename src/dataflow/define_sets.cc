#include "src/dataflow/define_sets.h"

namespace vc {

void ComputeDefineSets(const SlotEvents& events, BudgetMeter* meter, DefineSetResult& result) {
  const IrFunction& func = events.func();
  const size_t num_blocks = func.blocks.size();
  result.in.resize(num_blocks);
  result.out.resize(num_blocks);
  for (size_t i = 0; i < num_blocks; ++i) {
    result.in[i].Reset(events);
    result.out[i].Reset(events);
  }
  result.iterations =
      SweepToFixPoint(func, SlotSet::WordsFor(events.num_stores()), events.define_gen(),
                      events.define_kill(), result.in, result.out, meter);
}

DefineSetResult ComputeDefineSets(const SlotEvents& events, BudgetMeter* meter) {
  DefineSetResult result;
  ComputeDefineSets(events, meter, result);
  return result;
}

}  // namespace vc
