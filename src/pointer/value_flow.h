// Slot-level value-flow graph: for each memory slot, the ordered list of
// definitions (stores) and uses (loads), including indirect accesses resolved
// through the points-to analysis. It models the query structure behind the
// paper's cursor pruning (§5.2, "a variable incremented repeatedly by the
// same constant"), peer-definition usage ratios (§5.4) and the alias check of
// the detection algorithm (checkAlias in Fig. 4).
//
// No pipeline stage builds one: cursor pruning reads only direct increment
// stores, which the IR gives without points-to (src/core/pruning.cc), and
// the other two queries run on the IR and the function index. The graph
// serves the tests and the benchmark's pointer-layer timings.

#ifndef VALUECHECK_SRC_POINTER_VALUE_FLOW_H_
#define VALUECHECK_SRC_POINTER_VALUE_FLOW_H_

#include <vector>

#include "src/ir/ir.h"
#include "src/pointer/andersen.h"

namespace vc {

struct SlotAccess {
  const Instruction* inst = nullptr;
  BlockId block = 0;
  int index = 0;       // instruction index within the block
  bool is_def = false;  // store vs load
  bool is_indirect = false;
};

class ValueFlowGraph {
 public:
  ValueFlowGraph(const IrFunction& func, const PointsTo& pts);

  const std::vector<SlotAccess>& AccessesOf(SlotId slot) const;

  int NumDefs(SlotId slot) const;
  int NumUses(SlotId slot) const;

  // Number of direct stores of the shape `slot = slot ± c` with the given
  // step; a step of 0 counts increments of any constant amount.
  int NumIncrementDefs(SlotId slot, long long step = 0) const;

  // True if the slot has any use reachable only through pointers (an
  // indirect load whose pointer may target the slot).
  bool HasIndirectUse(SlotId slot) const;

 private:
  std::vector<std::vector<SlotAccess>> accesses_;  // indexed by slot
  static const std::vector<SlotAccess> kEmpty;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_POINTER_VALUE_FLOW_H_
