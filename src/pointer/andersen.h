// Field-sensitive Andersen-style (inclusion-based) points-to analysis,
// standing in for SVF in the paper's pipeline (§4.1, §7). It answers the
// three questions the paper puts to points-to information:
//
//   1. alias awareness — which slots are reachable through pointer values;
//   2. indirect call resolution — which functions a function-pointer value
//      may target;
//   3. the value-flow graph's indirect def-use edges.
//
// No pipeline stage runs it. The detector's alias rule reads the liveness
// pass's address-taken set (src/dataflow/liveness.h), the paper's
// conservative "referenced by pointers" rule, and cursor pruning counts
// increment stores straight from the IR. This analysis and its flow-sensitive
// variant (flow_sensitive.h) serve the §4.1 ablation (bench_ablation_pointer
// compares their cost, precision and alias answers) and the benchmark's
// pointer-layer timings.
//
// The analysis is intraprocedural (ValueCheck analyzes local variables only;
// §3.1). Abstract objects are the function's memory slots plus a distinguished
// "unknown" object for anything that escapes the model (call results, field
// addresses of unmodeled objects).

#ifndef VALUECHECK_SRC_POINTER_ANDERSEN_H_
#define VALUECHECK_SRC_POINTER_ANDERSEN_H_

#include <set>
#include <vector>

#include "src/ir/ir.h"

namespace vc {

// Hard ceiling on solver passes. Real functions converge in a handful of
// passes; the ceiling only exists so a constraint-system blow-up degrades to
// "points-to top" (everything may alias) instead of hanging the pipeline.
inline constexpr int kDefaultPointerIterationLimit = 1 << 16;

class PointsTo {
 public:
  // `max_iterations` caps solver passes (0 = kDefaultPointerIterationLimit).
  explicit PointsTo(const IrFunction& func, int max_iterations = 0);

  // Slots that `value` may point to.
  const std::set<SlotId>& SlotsPointedBy(ValueId value) const;

  // Functions that `value` may target (for indirect calls).
  const std::set<const FunctionDecl*>& FunctionsPointedBy(ValueId value) const;

  // True when `value` may point outside the modeled object space.
  bool PointsToUnknown(ValueId value) const;

  // True when some pointer value in the function may point to `slot`.
  bool SlotIsPointee(SlotId slot) const;

  int iterations() const { return iterations_; }

  // True when the solver hit its iteration ceiling and fell back to the
  // sound "top" state: every value/slot points to unknown and every slot is
  // a potential pointee (the detector then suppresses, never misreports).
  bool capped() const { return capped_; }

  // Test-only: forces the fix point to never converge so the iteration
  // ceiling and top fallback can be exercised without crafting a
  // pathological constraint system.
  static void ForceNonConvergenceForTest(bool on);

 private:
  struct NodeState {
    std::set<SlotId> slots;
    std::set<const FunctionDecl*> funcs;
    bool unknown = false;
  };

  void Solve(const IrFunction& func);
  void ApplyTop(const IrFunction& func);

  std::vector<NodeState> values_;  // indexed by ValueId
  std::vector<NodeState> slots_;   // indexed by SlotId: what the slot CONTAINS
  std::set<SlotId> pointee_slots_;
  int iterations_ = 0;
  int max_iterations_ = kDefaultPointerIterationLimit;
  bool capped_ = false;

  static const std::set<SlotId> kEmptySlots;
  static const std::set<const FunctionDecl*> kEmptyFuncs;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_POINTER_ANDERSEN_H_
