// Unused-definition detection — the analysis core of the paper's Fig. 4.
//
// Per function: run backward liveness and the DefineSet analysis to their fix
// points, then replay each block's slot events from its out-state. A store
// whose slot is not live at that point is an unused definition; the
// DefineSet at the same point names the overwriting definitions. After the
// replay, any parameter absent from the entry live-in set is an unused
// parameter. Address-taken slots are suppressed (the paper's alias rule), as
// are globals (out of scope, §3.1) and synthetic temps that did not come
// from ignored calls.

#ifndef VALUECHECK_SRC_CORE_DETECTOR_H_
#define VALUECHECK_SRC_CORE_DETECTOR_H_

#include <vector>

#include "src/checkers/checker_context.h"
#include "src/core/project.h"
#include "src/core/unused_def.h"
#include "src/support/fault.h"

namespace vc {

// Detects candidates in the context's function from its liveness and
// define-set fix points, which it requests in that order (one fixed meter
// charge order), so N checkers share one computation. The context's meter,
// when set, bounds the replay too (one step per instruction) and may throw
// BudgetExceededError.
std::vector<UnusedDefCandidate> DetectInFunctionWith(CheckerContext& ctx);

// Detects candidates across every function of every unit. Functions are
// analyzed independently across `jobs` worker lanes (1 = serial, 0 = all
// hardware threads); per-function results are merged in module/function
// order, so the output is identical at any job count.
//
// Fault isolation: when `quarantined` is non-null, a function whose worker
// throws, exceeds `budget`, or trips `fault` at the "detect.function" site is
// dropped from the output and recorded there (in the same deterministic visit
// order) instead of failing the whole run. With a null `quarantined`, worker
// exceptions propagate as before.
std::vector<UnusedDefCandidate> DetectAll(const Project& project, int jobs = 1,
                                          const ResourceBudget* budget = nullptr,
                                          const FaultInjector* fault = nullptr,
                                          std::vector<QuarantinedUnit>* quarantined = nullptr);

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_DETECTOR_H_
