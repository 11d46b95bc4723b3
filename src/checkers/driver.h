// The checker driver: runs a set of checkers over every function of a
// project, in parallel across `jobs` worker lanes, with the determinism and
// fault-isolation contract of the pre-framework detector:
//
//  * Per-function results merge in module/function visit order, and within a
//    function in checker registration order — so output is byte-identical at
//    any job count, and a single-checker run equals that checker's slice of
//    a multi-checker run.
//  * With `quarantined` non-null, faults isolate at the finest scope that
//    contains them: an unsupported checker is quarantined project-wide
//    (stage "checker"), a tripped "detect.function" injection site
//    quarantines the whole function (stage "detect", no checker — matching
//    the pre-framework record), and a crash inside one checker quarantines
//    just that (checker, function) pair. A blown shared budget quarantines
//    the running checker and skips the function's remaining checkers (the
//    meter is per-function, not per-checker).

#ifndef VALUECHECK_SRC_CHECKERS_DRIVER_H_
#define VALUECHECK_SRC_CHECKERS_DRIVER_H_

#include <vector>

#include "src/checkers/checker.h"
#include "src/core/project.h"
#include "src/support/fault.h"

namespace vc {

struct CheckerRunResult {
  std::vector<UnusedDefCandidate> candidates;
  // Unsupported-checker records (stage "checker") first, then per-function
  // records in visit order.
  std::vector<QuarantinedUnit> quarantined;
  // Candidate count per runnable checker, in registration order (feeds
  // per-checker report/ledger stats and the dashboard precision trend).
  struct PerChecker {
    std::string name;
    uint64_t candidates = 0;
  };
  std::vector<PerChecker> per_checker;
};

// Runs `checkers` over every function. Candidates come back stamped with
// their checker's name, fingerprint namespace, and baseline tag. With
// `isolate` false, worker exceptions propagate (the pre-framework
// non-isolated path; unsupported checkers are still quarantined — that is a
// capability fact, not a fault); otherwise they quarantine as described
// above. Metrics: the legacy detect.functions / detect.candidates /
// fault.quarantined.detect counters plus per-checker
// detect.<name>.candidates.
CheckerRunResult RunCheckers(const Project& project, const std::vector<const Checker*>& checkers,
                             const ProjectTraits& traits, int jobs,
                             const ResourceBudget* budget, const FaultInjector* fault,
                             bool isolate);

// One (file, function) unit of detection work.
struct CheckerWorkItem {
  FileId file = kInvalidFileId;
  const IrFunction* func = nullptr;
};

// One function's complete detect-stage output — exactly what the incremental
// engine caches and carries over for files a commit did not change. Candidates are stamped; quarantine records use the driver's
// per-function shapes.
struct FunctionDetect {
  std::vector<UnusedDefCandidate> candidates;
  std::vector<QuarantinedUnit> quarantined;
};

// The capability gate alone: partitions `checkers` into the runnable subset,
// appending one "checker"-stage quarantine record per unsupported checker in
// registration order. RunCheckers applies this itself; the incremental
// engine calls it directly (the gate must re-evaluate on every commit — the
// project's contents factor into Unsupported()).
std::vector<const Checker*> GateCheckers(const Project& project,
                                         const std::vector<const Checker*>& checkers,
                                         const ProjectTraits& traits,
                                         std::vector<QuarantinedUnit>& quarantined);

// The merge step of RunCheckers: folds per-function results (already in work
// order) into `result` — candidates then quarantine records per function,
// per-checker counts in `runnable` order — and emits the
// detect.candidates / per-checker / fault.quarantined.detect metrics.
// `result.quarantined` may already hold gate (and cache) records; function
// records append after them, matching the full-run record order.
void MergeFunctionDetects(const std::vector<const Checker*>& runnable,
                          std::vector<FunctionDetect> per_function, CheckerRunResult& result);

// Work-list core of RunCheckers: runs already-capability-gated `runnable`
// over an explicit work list, returning per-item results in work order (the
// merge the full-project driver performs is then a plain concatenation).
// Emits the same detect.* metrics, scoped to the items actually run.
std::vector<FunctionDetect> RunCheckersOnFunctions(
    const Project& project, const std::vector<const Checker*>& runnable, int jobs,
    const ResourceBudget* budget, const FaultInjector* fault, bool isolate,
    const std::vector<CheckerWorkItem>& work);

}  // namespace vc

#endif  // VALUECHECK_SRC_CHECKERS_DRIVER_H_
