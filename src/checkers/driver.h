// The checker driver: runs a set of checkers over every function of a
// project, in parallel across `jobs` worker lanes, with the determinism and
// fault-isolation contract of the pre-framework detector:
//
//  * Per-function results merge in module/function visit order, and within a
//    function in checker registration order — so output is byte-identical at
//    any job count, and a single-checker run equals that checker's slice of
//    a multi-checker run. Each candidate carries its checker's index in the
//    run, so the per-checker tallies count by index; the incremental engine
//    assembles its cached results itself and shares the tally step.
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
  // Functions RunCheckers ran through the checkers.
  size_t functions = 0;
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
// above.
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
// engine caches and carries over for files a commit did not change.
// Candidates are stamped and grouped by checker in runnable order; quarantine
// records use the driver's per-function shapes.
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

// The closing step of RunCheckers, which the incremental engine shares once
// it has assembled every function's results (candidates, then quarantine
// records, in full-run order) into `result`: counts the candidates per
// runnable checker by the checker_index the driver stamped — into
// `result.per_checker`, in `runnable` order — and emits the checker_done
// events.
void TallyCheckerRun(const std::vector<const Checker*>& runnable, CheckerRunResult& result);

// Work-list core of RunCheckers: runs already-capability-gated `runnable`
// over an explicit work list, returning per-item results in work order (the
// merge the full-project driver performs is then a plain concatenation).
// Each candidate's checker_index is its checker's position in `runnable`.
std::vector<FunctionDetect> RunCheckersOnFunctions(
    const Project& project, const std::vector<const Checker*>& runnable, int jobs,
    const ResourceBudget* budget, const FaultInjector* fault, bool isolate,
    const std::vector<CheckerWorkItem>& work);

}  // namespace vc

#endif  // VALUECHECK_SRC_CHECKERS_DRIVER_H_
