// The checker driver: runs a set of checkers over every function of a
// project, in parallel across `jobs` worker lanes, with the determinism and
// fault-isolation contract of the pre-framework detector:
//
//  * Per-function results merge in module/function visit order, and within a
//    function in checker registration order — so output is byte-identical at
//    any job count, and a single-checker run equals that checker's share of
//    a multi-checker run. They come back as one slice per file
//    (RunCheckersSliced). Each candidate carries its checker's index in the
//    run, so each slice tallies its candidates per checker by index; the
//    incremental engine keeps its cached slices itself and shares the step
//    that sums the slices' tallies (TallyCheckerRun).
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

#include <cstdint>
#include <memory>
#include <span>
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

// The detect stage's outcome as one slice per live file: what the stages
// after detection consume.
struct DetectSlices {
  // Per live file, in unit order. The incremental engine leaves null the
  // files whose finished slices it carries (TailCarry::finished).
  std::vector<std::shared_ptr<CandidateSlice>> slices;
  // Records ahead of every slice's own: the unsupported-checker records,
  // then the incremental engine's corrupt cache entries.
  std::vector<QuarantinedUnit> quarantined;
  // Candidate count per runnable checker over every file, carried ones
  // included, and their total.
  std::vector<CheckerRunResult::PerChecker> per_checker;
  size_t candidates = 0;
  // Functions run through the checkers.
  size_t functions = 0;

  // File i's slice: its own, or the finished one `finished` carries in its
  // place (TailCarry::finished; indexed like `slices`).
  const CandidateSlice& At(size_t i, const std::vector<CandidateSlices::Slice>& finished) const {
    return slices[i] != nullptr ? *slices[i] : *finished[i];
  }
};

// Runs `checkers` over every function, moving each file's results straight
// into the file's slice (across up to `jobs` lanes): what the analysis
// pipeline runs. Candidates come back stamped with their checker's name,
// fingerprint namespace, and baseline tag. With `isolate` false, worker
// exceptions propagate (the pre-framework non-isolated path; unsupported
// checkers are still quarantined — that is a capability fact, not a fault);
// otherwise they quarantine as described above.
DetectSlices RunCheckersSliced(const Project& project, const std::vector<const Checker*>& checkers,
                               const ProjectTraits& traits, int jobs,
                               const ResourceBudget* budget, const FaultInjector* fault,
                               bool isolate);

// The same, flattened: the slices' candidates and quarantine records
// concatenated in unit order, for callers that want one list (DetectAll).
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
// registration order. RunCheckersSliced applies this itself; the incremental
// engine calls it directly (the gate must re-evaluate on every commit — the
// project's contents factor into Unsupported()).
std::vector<const Checker*> GateCheckers(const Project& project,
                                         const std::vector<const Checker*>& checkers,
                                         const ProjectTraits& traits,
                                         std::vector<QuarantinedUnit>& quarantined);

// The closing step of a checker run, which the incremental engine shares:
// sums every live file's slice tallies (detect.At(i, finished); `finished`
// is empty when every slice is the file's own) into detect.per_checker —
// counted by the checker_index the driver stamped, so every slice must be
// indexed against `runnable` — and detect.candidates, and emits the
// checker_done events.
void TallyCheckerRun(const std::vector<const Checker*>& runnable,
                     const std::vector<CandidateSlices::Slice>& finished, DetectSlices& detect);

// Moves one file's per-function results — every function of its module, in
// module order — into a new slice, and counts its detect tallies.
std::shared_ptr<CandidateSlice> SliceFunctions(std::span<FunctionDetect> functions);

// Work-list core of RunCheckersSliced: runs already-capability-gated
// `runnable` over an explicit work list, returning per-item results in work
// order (each file's functions are then a contiguous run, which
// SliceFunctions takes). Each candidate's checker_index is its checker's
// position in `runnable`.
std::vector<FunctionDetect> RunCheckersOnFunctions(
    const Project& project, const std::vector<const Checker*>& runnable, int jobs,
    const ResourceBudget* budget, const FaultInjector* fault, bool isolate,
    const std::vector<CheckerWorkItem>& work);

}  // namespace vc

#endif  // VALUECHECK_SRC_CHECKERS_DRIVER_H_
