#include "src/checkers/driver.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>

#include "src/checkers/checker_context.h"
#include "src/support/events.h"
#include "src/support/metrics.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace vc {

std::vector<FunctionDetect> RunCheckersOnFunctions(
    const Project& project, const std::vector<const Checker*>& runnable, int jobs,
    const ResourceBudget* budget, const FaultInjector* fault, bool isolate,
    const std::vector<CheckerWorkItem>& work) {
  // Observability: one span + histogram sample per function. The histogram
  // reference is resolved once out here (registration locks); per-function
  // clock reads only happen while metrics collection is on.
  Histogram* fn_histogram =
      MetricsEnabled() ? &MetricsRegistry::Global().GetHistogram("detect.function_seconds")
                       : nullptr;
  const bool metered = budget != nullptr && !budget->Unlimited();
  // Slot-indexed per work item: results merge in the serial work order (the
  // determinism barrier: output never depends on worker scheduling).
  std::vector<FunctionDetect> per_function(work.size());
  if (ProgressEnabled()) {
    ProgressMeter::Global().AddTotalFunctions(work.size());
  }
  ParallelFor(jobs, work.size(), [&](size_t i) {
    TraceSpan span("detect_fn", "detect");
    span.Arg("function", work[i].func->name);
    ScopedTimer timer(nullptr, fn_histogram);
    const std::string& path = project.sources().Path(work[i].file);
    // Runs on every exit path: the progress heartbeat never misses a
    // function, quarantined or not.
    struct FunctionTick {
      ~FunctionTick() {
        if (ProgressEnabled()) {
          ProgressMeter::Global().FunctionDone();
        }
      }
    } tick;

    auto run_one = [&](size_t c, CheckerContext& ctx) {
      const Checker* checker = runnable[c];
      std::vector<UnusedDefCandidate> found = checker->Check(ctx);
      for (UnusedDefCandidate& cand : found) {
        cand.checker = checker->name();
        cand.checker_index = static_cast<int>(c);
        cand.fingerprint_ns = checker->fingerprint_namespace();
        cand.from_baseline = checker->is_baseline();
        per_function[i].candidates.push_back(std::move(cand));
      }
    };

    if (!isolate) {
      CheckerContext ctx(project, work[i].file, *work[i].func, nullptr);
      for (size_t c = 0; c < runnable.size(); ++c) {
        run_one(c, ctx);
      }
      return;
    }

    // Isolation boundary: an exception here (injected, budget, or a real
    // worker bug) quarantines at the scope that contains it. The catches
    // must live inside the worker body — ParallelFor rethrows and cancels
    // remaining chunks.
    try {
      if (fault != nullptr) {
        fault->MaybeFault(fault_sites::kDetectFunction, path + ":" + work[i].func->name);
      }
    } catch (const std::exception& e) {
      // Whole-function quarantine, same record shape as the pre-framework
      // detector (no checker attribution).
      per_function[i].quarantined.push_back(
          QuarantinedUnit{path, work[i].func->name, "detect", e.what(), ""});
      return;
    }
    std::unique_ptr<BudgetMeter> meter;
    if (metered) {
      meter = std::make_unique<BudgetMeter>(*budget);
    }
    CheckerContext ctx(project, work[i].file, *work[i].func, meter.get());
    for (size_t c = 0; c < runnable.size(); ++c) {
      try {
        run_one(c, ctx);
      } catch (const BudgetExceededError& e) {
        // The meter is shared across the function's checkers: once it blows,
        // the remaining checkers would throw on their first Charge too.
        per_function[i].quarantined.push_back(
            QuarantinedUnit{path, work[i].func->name, "detect", e.what(), runnable[c]->name()});
        break;
      } catch (const std::exception& e) {
        per_function[i].quarantined.push_back(
            QuarantinedUnit{path, work[i].func->name, "detect", e.what(), runnable[c]->name()});
      }
    }
  });
  return per_function;
}

std::vector<const Checker*> GateCheckers(const Project& project,
                                         const std::vector<const Checker*>& checkers,
                                         const ProjectTraits& traits,
                                         std::vector<QuarantinedUnit>& quarantined) {
  // Capability gate: a checker that cannot analyze this project at all is
  // quarantined project-wide (one record, stage "checker") and excluded from
  // the run, in registration order.
  std::vector<const Checker*> runnable;
  for (const Checker* checker : checkers) {
    std::string reason = checker->Unsupported(project, traits);
    if (reason.empty()) {
      runnable.push_back(checker);
    } else {
      quarantined.push_back(QuarantinedUnit{"", "", "checker", reason, checker->name()});
    }
  }
  return runnable;
}

void TallyCheckerRun(const std::vector<const Checker*>& runnable,
                     const std::vector<CandidateSlices::Slice>& finished, DetectSlices& detect) {
  std::vector<uint64_t> counts(runnable.size(), 0);
  detect.candidates = 0;
  for (size_t i = 0; i < detect.slices.size(); ++i) {
    const CandidateSlice& slice = detect.At(i, finished);
    detect.candidates += slice.candidates.size();
    for (size_t c = 0; c < slice.per_checker.size(); ++c) {
      counts[c] += slice.per_checker[c];
    }
  }
  detect.per_checker.clear();
  for (size_t c = 0; c < runnable.size(); ++c) {
    detect.per_checker.push_back({runnable[c]->name(), counts[c]});
    if (RunEventsEnabled()) {
      RunEvent("checker_done")
          .Str("checker", runnable[c]->name())
          .Num("candidates", counts[c])
          .Emit();
    }
  }
}

std::shared_ptr<CandidateSlice> SliceFunctions(std::span<FunctionDetect> functions) {
  auto slice = std::make_shared<CandidateSlice>();
  size_t count = 0;
  for (const FunctionDetect& fn : functions) {
    count += fn.candidates.size();
  }
  slice->candidates.reserve(count);
  slice->functions.reserve(functions.size());
  for (FunctionDetect& fn : functions) {
    slice->AddFunction(std::move(fn.candidates), std::move(fn.quarantined));
  }
  slice->CountDetect();
  return slice;
}

namespace {

// Every function of the project, in unit order. unit_order() keeps the visit
// order stable whether the project was built fresh or mutated incrementally.
std::vector<CheckerWorkItem> AllFunctions(const Project& project) {
  std::vector<CheckerWorkItem> work;
  for (size_t m : project.unit_order()) {
    const auto& module = project.modules()[m];
    for (const auto& func : module->functions) {
      work.push_back({module->file, func.get()});
    }
  }
  return work;
}

}  // namespace

DetectSlices RunCheckersSliced(const Project& project, const std::vector<const Checker*>& checkers,
                               const ProjectTraits& traits, int jobs,
                               const ResourceBudget* budget, const FaultInjector* fault,
                               bool isolate) {
  DetectSlices result;
  std::vector<const Checker*> runnable = GateCheckers(project, checkers, traits, result.quarantined);
  // The flattened iteration space lets the pool balance uneven functions.
  const std::vector<CheckerWorkItem> work = AllFunctions(project);
  std::vector<FunctionDetect> per_function =
      RunCheckersOnFunctions(project, runnable, jobs, budget, fault, isolate, work);
  result.functions = work.size();

  // Each file's functions are a contiguous run of the work list.
  const std::vector<size_t>& units = project.unit_order();
  std::vector<size_t> begin(units.size() + 1, 0);
  for (size_t i = 0; i < units.size(); ++i) {
    begin[i + 1] = begin[i] + project.modules()[units[i]]->functions.size();
  }
  result.slices.resize(units.size());
  ParallelFor(jobs, units.size(), [&](size_t i) {
    result.slices[i] = SliceFunctions(
        std::span<FunctionDetect>(per_function).subspan(begin[i], begin[i + 1] - begin[i]));
  });
  TallyCheckerRun(runnable, {}, result);
  return result;
}

CheckerRunResult RunCheckers(const Project& project, const std::vector<const Checker*>& checkers,
                             const ProjectTraits& traits, int jobs,
                             const ResourceBudget* budget, const FaultInjector* fault,
                             bool isolate) {
  DetectSlices detect =
      RunCheckersSliced(project, checkers, traits, jobs, budget, fault, isolate);
  CheckerRunResult result;
  result.functions = detect.functions;
  result.quarantined = std::move(detect.quarantined);
  result.per_checker = std::move(detect.per_checker);
  result.candidates.reserve(detect.candidates);
  for (const std::shared_ptr<CandidateSlice>& slice : detect.slices) {
    std::move(slice->candidates.begin(), slice->candidates.end(),
              std::back_inserter(result.candidates));
    std::move(slice->quarantined.begin(), slice->quarantined.end(),
              std::back_inserter(result.quarantined));
  }
  return result;
}

}  // namespace vc
