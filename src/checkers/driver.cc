#include "src/checkers/driver.h"

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

    auto run_one = [&](const Checker* checker, CheckerContext& ctx) {
      std::vector<UnusedDefCandidate> found = checker->Check(ctx);
      for (UnusedDefCandidate& cand : found) {
        cand.checker = checker->name();
        cand.fingerprint_ns = checker->fingerprint_namespace();
        cand.from_baseline = checker->is_baseline();
        per_function[i].candidates.push_back(std::move(cand));
      }
    };

    if (!isolate) {
      CheckerContext ctx(project, work[i].file, *work[i].func, nullptr);
      for (const Checker* checker : runnable) {
        run_one(checker, ctx);
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
    for (const Checker* checker : runnable) {
      try {
        run_one(checker, ctx);
      } catch (const BudgetExceededError& e) {
        // The meter is shared across the function's checkers: once it blows,
        // the remaining checkers would throw on their first Charge too.
        per_function[i].quarantined.push_back(
            QuarantinedUnit{path, work[i].func->name, "detect", e.what(), checker->name()});
        break;
      } catch (const std::exception& e) {
        per_function[i].quarantined.push_back(
            QuarantinedUnit{path, work[i].func->name, "detect", e.what(), checker->name()});
      }
    }
  });

  if (MetricsEnabled()) {
    MetricsRegistry::Global().GetCounter("detect.functions").Add(work.size());
  }
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

void MergeFunctionDetects(const std::vector<const Checker*>& runnable,
                          std::vector<FunctionDetect> per_function, CheckerRunResult& result) {
  std::vector<uint64_t> per_checker_counts(runnable.size(), 0);
  size_t quarantine_count = 0;
  for (FunctionDetect& fn : per_function) {
    for (auto& cand : fn.candidates) {
      for (size_t c = 0; c < runnable.size(); ++c) {
        if (runnable[c]->name() == cand.checker) {
          ++per_checker_counts[c];
          break;
        }
      }
      result.candidates.push_back(std::move(cand));
    }
    for (auto& record : fn.quarantined) {
      result.quarantined.push_back(std::move(record));
      ++quarantine_count;
    }
  }
  for (size_t c = 0; c < runnable.size(); ++c) {
    result.per_checker.push_back({runnable[c]->name(), per_checker_counts[c]});
    if (RunEventsEnabled()) {
      RunEvent("checker_done")
          .Str("checker", runnable[c]->name())
          .Num("candidates", per_checker_counts[c])
          .Emit();
    }
  }
  if (MetricsEnabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.GetCounter("detect.candidates").Add(result.candidates.size());
    for (size_t c = 0; c < runnable.size(); ++c) {
      registry.GetCounter("detect." + runnable[c]->name() + ".candidates")
          .Add(per_checker_counts[c]);
    }
    if (quarantine_count > 0) {
      registry.GetCounter("fault.quarantined.detect").Add(quarantine_count);
    }
  }
}

CheckerRunResult RunCheckers(const Project& project, const std::vector<const Checker*>& checkers,
                             const ProjectTraits& traits, int jobs,
                             const ResourceBudget* budget, const FaultInjector* fault,
                             bool isolate) {
  CheckerRunResult result;
  std::vector<const Checker*> runnable = GateCheckers(project, checkers, traits, result.quarantined);

  // Flatten the iteration space so the pool can balance uneven functions.
  // unit_order() keeps the visit order stable whether the project was built
  // fresh or mutated incrementally.
  std::vector<CheckerWorkItem> work;
  for (size_t m : project.unit_order()) {
    const auto& module = project.modules()[m];
    for (const auto& func : module->functions) {
      work.push_back({module->file, func.get()});
    }
  }

  MergeFunctionDetects(runnable,
                       RunCheckersOnFunctions(project, runnable, jobs, budget, fault, isolate, work),
                       result);
  return result;
}

}  // namespace vc
