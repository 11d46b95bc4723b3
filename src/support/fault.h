// Fault isolation and resource budgets for the analysis pipeline.
//
// The paper's headline result is whole-kernel scale, which is only credible
// when one pathological translation unit cannot stall or kill the run. This
// module supplies the three pieces the pipeline layers share:
//
//   ResourceBudget   per-unit limits (wall-clock deadline, abstract step
//                    caps). A unit that exceeds its budget is *quarantined* —
//                    dropped with a structured record — instead of aborting
//                    the run or hanging it.
//   BudgetMeter      the per-unit enforcement object workers charge as they
//                    do work; throws BudgetExceededError past the limit.
//   FaultInjector    deterministic, seeded fault injection at named sites
//                    (parse/detect/prune/rank). The decision to fault is a
//                    pure function of (seed, site, unit key) — never a shared
//                    counter — so the quarantine set is byte-identical at any
//                    --jobs and across runs.
//   QuarantinedUnit  the structured record a quarantined file/function leaves
//                    behind (surfaced in AnalysisReport, the JSON report's
//                    schema-v5 `quarantined` block, metrics, and the ledger).
//
// See DESIGN.md §"Fault isolation & budgets" for the injection-site catalog
// and the degradation contract.

#ifndef VALUECHECK_SRC_SUPPORT_FAULT_H_
#define VALUECHECK_SRC_SUPPORT_FAULT_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace vc {

// One isolated unit the pipeline gave up on. `function` is empty when a whole
// file was quarantined (parse stage); `stage` is one of "parse", "detect",
// "prune", "rank"; `reason` is the exception/budget/injection message.
struct QuarantinedUnit {
  std::string path;
  std::string function;
  std::string stage;
  std::string reason;
  // Which checker hit the fault, when the quarantine is checker-scoped (the
  // "checker" stage, or a single checker crashing inside "detect"). Empty for
  // parse-stage and whole-function records.
  std::string checker;
};

// Named injection sites, one per pipeline stage that isolates units. The unit
// key is the file path (parse) or "path:function" (the function stages).
namespace fault_sites {
inline constexpr const char kParseFile[] = "parse.file";
inline constexpr const char kDetectFunction[] = "detect.function";
inline constexpr const char kPruneFunction[] = "prune.function";
inline constexpr const char kRankFunction[] = "rank.function";
}  // namespace fault_sites

// Thrown by BudgetMeter (and the stage-level deadline checks) when a unit
// exceeds its budget. Callers catch it at the unit boundary and quarantine.
class BudgetExceededError : public std::runtime_error {
 public:
  explicit BudgetExceededError(const std::string& what) : std::runtime_error(what) {}
};

// Thrown by FaultInjector::MaybeFault at a tripped site. Deliberately a
// distinct type so tests can tell injected faults from real ones, but it
// still derives from std::runtime_error so the generic per-unit catch
// quarantines it like any worker crash.
class InjectedFaultError : public std::runtime_error {
 public:
  explicit InjectedFaultError(const std::string& what) : std::runtime_error(what) {}
};

// Per-unit resource limits. Zero means unlimited; the defaults keep every
// existing caller's behavior (no budgets) except the always-on structural
// caps that live with their subsystems (parser recursion depth, which
// parse_depth_limit overrides, and the Andersen iteration ceiling, which
// nothing overrides).
struct ResourceBudget {
  // Wall-clock deadline per unit (file in parse, function in detect).
  // Checked at stage checkpoints and every ~1k meter steps — honest
  // best-effort, and inherently machine-dependent: deadline quarantines are
  // the one knob that can differ run to run, so it defaults off.
  double unit_deadline_seconds = 0.0;
  // Abstract detector steps per function (instructions visited across the
  // liveness/define-set fix points and the replay). Deterministic.
  uint64_t detect_step_limit = 0;
  // Parser recursion depth (0 = the parser's built-in kDefaultParseDepth).
  int parse_depth_limit = 0;

  bool Unlimited() const {
    return unit_deadline_seconds <= 0.0 && detect_step_limit == 0;
  }
};

// The enforcement object one worker charges while processing one unit.
// Cheap when the budget is unlimited: a branch per Charge.
class BudgetMeter {
 public:
  explicit BudgetMeter(const ResourceBudget& budget);

  // Records `steps` units of work; throws BudgetExceededError when the step
  // limit is passed or (every ~1024 steps) the deadline has elapsed.
  void Charge(uint64_t steps = 1);

  uint64_t steps() const { return steps_; }

 private:
  uint64_t steps_ = 0;
  uint64_t step_limit_ = 0;
  uint64_t next_deadline_check_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

// Deterministic seeded fault injection. Disabled (rate 0) by default, so an
// AnalysisOptions carrying a default-constructed injector is a clean run.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(uint64_t seed, double rate);

  bool enabled() const { return rate_ > 0.0; }
  uint64_t seed() const { return seed_; }
  double rate() const { return rate_; }

  // True when this (site, unit) pair faults under the seed/rate. Pure
  // function of its arguments and the seed: no state, no ordering effects.
  bool ShouldFault(std::string_view site, std::string_view unit) const;

  // Throws InjectedFaultError when ShouldFault is true.
  void MaybeFault(std::string_view site, std::string_view unit) const;

  // Parses the CLI "SEED:RATE" spelling (e.g. "42:0.1", rate in [0,1]).
  static std::optional<FaultInjector> Parse(const std::string& spec,
                                            std::string* error = nullptr);

 private:
  uint64_t seed_ = 0;
  double rate_ = 0.0;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_FAULT_H_
