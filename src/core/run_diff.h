// Run-to-run differencing over the run ledger: classifies findings as
// new/fixed/persistent by fingerprint and computes metric deltas with
// configurable regression thresholds. This is the layer `vc diff --check`
// gates CI on, and the measurement lens every perf PR is judged through.
//
// Determinism contract: everything in the diff except timing deltas is
// derived from fingerprints and slot-merge-ordered counters, so the default
// rendered diff (timings off) is byte-identical regardless of the --jobs
// value either run used.

#ifndef VALUECHECK_SRC_CORE_RUN_DIFF_H_
#define VALUECHECK_SRC_CORE_RUN_DIFF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/support/run_ledger.h"

namespace vc {

// Converts a finished report into the ledger's plain-data record.
// `timestamp_ms` is caller-supplied wall clock (the library takes no clock
// dependency); `label` is free-form provenance (corpus path, git rev, bench
// configuration). Findings must already carry fingerprints (Analysis::Run
// assigns them).
RunRecord MakeRunRecord(const AnalysisReport& report, const std::string& label,
                        int64_t timestamp_ms);

// Fills the ledger-v4 incremental slice of `metrics` from a per-commit
// engine result (work accounting + cache hit rate), marking it collected.
struct IncrementalResult;
void FillIncrementalMetrics(const IncrementalResult& result, LedgerMetrics& metrics);

// What counts as a regression when diffing run A (baseline) → run B.
struct RegressionThresholds {
  // Any new finding beyond this count fails the check. 0 = strict.
  int max_new_findings = 0;
  // A stage's seconds regress when after > before * stage_ratio AND the
  // absolute growth exceeds stage_floor_seconds — the floor keeps millisecond
  // jitter on small corpora from tripping the gate.
  double stage_ratio = 1.5;
  double stage_floor_seconds = 0.05;
  // A pruning pattern regresses when its prune rate (pruned/tested) drops by
  // more than this absolute amount (weaker pruning → more noise downstream).
  double prune_rate_drop = 0.10;
};

// One compared metric. `regressed` is set per the thresholds above; timing
// metrics are marked `timing` and machine-dependent point samples (peak RSS)
// are marked `sampled` so renderers can keep the deterministic sections
// separate.
struct MetricDelta {
  std::string name;
  double before = 0.0;
  double after = 0.0;
  bool timing = false;
  bool sampled = false;
  bool regressed = false;
};

struct RunDiff {
  std::string run_a;  // baseline run id
  std::string run_b;
  // (checker, fingerprint) classification. "new" = only in B, "fixed" = only
  // in A. A finding whose checker the other run did not enable is excluded
  // from these lists — enabling a checker is not "new bugs" and disabling one
  // is not "bugs fixed"; the checkers_added/checkers_removed note carries
  // that information instead.
  // Each list is sorted by RunDiffOrder.
  std::vector<LedgerFinding> added;
  std::vector<LedgerFinding> fixed;
  std::vector<LedgerFinding> persistent;
  // Checker-set drift between the runs (names only in B / only in A).
  std::vector<std::string> checkers_added;
  std::vector<std::string> checkers_removed;
  std::vector<MetricDelta> deltas;
  // Human-readable threshold breaches (one line each); empty = check passes.
  std::vector<std::string> regressions;

  bool HasRegressions() const { return !regressions.empty(); }
};

// The order of RunDiff's finding lists — (file, checker, fingerprint) — a
// stable order independent of either run's internal ordering.
bool RunDiffOrder(const LedgerFinding& a, const LedgerFinding& b);

RunDiff ComputeRunDiff(const RunRecord& a, const RunRecord& b,
                       const RegressionThresholds& thresholds = RegressionThresholds());

// Text rendering. With include_timings=false (the default) the output holds
// only deterministic content — counts, fingerprints, counter deltas — and is
// byte-identical across reruns at any job count.
std::string RenderDiffText(const RunDiff& diff, bool include_timings = false);

// Machine form of the full diff (timings always included; consumers decide).
std::string DiffToJson(const RunDiff& diff);

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_RUN_DIFF_H_
