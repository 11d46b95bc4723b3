// Warm per-project analysis state for the serve daemon (DESIGN.md §19).
//
// A ProjectHost is the daemon-side identity of one client project (a TPC-C
// "warehouse"): an IncrementalEngine kept warm across requests, the engine's
// latest result, and a bounded in-memory history of analysis summaries that
// the diff/history/report methods answer from without re-running anything.
// The engine holds the project's one snapshot; the host keeps only each
// path's content hash, to tell a repeat from an edit.
//
// Equivalence contract (locked by tests/server_test.cc at jobs 1/2/8): an
// analyze response's findings are byte-identical to a batch
// `valuecheck analyze` over the same sources with the same checker set. The
// host therefore analyzes with the batch sources-mode option shape
// (cross_scope_only off, ranking off — no real authorship exists for pasted
// sources) and hands the path-sorted snapshot to the engine's snapshot input,
// which is itself proven byte-identical to full runs (DESIGN.md §18).
//
// Request flow per analyze:
//   snapshot and config unchanged  -> cached response (no analysis)
//   otherwise                      -> engine AnalyzeSnapshot
//   config key changed             -> engine rebuilt (correctness over
//                                     warmth), then fed as above
//
// Snapshot numbers (`commit` in responses) count distinct consecutive
// snapshots from 0: a cached repeat and an engine rebuild over the same
// snapshot keep the number.
//
// Thread safety: all public methods serialize on a per-host mutex, so two
// clients analyzing the same warehouse never interleave engine state; hosts
// for different projects run fully in parallel. A returned result is
// immutable and shared, so it stays valid while later requests run.

#ifndef VALUECHECK_SRC_SERVER_PROJECT_HOST_H_
#define VALUECHECK_SRC_SERVER_PROJECT_HOST_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/incremental.h"

namespace vc {

// One past analysis, summarized for diff/history/report answers.
struct ProjectRunSummary {
  int64_t commit = -1;        // snapshot number analyzed
  int findings = 0;
  bool degraded = false;
  int quarantined = 0;
  int files_changed = 0;
  int functions_dirty = 0;
  int findings_new = 0;
  int findings_fixed = 0;
  double seconds = 0.0;
  std::vector<std::string> fingerprints;  // finding identity set at the snapshot
  std::vector<AnalysisReport::CheckerStat> checker_stats;
};

struct ProjectAnalyzeOutcome {
  // The analysis answering the request; its `commit` is the snapshot number.
  std::shared_ptr<const IncrementalResult> result;
  bool cached = false;  // snapshot + config unchanged; `result` is the last one
};

class ProjectHost {
 public:
  // `base` supplies everything a request doesn't override (config, traits,
  // prune/rank toggles). `history_limit` bounds the summary ring.
  ProjectHost(std::string name, AnalysisOptions base, size_t history_limit = 64);

  const std::string& name() const { return name_; }

  // Runs (or replays) analysis of `sources` under `options`. `options` must
  // already carry the request's checkers/fault/budget/jobs folded into the
  // base; the host only decides engine reuse vs rebuild.
  ProjectAnalyzeOutcome Analyze(
      const std::vector<std::pair<std::string, std::string>>& sources,
      const AnalysisOptions& options);

  // Most recent summaries, newest first, up to `limit`.
  std::vector<ProjectRunSummary> History(size_t limit) const;

  // Newest summary; false when the project was never analyzed.
  bool Latest(ProjectRunSummary* out) const;

  // Fingerprint delta between the two newest distinct analyses. False when
  // fewer than two analyses exist.
  bool Diff(std::vector<std::string>* added, std::vector<std::string>* removed) const;

  int64_t analyses() const;
  int64_t engine_rebuilds() const;

 private:
  const std::string name_;
  const AnalysisOptions base_;
  const size_t history_limit_;

  mutable std::mutex mutex_;
  std::unique_ptr<IncrementalEngine> engine_;
  std::string engine_key_;  // MakeCacheConfigKey of the engine, once it answered
  // (path, HashContent) of the last analyzed snapshot, in path order.
  std::vector<std::pair<std::string, uint64_t>> snapshot_;
  std::shared_ptr<const IncrementalResult> last_;
  int64_t analyses_ = 0;
  int64_t engine_rebuilds_ = 0;
  std::deque<ProjectRunSummary> history_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_SERVER_PROJECT_HOST_H_
