// The incremental re-analysis engine (DESIGN.md §18).
//
// An IncrementalEngine consumes a repository's commits in order and, after
// each one, produces the COMPLETE analysis report as of that commit —
// byte-identical (findings, fingerprints, order, quarantine records) to a
// full Analysis::RunOnRepository over Repository::PrefixCopy(commit). The
// differential test battery (tests/incremental_equivalence_test.cc, the
// incremental_equivalence fuzz oracle) holds it to exactly that.
//
// Equivalence is by construction, not by patching:
//
//  * The engine owns a growing Repository replica fed commit-by-commit, so
//    blame, authorship, stale-code matching, and ranking familiarity all see
//    a repository whose head IS the analyzed commit — the same view a full
//    run over the prefix copy sees. Head blame advances through resumable
//    per-path replay states (O(commit delta), byte-identical to replay).
//  * A persistent Project recompiles only files whose content hash changed;
//    an unchanged file's parsed TU and lowered IR are never rebuilt, and its
//    slot (FileId) is stable, so carried results keep valid locations.
//  * One carry rule: a file's detect results are carried exactly when its
//    content hash matched, from the AnalysisCache (memory tier always; a
//    --cache-dir disk tier persists across processes). Every function of a
//    recompiled, cold-start or disk-missed file re-runs. Each file lowers on
//    its own, so a function_local() checker's result depends only on its own
//    file; a checker with function_local() == false disables carry-over.
//  * Every stage after detection (authorship, cross-scope filter, pruning
//    with its GLOBAL peer statistics, ranking, fingerprints) re-runs each
//    commit over the complete assembled candidate set, through the same
//    Analysis::RunWithDetect code path a full run uses.

#ifndef VALUECHECK_SRC_CORE_INCREMENTAL_H_
#define VALUECHECK_SRC_CORE_INCREMENTAL_H_

#include <set>
#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/analysis_cache.h"
#include "src/core/project.h"
#include "src/vcs/repository.h"

namespace vc {

struct IncrementalOptions {
  // Disk tier for the analysis cache; empty keeps the cache in memory only.
  std::string cache_dir;
};

// Result of per-commit incremental analysis.
struct IncrementalResult {
  // The complete report as of `commit` — equivalent to a full run over the
  // repository truncated at that commit.
  AnalysisReport report;
  CommitId commit = kInvalidCommit;
  // Work actually performed for this commit.
  int files_changed = 0;     // paths the commit batch touched (incl. deletes)
  int files_reparsed = 0;    // content-hash misses among them (recompiled)
  int functions_dirty = 0;   // functions re-run through the checkers
  int functions_total = 0;   // live functions at the commit
  // Fingerprint-keyed delta against the previous analyzed commit.
  int findings_carried = 0;  // same fingerprint as before
  int findings_new = 0;
  int findings_fixed = 0;    // present before, gone now
  // Cumulative engine cache telemetry (also published as cache.* metrics).
  CacheStats cache;
  double seconds = 0.0;      // this commit, end to end

  // Convenience accessor kept for callers that only consume findings.
  const std::vector<UnusedDefCandidate>& findings() const { return report.findings; }
};

class IncrementalEngine {
 public:
  explicit IncrementalEngine(AnalysisOptions options, IncrementalOptions inc = {});

  // Fast-forwards the engine's repository replica through `commit` without
  // analyzing (the touched paths stay pending until the next AnalyzeCommit).
  // Commits must be fed in id order; the engine replays any gap from its
  // current head itself, so callers may simply hand it the target commit.
  void ApplyCommit(const Repository& source, CommitId commit);

  // Feeds `commit` (replaying any skipped predecessors) and produces the
  // complete report at that commit.
  IncrementalResult AnalyzeCommit(const Repository& source, CommitId commit);

  // The next commit id the engine expects (== number of commits ingested).
  CommitId next_commit() const { return static_cast<CommitId>(repo_.NumCommits()); }

  const Repository& repo() const { return repo_; }
  const AnalysisOptions& options() const { return analysis_.options(); }
  const CacheStats& cache_stats() const { return cache_.stats(); }

  // Adjusts worker parallelism between commits. Jobs is deliberately absent
  // from MakeCacheConfigKey — findings are byte-identical at any job count —
  // so the daemon can honor a per-request `jobs` without invalidating the
  // warm cache or rebuilding the engine.
  void set_jobs(int jobs) { analysis_.options().jobs = jobs; }

 private:
  // Ingests exactly one commit into the replica and the pending-path set.
  void Ingest(const Repository& source, CommitId commit);

  Analysis analysis_;
  IncrementalOptions inc_;
  Repository repo_;    // replica; head == last ingested commit
  Project project_;    // persistent, mutated in place per commit
  AnalysisCache cache_;
  std::set<std::string> pending_;  // paths touched since the last analysis
  // Fingerprints of the previous report's findings (carried/new/fixed delta).
  std::set<std::string> prev_fingerprints_;
};

// Canonical configuration key for the cache: folds in everything besides
// file content that invalidates cached detect results — preprocessor macros,
// the resolved checker list, project traits, budget and fault settings, and
// the cache schema version. Exposed for the stale-key tests.
std::string MakeCacheConfigKey(const AnalysisOptions& options);

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_INCREMENTAL_H_
