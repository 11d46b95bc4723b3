// The incremental re-analysis engine (DESIGN.md §18).
//
// An IncrementalEngine is the one holder of incremental analysis state. It
// takes two inputs and, after each, produces the COMPLETE report:
// AnalyzeCommit consumes a repository's commits in order, and its report is
// byte-identical (findings, fingerprints, order, quarantine records) to a
// full Analysis::RunOnRepository over Repository::PrefixCopy(commit);
// AnalyzeSnapshot brings the project to exactly the given files, and its
// report is byte-identical to Analysis::RunOnSources over them in path
// order (batch `analyze <files>`). The differential test battery
// (tests/incremental_equivalence_test.cc, the incremental_equivalence fuzz
// oracle) holds both inputs to exactly that.
//
// Equivalence is by construction, not by patching:
//
//  * Both inputs share one sync: a persistent Project recompiles only files
//    whose content hash changed, across `jobs` lanes; an unchanged file's
//    parsed TU and lowered IR are never rebuilt, and its slot (FileId) is
//    stable, so carried results keep valid locations. The project's function
//    index stays warm: a sync rebuilds only the entries of the names the
//    changed files define or call.
//  * For commits, the engine owns a Repository replica fed commit by
//    commit, so blame, authorship, stale-code matching, and ranking
//    familiarity all see a repository whose head IS the analyzed commit —
//    the same view a full run over the prefix copy sees. The replica shares
//    the source's immutable commits (Repository::AddCommitFrom) instead of
//    copying their contents, and stays valid if the source goes away. Head
//    blame advances through resumable per-path replay states (O(commit
//    delta), byte-identical to replay). A snapshot's later stages see no
//    repository.
//  * One carry rule: a file's detect results are carried exactly when its
//    content hash matched, from the AnalysisCache (memory tier always; a
//    --cache-dir disk tier persists across processes). Every function of a
//    recompiled, cold-start or disk-missed file re-runs. Each file lowers on
//    its own, so a function_local() checker's result depends only on its own
//    file; a checker with function_local() == false disables carry-over.
//  * Each live file's candidates are one slice (CandidateSlice) with its own
//    tallies, which its cache entry owns and every report that carries the
//    file shares; a published slice is never written. A carried file's slice
//    goes into the report as a pointer copy, so an analysis copies, scans
//    and frees only the slices of the files it re-runs.
//  * The stages after detection run through the same
//    Analysis::RunWithDetect code path a full run uses, over every live
//    file's slice, and do work in proportion to the change. Peer
//    statistics stay warm: only recompiled, re-detected or removed files'
//    contributions are replaced, and only the names they list are decided
//    again. A file's classification and prune verdicts carry when its
//    detect results carried and it defines or calls no name the update
//    touched — a candidate reads other files only through those names' index
//    entries and their files' blame — except that a carried parameter
//    candidate whose signature group flipped is matched again, in a copy of
//    its slice (copy on write, paid only when a group flips). Nothing
//    carries while stale-code pruning is on, or when a commit batch left a
//    touched path's bytes unchanged (its blame may still have moved). The
//    classification, the cross-scope filter and the prune patterns read only
//    the re-run slices; the report's totals (per-checker counts, filter and
//    prune statistics) are sums of every slice's tallies, and its findings
//    are copies of the slices' survivors. The entries keep the slices the
//    report publishes. Ranking and fingerprints run over the findings.

#ifndef VALUECHECK_SRC_CORE_INCREMENTAL_H_
#define VALUECHECK_SRC_CORE_INCREMENTAL_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
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

// Result of one incremental analysis.
struct IncrementalResult {
  // The complete report — equivalent to a full run over the repository
  // truncated at `commit`, or over the snapshot's files.
  AnalysisReport report;
  CommitId commit = kInvalidCommit;  // kInvalidCommit for a snapshot
  // Work actually performed for this input.
  int files_changed = 0;     // commits: paths the batch touched (incl. deletes);
                             // snapshot: paths added, edited or deleted
  int files_reparsed = 0;    // content-hash misses among them (recompiled)
  int functions_dirty = 0;   // functions re-run through the checkers
  int functions_total = 0;   // live functions after the sync
  // Fingerprint-keyed delta against the previous analysis.
  int findings_carried = 0;  // same fingerprint as before
  int findings_new = 0;
  int findings_fixed = 0;    // present before, gone now
  // Cumulative engine cache telemetry (also published as cache.* metrics).
  CacheStats cache;
  double seconds = 0.0;      // this call, end to end

  // Convenience accessor kept for callers that only consume findings.
  const std::vector<UnusedDefCandidate>& findings() const { return report.findings; }
};

class IncrementalEngine {
 public:
  explicit IncrementalEngine(AnalysisOptions options, IncrementalOptions inc = {});

  // Feeds `commit` (replaying any skipped predecessors) and produces the
  // complete report at that commit. Commits must not go back past the
  // engine's head, and an engine that took a snapshot takes no commits.
  IncrementalResult AnalyzeCommit(const Repository& source, CommitId commit);

  // Brings the project to exactly `files` (distinct paths): paths it lacks
  // are deleted, and changed content recompiles under the carry rule. Every
  // later stage runs with no repository, as a sources-mode run does.
  IncrementalResult AnalyzeSnapshot(
      const std::vector<std::pair<std::string, std::string>>& files);

  const CacheStats& cache_stats() const { return cache_.stats(); }
  // The per-path entries, each holding its file's finished slice.
  const AnalysisCache& cache() const { return cache_; }

  // Adjusts worker parallelism between analyses. Jobs is deliberately absent
  // from MakeCacheConfigKey — findings are byte-identical at any job count —
  // so the daemon can honor a per-request `jobs` without invalidating the
  // warm cache or rebuilding the engine.
  void set_jobs(int jobs) { analysis_.options().jobs = jobs; }

 private:
  // Ingests exactly one commit, shared with `source`, into the replica and
  // the pending-path set.
  void Ingest(const Repository& source, CommitId commit);
  // The sync both inputs share: brings each of `files` — distinct paths,
  // each with its content, null when deleted — to that state, recompiling
  // the content-hash misses across `jobs` lanes. Returns how many files were
  // added, edited or deleted.
  int Sync(const std::vector<std::pair<std::string, const std::string*>>& files);
  // Times `sync` (which returns files_changed) as the parse stage, then
  // detects and runs every later stage against `repo`.
  IncrementalResult Analyze(const Repository* repo, CommitId commit,
                            const std::function<int()>& sync);

  Analysis analysis_;
  IncrementalOptions inc_;
  Repository repo_;    // commit input's replica; head == last ingested commit
  Project project_;    // persistent, mutated in place by each sync
  AnalysisCache cache_;
  std::set<std::string> pending_;  // paths touched since the last analysis
  std::vector<QuarantinedUnit> cache_quarantine_;  // corrupt disk entries of a sync
  // Disk-tier hits of a sync, with the slices they restored.
  std::vector<std::pair<FileCacheEntry*, std::shared_ptr<CandidateSlice>>> restored_;
  std::vector<FileId> changed_;                    // files a sync recompiled or removed
  // The post-detect state the next analysis may carry: the peer statistics,
  // and the verdicts the entries' slices hold. Warm only after an analysis
  // whose prune stage finished every slice, against the same kind of input.
  PeerStats peers_;
  bool warm_tail_ = false;
  const Repository* tail_repo_ = nullptr;
  bool took_snapshot_ = false;
  // Fingerprints of the previous report's findings, sorted and distinct
  // (carried/new/fixed delta).
  std::vector<std::string> prev_fingerprints_;
};

// Canonical configuration key for the cache: folds in everything besides
// file content that invalidates cached detect results — preprocessor macros,
// the resolved checker list, project traits, budget and fault settings, and
// the cache schema version. Exposed for the stale-key tests.
std::string MakeCacheConfigKey(const AnalysisOptions& options);

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_INCREMENTAL_H_
