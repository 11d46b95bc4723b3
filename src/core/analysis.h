// The unified analysis API: one options struct, one facade.
//
// vc::Analysis fronts the full ValueCheck pipeline of Fig. 2 —
//
//   parse + lower                       (Project construction, parallel)
//       → detect unused definitions     (detector, parallel per function)
//       → classify authorship           (§3.1 cross-scope scenarios)
//       → prune false positives         (pruning pipeline)
//       → rank by code familiarity      (ranking)
//       → report
//
// and AnalysisOptions is the single knob surface: the enabled checkers, the
// cross-scope filter, every pruning pattern, the ranking model, the
// preprocessor configuration, and the `jobs` parallelism degree. The parallel
// stages (parse/lower and detection) merge their per-unit results in
// deterministic order, so findings and ranking are byte-identical at any job
// count.
//
// The detection stage is the checker framework (src/checkers/): each enabled
// checker runs per function over the shared memoized analyses, and its
// findings flow through the same downstream stages tagged with the checker's
// name and fingerprint namespace.

#ifndef VALUECHECK_SRC_CORE_ANALYSIS_H_
#define VALUECHECK_SRC_CORE_ANALYSIS_H_

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/checkers/driver.h"
#include "src/core/project.h"
#include "src/core/pruning.h"
#include "src/core/ranking.h"
#include "src/core/stage.h"
#include "src/core/unused_def.h"
#include "src/support/memstats.h"
#include "src/support/thread_pool.h"
#include "src/vcs/repository.h"

namespace vc {

// Every stage of the pipeline, configured in one place. The evaluation
// benches run the paper's ablations (Table 6) by toggling these, and the
// baselines section isolates capabilities the same way.
struct AnalysisOptions {
  // Checkers to run, by registry name (CLI --checkers). Empty = every
  // non-baseline checker. Resolution order is registry order regardless of
  // spelling; unknown names throw std::invalid_argument at Run time.
  std::vector<std::string> checkers;
  // Capability facts about the analyzed codebase, consulted by checkers'
  // Unsupported() gates (the baseline tools' Table 5 failure cells).
  ProjectTraits traits;
  // Keep only cross-scope candidates after authorship classification (§3.1).
  // Disabling reproduces the "w/o Authorship" ablation group.
  bool cross_scope_only = true;
  // Run the post-detect stages with repository context (blame-based kind
  // refinement, stale-code pruning, familiarity). Disabling makes a run
  // behave exactly like a repo-less sources-mode run even when a repository
  // is available. No product code disables it; perfbench's layer harness
  // reads it.
  bool authorship = true;
  PruneOptions prune;
  RankingOptions ranking;
  // Preprocessor macro configuration used when the facade parses sources.
  Config config;
  // Parallel worker lanes for parse/lower and detection. 1 = serial,
  // 0 = all hardware threads. Results are identical at any value.
  int jobs = 1;
  // Populate AnalysisReport::stage (ranking model time, thread-pool
  // activity) and memory, and feed the global MetricsRegistry. Findings are
  // byte-identical with the switch on or off; the cost when off is a handful
  // of relaxed atomic loads per run.
  bool collect_metrics = false;
  // Per-unit resource limits. A unit over budget is quarantined (see
  // AnalysisReport::quarantined), not fatal. Defaults are unlimited.
  ResourceBudget budget;
  // Deterministic fault injection for robustness testing (CLI --fault-inject,
  // the degraded_run oracle). Disabled by default. Quarantine decisions are a
  // pure function of (seed, site, unit), so the quarantine list and the
  // surviving findings are byte-identical at any `jobs`.
  FaultInjector fault;
};

// Run detail beyond the stage records' counts (see DESIGN.md
// §"Observability"; stage times and counts live in AnalysisReport::stages).
struct StageMetrics {
  // False when the producing run had collect_metrics off; consumers (the JSON
  // report, the CLI --metrics table) skip the block entirely.
  bool collected = false;
  // Time inside the ranking model's evaluation alone, over the slices this
  // run scored (an incremental run scores only the slices it re-ran).
  double rank_model_seconds = 0.0;
  // Global-pool activity attributable to this run (delta of two snapshots;
  // approximate if other analyses share the pool concurrently). All but the
  // idle time are deterministic at any job count.
  ThreadPoolStats pool;
};

struct AnalysisReport {
  // Final, ranked findings (pruned and, by default, cross-scope only): a
  // view of the survivors that raw_candidates' slices hold, each with its
  // familiarity and fingerprint. Ranking orders it by familiarity, path,
  // definition location and pool position; unranked, it keeps pool order.
  FindingsView findings;
  // Every candidate as detected, with its classification and pruned_by (what
  // pruned it, if anything), and on each survivor its familiarity and
  // fingerprint: one immutable slice per live file, in unit order, shared
  // with the incremental engine's cache and with the reports of other
  // commits that left the file alone. Iterating it yields the candidates in
  // detect order; size() counts them.
  CandidateSlices raw_candidates;
  // Prune statistics over the whole pool, summed from the slices'.
  PruneStats prune_stats;
  // Candidates the cross-scope filter dropped.
  int non_cross_scope = 0;
  // Wall clock of the whole pipeline, parse included: never less than the
  // sum of `stages`.
  double analysis_seconds = 0.0;
  // One record per stage, its seconds and counts, always filled. Parse is
  // the analyzed project's build (or the incremental engine's sync), and
  // counts the files that compiled; detect counts the functions that ran
  // through the checkers. Every sink reads the counts here.
  StageRecords stages;
  // Worker lanes the report was produced with (after 0 → hardware resolution).
  int jobs = 1;
  // Front-end diagnostics of the analyzed project (merged across workers in
  // file order), surfaced so callers no longer need the Project to see them.
  int diagnostic_warnings = 0;
  int diagnostic_errors = 0;
  // Fault isolation: true when any unit was quarantined (the run completed
  // but its results are a subset of a clean run's). `quarantined` lists the
  // dropped units in deterministic (file, then function visit) order.
  bool degraded = false;
  std::vector<QuarantinedUnit> quarantined;
  // The checkers this report ran, resolved names in registry order (the JSON
  // report, the ledger, and run diffs key findings by (checker, fingerprint)).
  std::vector<std::string> checkers;
  // Per-checker candidate and surviving-finding counts, in registry order.
  // Always populated (cheap and deterministic); feeds the ledger and the
  // dashboard's per-checker precision trend (findings / candidates).
  struct CheckerStat {
    std::string name;
    uint64_t candidates = 0;
    uint64_t findings = 0;
  };
  std::vector<CheckerStat> checker_stats;
  // Observability block; populated when AnalysisOptions::collect_metrics.
  StageMetrics stage;
  // Memory accounting (schema v7); populated when collect_metrics. Byte and
  // object counts are exact and identical at any job count; only the RSS
  // samples vary run to run.
  MemoryStats memory;
  // Set by the repository entry points: keeps the analyzed project (and with
  // it the AST/IR that finding pointers reference) alive as long as the
  // report.
  std::shared_ptr<Project> owned_project;

  // Copies of the first `k` findings (the report cutoff of Fig. 9).
  std::vector<UnusedDefCandidate> Top(size_t k) const {
    return {findings.begin(), findings.begin() + static_cast<long>(std::min(k, findings.size()))};
  }

  // CSV rows: file, line, function, slot, kind, familiarity.
  std::string ToCsv() const;
};

// What an incremental analysis hands the post-detect tail (DESIGN.md §18).
// A full run carries nothing: its peer statistics are built from every file,
// and every slice is fresh.
struct TailCarry {
  // Peer statistics kept across analyses. The prune stage replaces the
  // contributions of `changed` — the files recompiled, re-detected or
  // removed since the statistics were last updated — and re-decides the
  // names they list.
  PeerStats* peers = nullptr;
  std::vector<FileId> changed;
  // Per live file, in unit order: the finished slice the analysis carries
  // (its classification, prune verdicts, familiarity and fingerprints hold),
  // or null where the detect outcome holds a fresh slice that re-runs.
  // Empty: nothing carries.
  std::vector<std::shared_ptr<const CandidateSlice>> finished;
  // Set when the prune and rank stages finished every slice; false after
  // either's fallback, whose slices no later analysis may carry.
  bool kept = false;
};

// Writes a finished run's counters and gauges into the global
// MetricsRegistry, each under its name: parse.files, detect.functions,
// detect.candidates, detect.<checker>.candidates,
// prune.<pattern>.tested/pruned, rank.scored/unknown,
// fault.quarantined.<stage> (one per quarantine record) and, when memory was
// collected, the mem.* gauges. Analysis runs call it whenever the registry
// is enabled.
void PublishRunMetrics(const AnalysisReport& report);

class Analysis {
 public:
  Analysis() = default;
  // collect_metrics switches on the global metrics registry and memory tracker.
  explicit Analysis(AnalysisOptions options);

  AnalysisOptions& options() { return options_; }
  const AnalysisOptions& options() const { return options_; }

  // Runs the pipeline over an already-built project. `repo` supplies
  // authorship and familiarity; pass null to skip both (all candidates then
  // count as non-cross-scope unless cross_scope_only is disabled).
  AnalysisReport Run(const Project& project, const Repository* repo = nullptr) const;

  // Advanced entry point for the incremental engine: runs every stage after
  // detection (authorship, cross-scope filter, prune, rank, fingerprint) over
  // a detect-stage outcome assembled elsewhere — fresh slices of re-run
  // files, and the finished slices `carry` holds for the rest. Byte-identical
  // to Run() when the slices hold exactly what RunCheckersSliced would have
  // produced for this project, and `carry` holds finished slices whose
  // verdicts still hold and peer statistics of the previous project. The
  // fresh slices are finished in place, then published in the report.
  // `upstream` holds the caller's parse and detect records.
  AnalysisReport RunWithDetect(const Project& project, const Repository* repo,
                               DetectSlices detect, const StageRecords& upstream,
                               TailCarry& carry) const;
  // The same over a flat detect result (RunCheckers), held as one slice,
  // with nothing carried; `upstream` defaults to the project's build.
  AnalysisReport RunWithDetect(const Project& project, const Repository* repo,
                               CheckerRunResult detect,
                               const StageRecords* upstream = nullptr) const;

  // Builds the project (parallel parse/lower under options().jobs and
  // options().config), then runs; the report owns the project.
  AnalysisReport RunOnRepository(const Repository& repo) const;
  AnalysisReport RunOnSources(
      const std::vector<std::pair<std::string, std::string>>& files) const;

  // Project construction alone (no detection) with this analysis's config
  // and jobs — for callers that inspect diagnostics before running.
  Project BuildFromRepository(const Repository& repo) const;
  Project BuildFromSources(
      const std::vector<std::pair<std::string, std::string>>& files) const;

 private:
  // Shared pipeline body: with `precomputed` null, runs detection itself
  // (Run); otherwise consumes the caller's detect outcome (RunWithDetect).
  AnalysisReport RunImpl(const Project& project, const Repository* repo,
                         DetectSlices* precomputed, const StageRecords* upstream,
                         TailCarry* carry) const;

  AnalysisOptions options_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_ANALYSIS_H_
