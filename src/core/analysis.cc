#include "src/core/analysis.h"

#include <chrono>
#include <set>

#include "src/checkers/driver.h"
#include "src/checkers/registry.h"
#include "src/core/authorship.h"
#include "src/core/detector.h"
#include "src/core/fingerprint.h"
#include "src/support/events.h"
#include "src/support/logging.h"
#include "src/support/memstats.h"
#include "src/support/metrics.h"
#include "src/support/table_writer.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace vc {

Analysis::Analysis(AnalysisOptions options) : options_(std::move(options)) {
  if (options_.collect_metrics) {
    MetricsRegistry::Global().Enable();
    MemoryTracker::Global().Enable();
  }
}

AnalysisReport Analysis::Run(const Project& project, const Repository* repo) const {
  return RunImpl(project, repo, nullptr, nullptr);
}

AnalysisReport Analysis::RunWithDetect(const Project& project, const Repository* repo,
                                       CheckerRunResult detect,
                                       const StageRecords* upstream) const {
  return RunImpl(project, repo, &detect, upstream);
}

AnalysisReport Analysis::RunImpl(const Project& project, const Repository* repo,
                                 CheckerRunResult* precomputed,
                                 const StageRecords* upstream) const {
  const bool collect = options_.collect_metrics;
  TraceSpan run_span("analysis.run", "pipeline");
  auto start = std::chrono::steady_clock::now();
  AnalysisReport report;
  if (upstream != nullptr) {
    report.stages = *upstream;
  } else {
    report.stages[Stage::kParse] = project.build_stage();
  }
  const double upstream_seconds =
      report.stages[Stage::kParse].seconds + report.stages[Stage::kDetect].seconds;
  report.jobs = ResolveJobs(options_.jobs);
  report.stage.collected = collect;
  ThreadPoolStats pool_before = collect ? ThreadPool::Global().stats() : ThreadPoolStats();

  report.diagnostic_warnings = project.diags().WarningCount();
  report.diagnostic_errors = project.diags().ErrorCount();

  // Files quarantined during project construction (parse stage) lead the
  // quarantine list; function-level records follow in stage order.
  report.quarantined = project.quarantined();

  // 1. Detection: run every enabled checker over every function (parallel
  // per function; merged in deterministic module/function, then checker
  // registration order). Per-function isolation: a worker that throws, busts
  // the budget, or trips an injected fault quarantines that function (or that
  // checker on that function) alone.
  std::vector<const Checker*> checkers = CheckerRegistry::Global().Resolve(options_.checkers);
  for (const Checker* checker : checkers) {
    report.checkers.push_back(checker->name());
  }
  CheckerRunResult detect;
  if (precomputed != nullptr) {
    detect = std::move(*precomputed);
  } else {
    StageScope scope(Stage::kDetect, report.stages[Stage::kDetect]);
    detect = RunCheckers(project, checkers, options_.traits, options_.jobs, &options_.budget,
                         &options_.fault, /*isolate=*/true);
    scope.Arg("candidates", detect.candidates.size());
  }
  std::vector<UnusedDefCandidate> candidates = std::move(detect.candidates);
  for (QuarantinedUnit& unit : detect.quarantined) {
    report.quarantined.push_back(std::move(unit));
  }
  for (const CheckerRunResult::PerChecker& pc : detect.per_checker) {
    report.checker_stats.push_back({pc.name, pc.candidates, 0});
  }

  // Sources-mode parity switch: with authorship off, classification, pruning,
  // and ranking all see a null repository, so the run is byte-identical to a
  // repo-less one regardless of what repository the caller holds.
  if (!options_.authorship) {
    repo = nullptr;
  }

  // 2. Classify authorship (cross-scope scenarios of §3.1).
  {
    StageScope scope(Stage::kAuthorship, report.stages[Stage::kAuthorship]);
    if (repo != nullptr && !candidates.empty()) {
      // Replaying history for blame is the bulk of this stage; do it for
      // every analyzed file across the lanes first, so classification below
      // only looks blame up. Blame is per-path, so this stays deterministic.
      std::vector<std::string> paths;
      paths.reserve(project.unit_order().size());
      for (size_t m : project.unit_order()) {
        paths.push_back(project.sources().Path(static_cast<FileId>(m)));
      }
      repo->WarmBlame(paths, options_.jobs);
    }
    AuthorshipAnalyzer authorship(project, repo);
    authorship.ClassifyAll(candidates, options_.jobs);
  }
  // From here on the candidates live in the report; later stages refer to
  // them by index and mark them in place.
  report.raw_candidates = std::move(candidates);
  const std::vector<UnusedDefCandidate>& raw = report.raw_candidates;

  // 3. Cross-scope filter: only definitions on developer-interaction
  // boundaries continue (unless the ablation disables the filter).
  std::vector<size_t> pool;
  {
    StageScope scope(Stage::kCrossScopeFilter, report.stages[Stage::kCrossScopeFilter]);
    pool.reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      if (options_.cross_scope_only && !raw[i].cross_scope) {
        ++report.non_cross_scope;
        continue;
      }
      pool.push_back(i);
    }
    scope.Arg("kept", pool.size()).Arg("dropped", report.non_cross_scope);
  }

  // 4. Prune intentional patterns. Peer statistics always use the complete
  // candidate set: whether a value is customarily ignored is a property of
  // the codebase, not of the cross-scope subset.
  {
    StageScope scope(Stage::kPrune, report.stages[Stage::kPrune]);
    try {
      report.prune_stats = RunPruning(project, report.raw_candidates, pool, raw, options_.prune,
                                      repo, options_.jobs);
    } catch (const std::exception& e) {
      // Stage-level fallback: a pruning crash degrades to "nothing pruned"
      // (findings become a superset) rather than killing the run.
      report.quarantined.push_back({"", "", "prune", std::string("stage failed: ") + e.what(), ""});
    }
    for (size_t i : pool) {
      if (raw[i].pruned_by == PruneReason::kNone) {
        report.findings.push_back(raw[i]);
      }
    }
    scope.Arg("survivors", report.findings.size());
  }

  // 5. Rank by code familiarity.
  RankStats rank_stats;
  {
    StageScope scope(Stage::kRank, report.stages[Stage::kRank]);
    try {
      RankCandidates(report.findings, repo, options_.ranking, &rank_stats);
    } catch (const std::exception& e) {
      // Findings keep their pre-rank (deterministic pool) order.
      report.quarantined.push_back({"", "", "rank", std::string("stage failed: ") + e.what(), ""});
    }
  }

  // Injected prune/rank faults act as a post-stage filter keyed on the
  // finding's function. Crucially the quarantined function's candidates were
  // still part of the peer-statistics universe above, so every surviving
  // finding is byte-identical to the clean run's and the result is a strict
  // subset — the isolation contract the degraded_run oracle checks.
  if (options_.fault.enabled()) {
    std::vector<UnusedDefCandidate> kept;
    std::set<std::string> recorded;
    kept.reserve(report.findings.size());
    for (UnusedDefCandidate& cand : report.findings) {
      const std::string unit = cand.file + ":" + cand.function;
      const char* stage = nullptr;
      if (options_.fault.ShouldFault(fault_sites::kPruneFunction, unit)) {
        stage = "prune";
      } else if (options_.fault.ShouldFault(fault_sites::kRankFunction, unit)) {
        stage = "rank";
      }
      if (stage == nullptr) {
        kept.push_back(std::move(cand));
        continue;
      }
      if (recorded.insert(unit + "#" + stage).second) {
        report.quarantined.push_back({cand.file, cand.function, stage, "injected fault", ""});
        if (collect) {
          MetricsRegistry::Global()
              .GetCounter(std::string("fault.quarantined.") + stage)
              .Add(1);
        }
      }
    }
    report.findings = std::move(kept);
  }

  report.degraded = !report.quarantined.empty();

  // 6. Stamp stable identities for cross-run tracking. Runs over the final
  // finding list (deterministic at any job count), so fingerprints are too.
  // Duplicate-shape ordinals are function-local, so dropping a quarantined
  // function never renumbers another function's fingerprints.
  AssignFingerprints(report.findings);

  const std::chrono::duration<double> run_wall = std::chrono::steady_clock::now() - start;
  report.analysis_seconds = upstream_seconds + run_wall.count();

  for (const UnusedDefCandidate& cand : report.findings) {
    for (AnalysisReport::CheckerStat& stat : report.checker_stats) {
      if (stat.name == cand.checker) {
        ++stat.findings;
        break;
      }
    }
  }

  if (RunEventsEnabled()) {
    for (const QuarantinedUnit& unit : report.quarantined) {
      RunEvent("quarantine")
          .Str("file", unit.path)
          .Str("function", unit.function)
          .Str("stage", unit.stage)
          .Str("checker", unit.checker)
          .Emit();
    }
  }

  if (collect) {
    // The tracked bytes are what the project holds resident (AST, IR,
    // identifiers of its live files); later stages annotate and filter
    // existing candidates.
    MemoryStats& mem = report.memory;
    mem.collected = true;
    Project::FileMemory parse_mem = project.ParseMemoryTotal();
    mem.categories[static_cast<int>(MemCategory::kAstNodes)] = parse_mem.ast;
    mem.categories[static_cast<int>(MemCategory::kIrInstructions)] = parse_mem.ir;
    mem.categories[static_cast<int>(MemCategory::kInternedStrings)] = parse_mem.strings;
    mem.peak_rss_bytes = MemoryTracker::Global().peak_rss_bytes();
    mem.PublishRegistryGauges();

    StageMetrics& stage = report.stage;
    stage.files_parsed = project.unit_order().size();
    for (size_t i : project.unit_order()) {
      stage.functions_analyzed += project.modules()[i]->functions.size();
    }
    stage.candidates_detected = raw.size();
    stage.rank_scored = rank_stats.scored;
    stage.rank_unknown = rank_stats.unknown;
    stage.rank_model_seconds = rank_stats.model_seconds;
    stage.pool = ThreadPool::Global().stats().Delta(pool_before);
    if (LogEnabled(LogLevel::kDebug)) {
      VC_LOG_DEBUG("pipeline: " + std::to_string(stage.candidates_detected) +
                   " candidate(s) across " + std::to_string(stage.functions_analyzed) +
                   " function(s); " + std::to_string(report.findings.size()) +
                   " finding(s) after filter+prune");
    }
  }
  return report;
}

AnalysisReport Analysis::RunOnRepository(const Repository& repo) const {
  auto project = std::make_shared<Project>(BuildFromRepository(repo));
  AnalysisReport report = Run(*project, &repo);
  report.owned_project = std::move(project);
  return report;
}

AnalysisReport Analysis::RunOnSources(
    const std::vector<std::pair<std::string, std::string>>& files) const {
  auto project = std::make_shared<Project>(BuildFromSources(files));
  AnalysisReport report = Run(*project, nullptr);
  report.owned_project = std::move(project);
  return report;
}

Project Analysis::BuildFromRepository(const Repository& repo) const {
  return Project::FromRepository(repo, options_.config, options_.jobs, &options_.fault,
                                 &options_.budget);
}

Project Analysis::BuildFromSources(
    const std::vector<std::pair<std::string, std::string>>& files) const {
  return Project::FromSources(files, options_.config, options_.jobs, &options_.fault,
                              &options_.budget);
}

std::string AnalysisReport::ToCsv() const {
  TableWriter table({"file", "line", "function", "slot", "kind", "familiarity"});
  for (const UnusedDefCandidate& cand : findings) {
    table.AddRow({cand.file, std::to_string(cand.def_loc.line), cand.function, cand.slot_name,
                  CandidateKindName(cand.kind), FormatDouble(cand.familiarity, 3)});
  }
  return table.RenderCsv();
}

}  // namespace vc
