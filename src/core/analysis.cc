#include "src/core/analysis.h"

#include <algorithm>
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
  return RunImpl(project, repo, nullptr, nullptr, nullptr);
}

AnalysisReport Analysis::RunWithDetect(const Project& project, const Repository* repo,
                                       DetectSlices detect, const StageRecords& upstream,
                                       TailCarry& carry) const {
  return RunImpl(project, repo, &detect, &upstream, &carry);
}

AnalysisReport Analysis::RunWithDetect(const Project& project, const Repository* repo,
                                       CheckerRunResult detect,
                                       const StageRecords* upstream) const {
  // Nothing carries, and no stage reads which file a slice holds, so the
  // flat result travels as one slice.
  auto slice = std::make_shared<CandidateSlice>();
  slice->candidates = std::move(detect.candidates);
  slice->CountDetect();
  DetectSlices sliced;
  sliced.slices.push_back(std::move(slice));
  sliced.quarantined = std::move(detect.quarantined);
  sliced.per_checker = std::move(detect.per_checker);
  sliced.candidates = sliced.slices[0]->candidates.size();
  sliced.functions = detect.functions;
  return RunImpl(project, repo, &sliced, upstream, nullptr);
}

AnalysisReport Analysis::RunImpl(const Project& project, const Repository* repo,
                                 DetectSlices* precomputed, const StageRecords* upstream,
                                 TailCarry* carry) const {
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
  // registration order, into one slice per file). Per-function isolation: a
  // worker that throws, busts the budget, or trips an injected fault
  // quarantines that function (or that checker on that function) alone.
  std::vector<const Checker*> checkers = CheckerRegistry::Global().Resolve(options_.checkers);
  for (const Checker* checker : checkers) {
    report.checkers.push_back(checker->name());
  }
  DetectSlices detect;
  if (precomputed != nullptr) {
    detect = std::move(*precomputed);
  } else {
    StageScope scope(Stage::kDetect, report.stages[Stage::kDetect]);
    detect = RunCheckersSliced(project, checkers, options_.traits, options_.jobs,
                               &options_.budget, &options_.fault, /*isolate=*/true);
    scope.Count(kDetectFunctions, static_cast<int64_t>(detect.functions))
        .Count(kDetectCandidates, static_cast<int64_t>(detect.candidates));
  }
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

  // What this run carries. A full run carries nothing: every name is new to
  // its fresh peer statistics, and every slice is fresh.
  TailCarry full;
  PeerStats fresh_peers(options_.prune);
  if (carry == nullptr) {
    full.peers = &fresh_peers;
    for (size_t m : project.unit_order()) {
      full.changed.push_back(static_cast<FileId>(m));
    }
    carry = &full;
  }
  // Per live file: its fresh slice, which every later stage reads and the
  // prune stage finishes, or (when null) the finished slice the run carries.
  std::vector<std::shared_ptr<CandidateSlice>>& fresh = detect.slices;
  for (size_t i = 0; i < fresh.size(); ++i) {
    const std::vector<QuarantinedUnit>& records = detect.At(i, carry->finished).quarantined;
    report.quarantined.insert(report.quarantined.end(), records.begin(), records.end());
  }
  std::vector<UnusedDefCandidate*> rerun;
  for (const std::shared_ptr<CandidateSlice>& slice : fresh) {
    if (slice != nullptr) {
      for (UnusedDefCandidate& cand : slice->candidates) {
        rerun.push_back(&cand);
      }
    }
  }
  const auto in_pool = [&](const UnusedDefCandidate& cand) {
    return InPrunePool(cand, options_.cross_scope_only);
  };

  // 2. Classify authorship (cross-scope scenarios of §3.1).
  {
    StageScope scope(Stage::kAuthorship, report.stages[Stage::kAuthorship]);
    if (repo != nullptr && !rerun.empty()) {
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
    authorship.ClassifyAll(rerun, options_.jobs);
    scope.Count(kAuthorshipClassified, static_cast<int64_t>(rerun.size()));
  }

  // 3. Cross-scope filter: only definitions on developer-interaction
  // boundaries continue (unless the ablation disables the filter). A fresh
  // slice counts its pool; a carried one holds its counts.
  {
    StageScope scope(Stage::kCrossScopeFilter, report.stages[Stage::kCrossScopeFilter]);
    int64_t kept = 0;
    for (size_t i = 0; i < fresh.size(); ++i) {
      if (CandidateSlice* slice = fresh[i].get()) {
        slice->kept = static_cast<uint32_t>(
            std::count_if(slice->candidates.begin(), slice->candidates.end(), in_pool));
        slice->dropped = static_cast<uint32_t>(slice->candidates.size()) - slice->kept;
      }
      const CandidateSlice& counted = detect.At(i, carry->finished);
      kept += counted.kept;
      report.non_cross_scope += static_cast<int>(counted.dropped);
    }
    scope.Count(kFilterKept, kept).Count(kFilterDropped, report.non_cross_scope);
  }

  // 4. Prune intentional patterns. Peer statistics always use the complete
  // candidate set: whether a value is customarily ignored is a property of
  // the codebase, not of the cross-scope subset.
  {
    StageScope scope(Stage::kPrune, report.stages[Stage::kPrune]);
    try {
      const PeerStats& peers = *carry->peers;
      if (options_.prune.peer_definition) {
        TraceSpan span("prune.peer_stats", "pipeline");
        carry->peers->Update(project, rerun, carry->changed, options_.jobs);
        span.Arg("files", static_cast<int64_t>(carry->changed.size()));
        span.Arg("flips", peers.retval_flips() + peers.group_flips());
      }
      // Every pool target of a fresh slice is matched. So is a carried
      // parameter target whose signature group flipped, in a copy of its
      // slice that the stage then finishes like a fresh one.
      std::vector<UnusedDefCandidate*> match;
      for (const std::shared_ptr<CandidateSlice>& slice : fresh) {
        if (slice != nullptr) {
          for (UnusedDefCandidate& cand : slice->candidates) {
            if (in_pool(cand) && IsPruneTarget(cand)) {
              match.push_back(&cand);
            }
          }
        }
      }
      if (options_.prune.peer_definition && peers.group_flips() > 0) {
        for (size_t i = 0; i < fresh.size(); ++i) {
          if (fresh[i] != nullptr) {
            continue;
          }
          const CandidateSlice& carried = *carry->finished[i];
          std::vector<uint32_t> flipped;
          for (uint32_t p : carried.params) {
            const UnusedDefCandidate& cand = carried.candidates[p];
            if (in_pool(cand) && IsPruneTarget(cand) && peers.GroupFlipped(project, cand)) {
              flipped.push_back(p);
            }
          }
          if (!flipped.empty()) {
            fresh[i] = std::make_shared<CandidateSlice>(carried);
            for (uint32_t p : flipped) {
              match.push_back(&fresh[i]->candidates[p]);
            }
          }
        }
      }
      MatchPruning(project, match, peers, options_.prune, repo, options_.jobs);
      for (const std::shared_ptr<CandidateSlice>& slice : fresh) {
        if (slice != nullptr) {
          CountPruned(*slice, options_.cross_scope_only, options_.prune);
        }
      }
      carry->kept = true;
    } catch (const std::exception& e) {
      // Stage-level fallback: a pruning crash degrades to "nothing pruned"
      // (findings become a superset) rather than killing the run. Every
      // slice becomes an unpruned copy; a published slice is never written.
      for (size_t i = 0; i < fresh.size(); ++i) {
        if (fresh[i] == nullptr) {
          fresh[i] = std::make_shared<CandidateSlice>(*carry->finished[i]);
        }
        CandidateSlice& slice = *fresh[i];
        slice.prune = PruneStats();
        slice.survivors.clear();
        for (size_t k = 0; k < slice.candidates.size(); ++k) {
          slice.candidates[k].pruned_by = PruneReason::kNone;
          if (in_pool(slice.candidates[k])) {
            slice.survivors.push_back(static_cast<uint32_t>(k));
          }
        }
      }
      report.quarantined.push_back({"", "", "prune", std::string("stage failed: ") + e.what(), ""});
    }
    size_t survivors = 0;
    for (size_t i = 0; i < fresh.size(); ++i) {
      report.raw_candidates.push_back(fresh[i] != nullptr ? std::move(fresh[i])
                                                          : carry->finished[i]);
      survivors += report.raw_candidates.slices().back()->survivors.size();
    }
    report.findings.reserve(survivors);
    for (const CandidateSlices::Slice& slice : report.raw_candidates.slices()) {
      report.prune_stats += slice->prune;
      for (uint32_t p : slice->survivors) {
        report.findings.push_back(slice->candidates[p]);
      }
    }
    scope.Count(kPruneSurvivors, static_cast<int64_t>(report.findings.size()));
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
    scope.Count(kRankScored, static_cast<int64_t>(rank_stats.scored))
        .Count(kRankUnknown, static_cast<int64_t>(rank_stats.unknown));
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

  // checker_stats follows the runnable checker order the driver indexed by.
  for (const UnusedDefCandidate& cand : report.findings) {
    ++report.checker_stats[cand.checker_index].findings;
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

    report.stage.rank_model_seconds = rank_stats.model_seconds;
    report.stage.pool = ThreadPool::Global().stats().Delta(pool_before);
  }
  if (LogEnabled(LogLevel::kDebug)) {
    const StageRecord& detected = report.stages[Stage::kDetect];
    VC_LOG_DEBUG("pipeline: " + std::to_string(detected.counts[kDetectCandidates]) +
                 " candidate(s) across " + std::to_string(detected.counts[kDetectFunctions]) +
                 " function(s); " + std::to_string(report.findings.size()) +
                 " finding(s) after filter+prune");
  }
  if (MetricsEnabled()) {
    PublishRunMetrics(report);
  }
  return report;
}

void PublishRunMetrics(const AnalysisReport& report) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  auto add = [&](const std::string& name, int64_t value) {
    registry.GetCounter(name).Add(static_cast<uint64_t>(value));
  };
  const StageRecords& stages = report.stages;
  add("parse.files", stages[Stage::kParse].counts[kParseFiles]);
  add("detect.functions", stages[Stage::kDetect].counts[kDetectFunctions]);
  add("detect.candidates", stages[Stage::kDetect].counts[kDetectCandidates]);
  for (const AnalysisReport::CheckerStat& stat : report.checker_stats) {
    add("detect." + stat.name + ".candidates", static_cast<int64_t>(stat.candidates));
  }
  for (const PrunePattern& pattern : kPrunePatterns) {
    add(std::string("prune.") + pattern.name + ".tested", report.prune_stats.*pattern.tested);
    add(std::string("prune.") + pattern.name + ".pruned", report.prune_stats.*pattern.pruned);
  }
  add("rank.scored", stages[Stage::kRank].counts[kRankScored]);
  add("rank.unknown", stages[Stage::kRank].counts[kRankUnknown]);
  for (const QuarantinedUnit& unit : report.quarantined) {
    add("fault.quarantined." + unit.stage, 1);
  }
  if (report.memory.collected) {
    const MemoryStats& mem = report.memory;
    for (int c = 0; c < kMemCategoryCount; ++c) {
      const std::string base = std::string("mem.") + MemCategoryName(static_cast<MemCategory>(c));
      registry.GetGauge(base + ".bytes").Set(static_cast<int64_t>(mem.categories[c].bytes));
      registry.GetGauge(base + ".objects").Set(static_cast<int64_t>(mem.categories[c].objects));
    }
    registry.GetGauge("mem.tracked_bytes").Set(static_cast<int64_t>(mem.TrackedBytes()));
    registry.GetGauge("mem.peak_rss_bytes").Set(static_cast<int64_t>(mem.peak_rss_bytes));
  }
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
