// The parallel pipeline's determinism contract: findings, ranking, raw
// candidates, prune statistics, and diagnostics are byte-identical at any
// --jobs value. These tests run the same corpora at jobs = 1, 2, 8 and
// compare against the serial baseline.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/incremental.h"
#include "src/core/report_formats.h"
#include "src/corpus/generator.h"
#include "src/corpus/profile.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace vc {
namespace {

AnalysisOptions WithJobs(int jobs) {
  AnalysisOptions options;
  options.jobs = jobs;
  return options;
}

// Everything order-sensitive a report carries, serialized for comparison.
std::string Fingerprint(const AnalysisReport& report) {
  std::string fp = report.ToCsv();
  fp += "|non_cross_scope=" + std::to_string(report.non_cross_scope);
  fp += "|pruned=" + std::to_string(report.prune_stats.TotalPruned());
  fp += "|original=" + std::to_string(report.prune_stats.original);
  for (const UnusedDefCandidate& cand : report.raw_candidates) {
    fp += "|" + cand.file + ":" + std::to_string(cand.def_loc.line) + ":" + cand.function +
          ":" + cand.slot_name + ":" + CandidateKindName(cand.kind) + ":" +
          PruneReasonName(cand.pruned_by);
  }
  return fp;
}

TEST(ParallelDeterminism, RepositoryPipelineIsByteIdenticalAcrossJobs) {
  GeneratedApp app = GenerateApp(NfsGaneshaProfile().Scaled(0.15));
  AnalysisReport baseline = Analysis(WithJobs(1)).RunOnRepository(app.repo);
  ASSERT_FALSE(baseline.raw_candidates.empty());
  std::string expected = Fingerprint(baseline);

  for (int jobs : {2, 8}) {
    AnalysisReport report = Analysis(WithJobs(jobs)).RunOnRepository(app.repo);
    EXPECT_EQ(Fingerprint(report), expected) << "jobs=" << jobs;
    EXPECT_EQ(report.ToCsv(), baseline.ToCsv()) << "jobs=" << jobs;
  }
}

// Every PruneStats field, the per-pattern test counts included.
std::string PruneCounts(const PruneStats& stats) {
  std::string out;
  for (int value : {stats.original, stats.config_dependency, stats.cursor, stats.unused_hints,
                    stats.peer_definition, stats.stale_code, stats.remaining, stats.config_tested,
                    stats.cursor_tested, stats.hints_tested, stats.peer_tested,
                    stats.stale_tested}) {
    out += std::to_string(value) + ",";
  }
  return out;
}

TEST(ParallelDeterminism, PruningIsByteIdenticalAcrossJobs) {
  // Every prune pattern on, stale code included: the parallel match loop and
  // the serial stale-code pass must mark the same raw candidates, count the
  // same tests, and add the same prune.<pattern> registry counters at any
  // jobs.
  GeneratedApp app = GenerateApp(NfsGaneshaProfile().Scaled(0.15));
  MetricsRegistry& registry = MetricsRegistry::Global();
  auto prune_counters = [&registry] {
    std::vector<uint64_t> values;
    for (const char* pattern :
         {"config_dependency", "cursor", "unused_hints", "peer_definition", "stale_code"}) {
      for (const char* what : {".tested", ".pruned"}) {
        values.push_back(registry.GetCounter(std::string("prune.") + pattern + what).value());
      }
    }
    return values;
  };
  struct Outcome {
    std::string fingerprint;
    std::string prune;
    std::vector<uint64_t> counters;
  };
  auto run = [&](int jobs) {
    AnalysisOptions options = WithJobs(jobs);
    options.prune.stale_code = true;
    options.collect_metrics = true;
    std::vector<uint64_t> before = prune_counters();
    AnalysisReport report = Analysis(options).RunOnRepository(app.repo);
    std::vector<uint64_t> after = prune_counters();
    Outcome outcome{Fingerprint(report), PruneCounts(report.prune_stats), {}};
    for (size_t i = 0; i < after.size(); ++i) {
      outcome.counters.push_back(after[i] - before[i]);
    }
    EXPECT_GT(report.prune_stats.stale_tested, 0) << "jobs=" << jobs;
    EXPECT_GT(report.prune_stats.TotalPruned(), 0) << "jobs=" << jobs;
    return outcome;
  };
  Outcome serial = run(1);
  for (int jobs : {2, 8}) {
    Outcome parallel = run(jobs);
    EXPECT_EQ(parallel.fingerprint, serial.fingerprint) << "jobs=" << jobs;
    EXPECT_EQ(parallel.prune, serial.prune) << "jobs=" << jobs;
    EXPECT_EQ(parallel.counters, serial.counters) << "jobs=" << jobs;
  }
  MetricsRegistry::Global().Disable();
}

TEST(ParallelDeterminism, SecondCorpusCsvIdenticalAcrossJobs) {
  GeneratedApp app = GenerateApp(OpensslProfile().Scaled(0.1));
  std::string expected = Analysis(WithJobs(1)).RunOnRepository(app.repo).ToCsv();
  EXPECT_EQ(Analysis(WithJobs(2)).RunOnRepository(app.repo).ToCsv(), expected);
  EXPECT_EQ(Analysis(WithJobs(8)).RunOnRepository(app.repo).ToCsv(), expected);
}

TEST(ParallelDeterminism, DiagnosticsMergeInFileOrder) {
  // Files with parse errors interleaved with clean ones: the rendered
  // diagnostic stream must not depend on which worker finished first.
  std::vector<std::pair<std::string, std::string>> files;
  for (int i = 0; i < 12; ++i) {
    std::string name = "f" + std::to_string(i) + ".c";
    if (i % 3 == 1) {
      files.emplace_back(name, "int broken_" + std::to_string(i) + "( {{{\n");
    } else {
      files.emplace_back(name, "int ok_" + std::to_string(i) + "(int x) { return x; }\n");
    }
  }
  Analysis serial(WithJobs(1));
  Project base = serial.BuildFromSources(files);
  ASSERT_TRUE(base.diags().HasErrors());
  std::string expected = base.diags().Render(base.sources());

  for (int jobs : {2, 8}) {
    Analysis parallel(WithJobs(jobs));
    Project project = parallel.BuildFromSources(files);
    EXPECT_EQ(project.diags().Render(project.sources()), expected) << "jobs=" << jobs;
    EXPECT_EQ(project.diags().ErrorCount(), base.diags().ErrorCount()) << "jobs=" << jobs;
  }
}

TEST(ParallelDeterminism, IncrementalFindingsIdenticalAcrossJobs) {
  GeneratedApp app = GenerateApp(MysqlProfile().Scaled(0.1));
  int commits = app.repo.NumCommits();
  ASSERT_GT(commits, 0);
  CommitId last = commits - 1;

  Analysis serial(WithJobs(1));
  IncrementalResult baseline = serial.RunOnCommit(app.repo, last);

  for (int jobs : {2, 8}) {
    IncrementalResult result = Analysis(WithJobs(jobs)).RunOnCommit(app.repo, last);
    ASSERT_EQ(result.findings().size(), baseline.findings().size()) << "jobs=" << jobs;
    EXPECT_EQ(result.files_reparsed, baseline.files_reparsed);
    EXPECT_EQ(result.functions_total, baseline.functions_total);
    EXPECT_EQ(result.functions_dirty, baseline.functions_dirty);
    for (size_t i = 0; i < baseline.findings().size(); ++i) {
      EXPECT_EQ(result.findings()[i].file, baseline.findings()[i].file);
      EXPECT_EQ(result.findings()[i].def_loc.line, baseline.findings()[i].def_loc.line);
      EXPECT_EQ(result.findings()[i].slot_name, baseline.findings()[i].slot_name);
      EXPECT_EQ(result.findings()[i].kind, baseline.findings()[i].kind);
      EXPECT_EQ(result.findings()[i].fingerprint, baseline.findings()[i].fingerprint);
    }
  }
}

TEST(ParallelDeterminism, ExplicitCheckerListMatchesDefaultRun) {
  // The default checker set and the same set spelled out via options.checkers
  // are the same run: resolution is by registry order, not request spelling.
  GeneratedApp app = GenerateApp(NfsGaneshaProfile().Scaled(0.1));
  AnalysisReport via_default = Analysis(WithJobs(4)).RunOnRepository(app.repo);
  AnalysisOptions spelled = WithJobs(4);
  spelled.checkers = {"stale-copy", "unused-def", "out-param-unused", "dead-global-store",
                      "double-overwrite"};
  AnalysisReport via_spelled = Analysis(spelled).RunOnRepository(app.repo);
  EXPECT_EQ(via_spelled.ToCsv(), via_default.ToCsv());
  EXPECT_EQ(via_spelled.checkers, via_default.checkers);
}

TEST(ParallelDeterminism, JsonReportCarriesSchemaV4Metadata) {
  GeneratedApp app = GenerateApp(NfsGaneshaProfile().Scaled(0.1));
  AnalysisReport report = Analysis(WithJobs(2)).RunOnRepository(app.repo);
  std::string json = ReportToJson(report, &app.repo);
  EXPECT_NE(json.find("\"schema_version\":10"), std::string::npos);
  EXPECT_NE(json.find("\"jobs\":2"), std::string::npos);
  EXPECT_NE(json.find("\"parse_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"detect_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostics\":{\"warnings\":"), std::string::npos);
  // collect_metrics was off for this run: no metrics block.
  EXPECT_EQ(json.find("\"metrics\":"), std::string::npos);
}

TEST(ParallelDeterminism, ObservabilityDoesNotPerturbFindings) {
  GeneratedApp app = GenerateApp(NfsGaneshaProfile().Scaled(0.15));
  // Baseline: observability fully off, serial.
  std::string expected = Fingerprint(Analysis(WithJobs(1)).RunOnRepository(app.repo));

  TraceCollector& collector = TraceCollector::Global();
  for (int jobs : {1, 2, 8}) {
    AnalysisOptions options = WithJobs(jobs);
    options.collect_metrics = true;
    collector.Enable();
    AnalysisReport report = Analysis(options).RunOnRepository(app.repo);
    collector.Disable();

    EXPECT_EQ(Fingerprint(report), expected) << "jobs=" << jobs;

    // The StageMetrics block is populated and its deterministic counters
    // agree across job counts (timings legitimately vary).
    EXPECT_TRUE(report.stage.collected);
    EXPECT_GT(report.stage.files_parsed, 0u);
    EXPECT_GT(report.stage.functions_analyzed, 0u);
    EXPECT_EQ(report.stage.candidates_detected, report.raw_candidates.size());

    // Spans were collected from the traced run, and none were dropped: the
    // pipeline's span volume sits far below the per-thread buffer cap, so any
    // drop here means the cap logic (or a span flood) regressed.
    EXPECT_GT(collector.EventCount(), 0u) << "jobs=" << jobs;
    EXPECT_EQ(collector.dropped_count(), 0u) << "jobs=" << jobs;
    std::string trace = collector.ToJson();
    EXPECT_NE(trace.find("\"analysis.run\""), std::string::npos);
    EXPECT_NE(trace.find("\"detect\""), std::string::npos);
    collector.Clear();
  }
  MetricsRegistry::Global().Disable();
}

TEST(ParallelDeterminism, MemoryAccountingIsByteIdenticalAcrossJobs) {
  GeneratedApp app = GenerateApp(NfsGaneshaProfile().Scaled(0.15));
  AnalysisOptions serial = WithJobs(1);
  serial.collect_metrics = true;
  AnalysisReport baseline = Analysis(serial).RunOnRepository(app.repo);
  ASSERT_TRUE(baseline.memory.collected);
  EXPECT_GT(baseline.memory.TrackedBytes(), 0u);
  EXPECT_GT(baseline.memory.TrackedObjects(), 0u);

  for (int jobs : {2, 8}) {
    AnalysisOptions options = WithJobs(jobs);
    options.collect_metrics = true;
    AnalysisReport report = Analysis(options).RunOnRepository(app.repo);
    ASSERT_TRUE(report.memory.collected) << "jobs=" << jobs;
    // Every byte and object count — totals and per category — is exact;
    // only the RSS samples are allowed to differ.
    EXPECT_EQ(report.memory.TrackedBytes(), baseline.memory.TrackedBytes()) << "jobs=" << jobs;
    EXPECT_EQ(report.memory.TrackedObjects(), baseline.memory.TrackedObjects());
    for (int c = 0; c < kMemCategoryCount; ++c) {
      EXPECT_EQ(report.memory.categories[c].bytes, baseline.memory.categories[c].bytes)
          << "jobs=" << jobs << " category=" << c;
      EXPECT_EQ(report.memory.categories[c].objects, baseline.memory.categories[c].objects)
          << "jobs=" << jobs << " category=" << c;
    }
  }
  MetricsRegistry::Global().Disable();
}

TEST(ParallelDeterminism, MetricsCountersAggregateInMergeOrder) {
  GeneratedApp app = GenerateApp(OpensslProfile().Scaled(0.1));
  AnalysisOptions serial = WithJobs(1);
  serial.collect_metrics = true;
  AnalysisReport baseline = Analysis(serial).RunOnRepository(app.repo);

  for (int jobs : {2, 8}) {
    AnalysisOptions options = WithJobs(jobs);
    options.collect_metrics = true;
    AnalysisReport report = Analysis(options).RunOnRepository(app.repo);
    EXPECT_EQ(report.stage.files_parsed, baseline.stage.files_parsed) << "jobs=" << jobs;
    EXPECT_EQ(report.stage.functions_analyzed, baseline.stage.functions_analyzed);
    EXPECT_EQ(report.stage.candidates_detected, baseline.stage.candidates_detected);
    EXPECT_EQ(report.stage.rank_scored, baseline.stage.rank_scored);
    EXPECT_EQ(report.stage.rank_unknown, baseline.stage.rank_unknown);
    EXPECT_EQ(report.diagnostic_warnings, baseline.diagnostic_warnings);
    EXPECT_EQ(report.diagnostic_errors, baseline.diagnostic_errors);
  }
  MetricsRegistry::Global().Disable();
}

}  // namespace
}  // namespace vc
