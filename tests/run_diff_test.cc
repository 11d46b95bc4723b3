// Run-to-run differencing: fingerprint classification, regression thresholds
// (new findings, stage timing ratio+floor, prune-rate drop), and the
// determinism contract of the default text rendering.

#include "src/core/run_diff.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/html_dashboard.h"

namespace vc {
namespace {

LedgerFinding Finding(const std::string& fingerprint, const std::string& file = "a.c",
                      const std::string& variable = "ret") {
  LedgerFinding finding;
  finding.fingerprint = fingerprint;
  finding.file = file;
  finding.line = 10;
  finding.function = "handle";
  finding.variable = variable;
  finding.kind = "overwritten_def";
  return finding;
}

RunRecord MakeRun(const std::string& id, std::vector<LedgerFinding> findings) {
  RunRecord record;
  record.run_id = id;
  record.findings = std::move(findings);
  record.metrics.collected = true;
  return record;
}

TEST(RunDiff, ClassifiesNewFixedPersistent) {
  RunRecord a = MakeRun("r0001", {Finding("aaaa"), Finding("bbbb")});
  RunRecord b = MakeRun("r0002", {Finding("bbbb"), Finding("cccc")});
  RunDiff diff = ComputeRunDiff(a, b);

  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.added[0].fingerprint, "cccc");
  ASSERT_EQ(diff.fixed.size(), 1u);
  EXPECT_EQ(diff.fixed[0].fingerprint, "aaaa");
  ASSERT_EQ(diff.persistent.size(), 1u);
  EXPECT_EQ(diff.persistent[0].fingerprint, "bbbb");
}

TEST(RunDiff, IdenticalRunsPassTheCheck) {
  RunRecord a = MakeRun("r0001", {Finding("aaaa")});
  RunRecord b = MakeRun("r0002", {Finding("aaaa")});
  RunDiff diff = ComputeRunDiff(a, b);
  EXPECT_TRUE(diff.added.empty());
  EXPECT_TRUE(diff.fixed.empty());
  EXPECT_FALSE(diff.HasRegressions());
}

TEST(RunDiff, NewFindingIsARegressionUnderStrictDefault) {
  RunRecord a = MakeRun("r0001", {});
  RunRecord b = MakeRun("r0002", {Finding("aaaa")});
  RunDiff diff = ComputeRunDiff(a, b);
  ASSERT_TRUE(diff.HasRegressions());
  EXPECT_NE(diff.regressions.front().find("1 new finding(s)"), std::string::npos);
}

TEST(RunDiff, MaxNewFindingsThresholdRelaxesTheGate) {
  RunRecord a = MakeRun("r0001", {});
  RunRecord b = MakeRun("r0002", {Finding("aaaa")});
  RegressionThresholds thresholds;
  thresholds.max_new_findings = 1;
  EXPECT_FALSE(ComputeRunDiff(a, b, thresholds).HasRegressions());
  RunRecord c = MakeRun("r0003", {Finding("aaaa"), Finding("bbbb")});
  EXPECT_TRUE(ComputeRunDiff(a, c, thresholds).HasRegressions());
}

TEST(RunDiff, FixedFindingsNeverFailTheCheck) {
  RunRecord a = MakeRun("r0001", {Finding("aaaa"), Finding("bbbb")});
  RunRecord b = MakeRun("r0002", {});
  EXPECT_FALSE(ComputeRunDiff(a, b).HasRegressions());
}

TEST(RunDiff, StageRegressionNeedsRatioAndAbsoluteFloor) {
  RunRecord a = MakeRun("r0001", {});
  RunRecord b = MakeRun("r0002", {});

  // Ratio breached AND growth above the floor -> regression.
  a.metrics.detect_seconds = 0.10;
  b.metrics.detect_seconds = 0.30;
  EXPECT_TRUE(ComputeRunDiff(a, b).HasRegressions());

  // Huge ratio but sub-floor absolute growth (ms jitter) -> no regression.
  a.metrics.detect_seconds = 0.001;
  b.metrics.detect_seconds = 0.010;
  EXPECT_FALSE(ComputeRunDiff(a, b).HasRegressions());

  // Large absolute growth but ratio under 1.5x -> no regression.
  a.metrics.detect_seconds = 1.00;
  b.metrics.detect_seconds = 1.40;
  EXPECT_FALSE(ComputeRunDiff(a, b).HasRegressions());
}

TEST(RunDiff, PruneRateDropBeyondThresholdRegresses) {
  RunRecord a = MakeRun("r0001", {});
  RunRecord b = MakeRun("r0002", {});
  a.metrics.prune_patterns = {{"cursor", 100, 80}};  // 80% prune rate
  b.metrics.prune_patterns = {{"cursor", 100, 60}};  // 60%: 20-point drop
  RunDiff diff = ComputeRunDiff(a, b);
  ASSERT_TRUE(diff.HasRegressions());
  EXPECT_NE(diff.regressions.front().find("cursor"), std::string::npos);

  // A drop within the 10-point default tolerance passes.
  b.metrics.prune_patterns = {{"cursor", 100, 75}};
  EXPECT_FALSE(ComputeRunDiff(a, b).HasRegressions());
}

TEST(RunDiff, PruneRateIncomparableWhenEitherSideUntested) {
  RunRecord a = MakeRun("r0001", {});
  RunRecord b = MakeRun("r0002", {});
  // Baseline never exercised the pattern: a big apparent drop must not gate.
  a.metrics.prune_patterns = {{"cursor", 0, 0}};
  b.metrics.prune_patterns = {{"cursor", 100, 10}};
  EXPECT_FALSE(ComputeRunDiff(a, b).HasRegressions());
}

TEST(RunDiff, DefaultTextRenderingHoldsNoTimings) {
  RunRecord a = MakeRun("r0001", {Finding("aaaa")});
  RunRecord b = MakeRun("r0002", {Finding("aaaa"), Finding("ffff", "b.c", "val")});
  // Timings differ but stay under the regression thresholds: raw timing
  // deltas must not surface in the default (deterministic) rendering. An
  // actual threshold breach *does* surface, via the regressions section.
  a.metrics.detect_seconds = 0.123;
  b.metrics.detect_seconds = 0.140;
  RunDiff diff = ComputeRunDiff(a, b);

  std::string text = RenderDiffText(diff);
  EXPECT_NE(text.find("diff r0001 -> r0002: 1 new, 0 fixed, 1 persistent"),
            std::string::npos);
  EXPECT_NE(text.find("[unused-def:ffff]"), std::string::npos);
  EXPECT_EQ(text.find("detect_seconds"), std::string::npos)
      << "timing leaked into the deterministic rendering";

  std::string with_timings = RenderDiffText(diff, /*include_timings=*/true);
  EXPECT_NE(with_timings.find("detect_seconds"), std::string::npos);
}

TEST(RunDiff, TextRenderingIndependentOfTimingNoise) {
  // The determinism contract: two diffs whose runs differ only in wall-clock
  // timings render byte-identically by default.
  RunRecord a1 = MakeRun("r0001", {Finding("aaaa")});
  RunRecord b1 = MakeRun("r0002", {Finding("aaaa")});
  RunRecord a2 = MakeRun("r0001", {Finding("aaaa")});
  RunRecord b2 = MakeRun("r0002", {Finding("aaaa")});
  a1.metrics.analysis_seconds = 0.111;
  b1.metrics.analysis_seconds = 0.117;
  a2.metrics.analysis_seconds = 0.935;
  b2.metrics.analysis_seconds = 0.212;
  EXPECT_EQ(RenderDiffText(ComputeRunDiff(a1, b1)), RenderDiffText(ComputeRunDiff(a2, b2)));
}

TEST(RunDiff, FindingSectionsSortedByFileThenFingerprint) {
  RunRecord a = MakeRun("r0001", {});
  RunRecord b = MakeRun("r0002", {Finding("zzzz", "b.c"), Finding("aaaa", "b.c"),
                              Finding("mmmm", "a.c")});
  RunDiff diff = ComputeRunDiff(a, b);
  ASSERT_EQ(diff.added.size(), 3u);
  EXPECT_EQ(diff.added[0].fingerprint, "mmmm");
  EXPECT_EQ(diff.added[1].fingerprint, "aaaa");
  EXPECT_EQ(diff.added[2].fingerprint, "zzzz");
}

TEST(RunDiff, DashboardNewAndFixedMatchTheDiff) {
  // r0002 enables stale-copy, which r0001 did not run: its finding is not
  // "new" (the diff names the checker in its checkers-added note instead).
  LedgerFinding stale = Finding("ssss", "b.c");
  stale.checker = "stale-copy";
  RunRecord a = MakeRun("r0001", {Finding("aaaa"), Finding("bbbb")});
  a.checkers = {"unused-def"};
  RunRecord b = MakeRun("r0002", {Finding("bbbb"), Finding("cccc"), stale});
  b.checkers = {"unused-def", "stale-copy"};
  RunDiff diff = ComputeRunDiff(a, b);
  ASSERT_EQ(diff.added.size(), 1u);
  ASSERT_EQ(diff.fixed.size(), 1u);

  const std::string html = RenderHtmlDashboard({a, b});
  EXPECT_NE(html.find(">+1</div><div class=\"tile-caption\">new vs r0001<"),
            std::string::npos);
  EXPECT_NE(html.find(">\xe2\x88\x92" "1</div><div class=\"tile-caption\">fixed vs r0001<"),
            std::string::npos);
  const std::string new_badge = "<span class=\"badge badge-new\">new</span>";
  const size_t first = html.find(new_badge);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(html.find(new_badge, first + 1), std::string::npos) << "one new row: cccc";
  EXPECT_LT(html.find("cccc", first), html.find("</tr>", first));
  EXPECT_NE(html.find("<span class=\"badge badge-fixed\">fixed</span></td><td>unused-def"
                      "</td><td class=\"fp\">aaaa<"),
            std::string::npos);
}

TEST(RunDiff, JsonCarriesCheckVerdict) {
  RunRecord a = MakeRun("r0001", {});
  RunRecord clean = MakeRun("r0002", {});
  RunRecord dirty = MakeRun("r0003", {Finding("aaaa")});
  EXPECT_NE(DiffToJson(ComputeRunDiff(a, clean)).find("\"check_passed\":true"),
            std::string::npos);
  std::string json = DiffToJson(ComputeRunDiff(a, dirty));
  EXPECT_NE(json.find("\"check_passed\":false"), std::string::npos);
  EXPECT_NE(json.find("\"new\":[{\"fingerprint\":\"aaaa\""), std::string::npos);
}

TEST(RunDiff, MemoryDeltasOnlyWhenBothRunsCollected) {
  RunRecord a = MakeRun("r0001", {Finding("aaaa")});
  RunRecord b = MakeRun("r0002", {Finding("aaaa")});
  a.metrics.mem_collected = true;
  a.metrics.mem_tracked_bytes = 1000;
  a.metrics.mem_peak_rss_bytes = 5000;
  b.metrics.mem_collected = true;
  b.metrics.mem_tracked_bytes = 1500;
  b.metrics.mem_peak_rss_bytes = 7000;

  RunDiff diff = ComputeRunDiff(a, b);
  // Memory rows are reported, never regression-gated.
  EXPECT_FALSE(diff.HasRegressions());
  std::string with_timings = RenderDiffText(diff, /*include_timings=*/true);
  EXPECT_NE(with_timings.find("mem_tracked_bytes"), std::string::npos);
  EXPECT_NE(with_timings.find("mem_peak_rss_bytes"), std::string::npos);
  // The exact tracked count is deterministic and renders by default; the
  // sampled peak-RSS row is machine-dependent and stays out of the default
  // (byte-identical) rendering.
  std::string plain = RenderDiffText(diff);
  EXPECT_NE(plain.find("mem_tracked_bytes"), std::string::npos);
  EXPECT_EQ(plain.find("mem_peak_rss_bytes"), std::string::npos);

  // Mixed-version diff: the baseline predates memory accounting, so the
  // memory rows disappear instead of rendering a bogus delta from zero.
  RunRecord old = MakeRun("r0000", {Finding("aaaa")});
  ASSERT_FALSE(old.metrics.mem_collected);
  std::string mixed = RenderDiffText(ComputeRunDiff(old, b), /*include_timings=*/true);
  EXPECT_EQ(mixed.find("mem_tracked_bytes"), std::string::npos);
  EXPECT_EQ(mixed.find("mem_peak_rss_bytes"), std::string::npos);
  EXPECT_FALSE(ComputeRunDiff(old, b).HasRegressions());
}

TEST(RunDiff, MakeRunRecordCarriesFindingsAndMetrics) {
  AnalysisOptions options;
  options.cross_scope_only = false;
  options.ranking.enabled = false;
  options.collect_metrics = true;
  AnalysisReport report = Analysis(options).RunOnSources(
      {{"a.c",
        "int get_status(int entry) {\n"
        "  return entry + 1;\n"
        "}\n"
        "int handle(int entry, int mode) {\n"
        "  int ret = get_status(entry);\n"
        "  ret = mode * 2;\n"
        "  return ret;\n"
        "}\n"}});
  ASSERT_FALSE(report.findings.empty());

  RunRecord record = MakeRunRecord(report, "unit-test", 1234);
  EXPECT_EQ(record.label, "unit-test");
  EXPECT_EQ(record.timestamp_ms, 1234);
  ASSERT_EQ(record.findings.size(), report.findings.size());
  EXPECT_EQ(record.findings[0].fingerprint, report.findings[0].fingerprint);
  EXPECT_FALSE(record.findings[0].fingerprint.empty());
  EXPECT_EQ(record.findings[0].variable, "ret");
  EXPECT_TRUE(record.metrics.collected);
  EXPECT_EQ(record.metrics.files_parsed, 1);
  EXPECT_GT(record.metrics.functions_analyzed, 0);
  ASSERT_EQ(record.metrics.prune_patterns.size(), 5u);
  EXPECT_EQ(record.metrics.prune_patterns[0].name, "config_dependency");

  // v2 payloads ride along when the run collected metrics.
  EXPECT_TRUE(record.metrics.mem_collected);
  EXPECT_GT(record.metrics.mem_tracked_bytes, 0);
  EXPECT_GT(record.metrics.mem_peak_rss_bytes, 0);
  ASSERT_FALSE(record.checker_stats.empty());
  EXPECT_FALSE(record.checker_stats[0].name.empty());
}

}  // namespace
}  // namespace vc
