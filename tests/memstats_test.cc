// Memory-accounting substrate tests: RSS sampling, registry gauge
// publication from a run's MemoryStats, and the run-level attribution
// equality that the pipeline-facing tests in parallel_determinism_test.cc
// rely on.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/core/analysis.h"
#include "src/support/memstats.h"
#include "src/support/metrics.h"

namespace vc {
namespace {

TEST(MemCategory, NamesAreStableSnakeCase) {
  EXPECT_STREQ(MemCategoryName(MemCategory::kAstNodes), "ast_nodes");
  EXPECT_STREQ(MemCategoryName(MemCategory::kIrInstructions), "ir_instructions");
  EXPECT_STREQ(MemCategoryName(MemCategory::kInternedStrings), "interned_strings");
}

TEST(MemoryTracker, RssSampleKeepsHighWaterMark) {
  MemoryTracker& tracker = MemoryTracker::Global();
  tracker.SampleRss();
  uint64_t first = tracker.peak_rss_bytes();
  // A live process always has a nonzero peak RSS on Linux (VmHWM or
  // ru_maxrss); if both probes fail this is 0 and the expectation flags it.
  EXPECT_GT(first, 0u);
  tracker.SampleRss();
  EXPECT_GE(tracker.peak_rss_bytes(), first);  // monotone high-water mark
}

TEST(MemoryTracker, PublishRegistryGaugesExportsMemMetrics) {
  MemoryStats stats;
  stats.collected = true;
  stats.categories[static_cast<int>(MemCategory::kAstNodes)] = {1234, 10};
  stats.categories[static_cast<int>(MemCategory::kIrInstructions)] = {500, 5};
  stats.peak_rss_bytes = ProcessPeakRssBytes();
  stats.PublishRegistryGauges();

  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.GetGauge("mem.ast_nodes.bytes").value(), 1234);
  EXPECT_EQ(registry.GetGauge("mem.ast_nodes.objects").value(), 10);
  EXPECT_EQ(registry.GetGauge("mem.ir_instructions.bytes").value(), 500);
  EXPECT_EQ(registry.GetGauge("mem.tracked_bytes").value(), 1234 + 500);
  EXPECT_GT(registry.GetGauge("mem.peak_rss_bytes").value(), 0);

  // The Prometheus exposition carries them (sanitized names).
  std::string prom = registry.RenderPrometheus();
  EXPECT_NE(prom.find("vc_mem_ast_nodes_bytes 1234"), std::string::npos);
  EXPECT_NE(prom.find("vc_mem_tracked_bytes 1734"), std::string::npos);
}

TEST(ProcessPeakRss, ReturnsPlausibleValue) {
  uint64_t rss = ProcessPeakRssBytes();
  // More than 1 MB (any live process) and less than 1 TB (sanity).
  EXPECT_GT(rss, 1u << 20);
  EXPECT_LT(rss, uint64_t{1} << 40);
}

// Run-level attribution: the per-run MemoryStats assembled from slot-indexed
// sums must not depend on scheduling. This is the source-file variant of the
// repository-level test in parallel_determinism_test.cc, small enough to run
// under TSan quickly.
TEST(MemoryStats, SourceRunsAgreeAtJobs1And8) {
  std::vector<std::pair<std::string, std::string>> files;
  for (int i = 0; i < 16; ++i) {
    std::string name = "m" + std::to_string(i) + ".c";
    files.emplace_back(name,
                       "int f" + std::to_string(i) +
                           "(int a, int b) {\n"
                           "  int dead = a + b;\n"
                           "  dead = b;\n"
                           "  int *p = &a;\n"
                           "  return *p + dead;\n"
                           "}\n");
  }
  AnalysisOptions serial;
  serial.jobs = 1;
  serial.collect_metrics = true;
  AnalysisReport baseline = Analysis(serial).RunOnSources(files);
  ASSERT_TRUE(baseline.memory.collected);
  EXPECT_GT(baseline.memory.TrackedBytes(), 0u);

  AnalysisOptions parallel;
  parallel.jobs = 8;
  parallel.collect_metrics = true;
  AnalysisReport report = Analysis(parallel).RunOnSources(files);
  ASSERT_TRUE(report.memory.collected);
  for (int c = 0; c < kMemCategoryCount; ++c) {
    EXPECT_EQ(report.memory.categories[c].bytes, baseline.memory.categories[c].bytes)
        << "category " << c;
    EXPECT_EQ(report.memory.categories[c].objects, baseline.memory.categories[c].objects)
        << "category " << c;
  }
  EXPECT_EQ(report.memory.TrackedBytes(), baseline.memory.TrackedBytes());
  MetricsRegistry::Global().Disable();
  MemoryTracker::Global().Disable();
}

}  // namespace
}  // namespace vc
