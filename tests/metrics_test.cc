// Tests for the observability layer: metrics primitives under concurrency,
// the global registry, trace collection + Chrome trace-event JSON export,
// and log-level parsing.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/support/logging.h"
#include "src/support/metrics.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace vc {
namespace {

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

TEST(Counter, ConcurrentAddsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.value(), static_cast<uint64_t>(kThreads) * kPerThread);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Counter, AddWithDelta) {
  Counter counter;
  counter.Add(5);
  counter.Add(7);
  EXPECT_EQ(counter.value(), 12u);
}

TEST(Gauge, UpdateMaxKeepsHighWaterMarkUnderContention) {
  Gauge gauge;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge, t] {
      for (int i = 0; i < 5000; ++i) {
        gauge.UpdateMax(static_cast<int64_t>(t) * 10000 + i);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Largest value any thread submitted: t=7, i=4999.
  EXPECT_EQ(gauge.value(), 7 * 10000 + 4999);
}

TEST(Gauge, SetOverwrites) {
  Gauge gauge;
  gauge.Set(42);
  EXPECT_EQ(gauge.value(), 42);
  gauge.Set(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.UpdateMax(3);  // below current: no change
  EXPECT_EQ(gauge.value(), 7);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, ExactCountSumMinMax) {
  Histogram histogram;
  histogram.RecordNanos(10000);
  histogram.RecordNanos(100000);
  histogram.RecordNanos(1000000);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.sum_seconds(), 1110e-6);
  EXPECT_DOUBLE_EQ(histogram.min_seconds(), 10e-6);
  EXPECT_DOUBLE_EQ(histogram.max_seconds(), 1000e-6);
  EXPECT_NEAR(histogram.mean_seconds(), 370e-6, 1e-12);
}

TEST(Histogram, BucketsAreLogScaleNanoseconds) {
  Histogram histogram;
  histogram.RecordNanos(0);   // bucket 0
  histogram.RecordNanos(1);   // bucket 0: [1, 2)
  histogram.RecordNanos(2);   // bucket 1: [2, 4)
  histogram.RecordNanos(3);   // bucket 1
  histogram.RecordNanos(4);   // bucket 2: [4, 8)
  histogram.RecordNanos(7);   // bucket 2
  histogram.RecordNanos(8);   // bucket 3: [8, 16)
  EXPECT_EQ(histogram.BucketCount(0), 2u);
  EXPECT_EQ(histogram.BucketCount(1), 2u);
  EXPECT_EQ(histogram.BucketCount(2), 2u);
  EXPECT_EQ(histogram.BucketCount(3), 1u);
  EXPECT_EQ(Histogram::BucketLowerNanos(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerNanos(3), 8u);
}

TEST(Histogram, SubMicrosecondSamplesStayDistinct) {
  // The ns-internal representation separates samples the old µs-internal
  // histogram collapsed into one bucket at zero.
  Histogram histogram;
  histogram.RecordNanos(100);  // bucket 6: [64, 128)
  histogram.RecordNanos(900);  // bucket 9: [512, 1024)
  EXPECT_EQ(histogram.BucketCount(6), 1u);
  EXPECT_EQ(histogram.BucketCount(9), 1u);
  EXPECT_DOUBLE_EQ(histogram.min_seconds(), 100e-9);
  EXPECT_DOUBLE_EQ(histogram.max_seconds(), 900e-9);
  EXPECT_DOUBLE_EQ(histogram.sum_seconds(), 1000e-9);
}

TEST(Histogram, ConcurrentRecordsKeepCountAndSumExact) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.RecordNanos(static_cast<uint64_t>(i % 512) * 1000);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(histogram.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  // Sum of (i % 512) over kPerThread values, times kThreads, exactly.
  uint64_t per_thread_sum = 0;
  for (int i = 0; i < kPerThread; ++i) {
    per_thread_sum += static_cast<uint64_t>(i % 512);
  }
  EXPECT_DOUBLE_EQ(histogram.sum_seconds(),
                   static_cast<double>(per_thread_sum * kThreads) / 1e6);
  EXPECT_DOUBLE_EQ(histogram.min_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max_seconds(), 511e-6);
  // Bucket totals must account for every sample.
  uint64_t bucket_total = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    bucket_total += histogram.BucketCount(b);
  }
  EXPECT_EQ(bucket_total, histogram.count());
}

TEST(Histogram, PercentilesBracketTheDistribution) {
  Histogram histogram;
  for (int i = 0; i < 99; ++i) {
    histogram.RecordNanos(10000);  // bucket [8192, 16384) ns
  }
  histogram.RecordNanos(100000000);  // one large outlier
  double p50 = histogram.ValueAtQuantile(0.50);
  double p95 = histogram.ValueAtQuantile(0.95);
  double p100 = histogram.ValueAtQuantile(1.0);
  // p50/p95 land in the [8192,16384)ns bucket; upper bound is 16.384µs.
  EXPECT_GE(p50, 10e-6);
  EXPECT_LE(p50, 16.384e-6);
  EXPECT_LE(p95, 16.384e-6);
  // The max percentile must see the outlier (clamped to observed max).
  EXPECT_GE(p100, 64e-3);
  EXPECT_LE(p100, 100e-3 + 1e-9);
  EXPECT_DOUBLE_EQ(Histogram().ValueAtQuantile(0.5), 0.0);
}

TEST(Histogram, ValueAtQuantileWalksBucketBoundaries) {
  Histogram histogram;
  // 50 samples in [8192,16384)ns, 45 in [65536,131072)ns, 5 in ~[1.05,2.1)ms:
  // the p50/p95/p99 ranks land in the first, second, and third group.
  for (int i = 0; i < 50; ++i) {
    histogram.RecordNanos(10000);
  }
  for (int i = 0; i < 45; ++i) {
    histogram.RecordNanos(100000);
  }
  for (int i = 0; i < 5; ++i) {
    histogram.RecordNanos(2000000);
  }
  EXPECT_EQ(histogram.ValueAtQuantileNanos(0.50), 16384u);
  EXPECT_EQ(histogram.ValueAtQuantileNanos(0.95), 131072u);
  // p99 lands in the 2ms group; its bucket upper bound (2097152ns) clamps to
  // the exact observed max.
  EXPECT_EQ(histogram.ValueAtQuantileNanos(0.99), 2000000u);
  EXPECT_DOUBLE_EQ(histogram.ValueAtQuantile(0.50), 16384e-9);
}

TEST(Histogram, ValueAtQuantileClampsToObservedMax) {
  Histogram histogram;
  histogram.RecordNanos(10000);  // bucket upper bound 16384ns, max 10000ns
  EXPECT_EQ(histogram.ValueAtQuantileNanos(1.0), 10000u);
  EXPECT_EQ(histogram.ValueAtQuantileNanos(0.0), 10000u);  // single sample
}

TEST(Histogram, ValueAtQuantileEdgeCases) {
  EXPECT_EQ(Histogram().ValueAtQuantileNanos(0.5), 0u);  // empty histogram
  Histogram histogram;
  for (int i = 0; i < 4; ++i) {
    histogram.RecordNanos(1000);  // all in one bucket
  }
  // Out-of-range quantiles clamp instead of indexing past the counts.
  EXPECT_EQ(histogram.ValueAtQuantileNanos(-1.0), histogram.ValueAtQuantileNanos(0.0));
  EXPECT_EQ(histogram.ValueAtQuantileNanos(2.0), histogram.ValueAtQuantileNanos(1.0));
  // A uniform single-bucket distribution reports that bucket at any quantile.
  EXPECT_EQ(histogram.ValueAtQuantileNanos(0.0), histogram.ValueAtQuantileNanos(1.0));
}

TEST(Histogram, ResetClearsEverything) {
  Histogram histogram;
  histogram.RecordNanos(123000);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max_seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsSameInstance) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& a = registry.GetCounter("test.registry.counter");
  Counter& b = registry.GetCounter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistry, SnapshotIsNameSortedAndTyped) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.snapshot.zebra").Add(1);
  registry.GetGauge("test.snapshot.alpha").Set(5);
  registry.GetHistogram("test.snapshot.mid").RecordNanos(50000);

  std::vector<MetricRow> rows = registry.Snapshot();
  ASSERT_GE(rows.size(), 3u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].name, rows[i].name);
  }
  bool saw_counter = false, saw_gauge = false, saw_histogram = false;
  for (const MetricRow& row : rows) {
    if (row.name == "test.snapshot.zebra") {
      EXPECT_EQ(row.type, "counter");
      EXPECT_EQ(row.count, 1u);
      saw_counter = true;
    } else if (row.name == "test.snapshot.alpha") {
      EXPECT_EQ(row.type, "gauge");
      EXPECT_EQ(row.count, 5u);
      saw_gauge = true;
    } else if (row.name == "test.snapshot.mid") {
      EXPECT_EQ(row.type, "histogram");
      EXPECT_EQ(row.count, 1u);
      saw_histogram = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_histogram);
}

TEST(MetricsRegistry, RenderTableMentionsNonZeroMetrics) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.render.hits").Add(9);
  std::string table = registry.RenderTable();
  EXPECT_NE(table.find("test.render.hits"), std::string::npos);
  EXPECT_NE(table.find("counter"), std::string::npos);
}

TEST(MetricsRegistry, RenderPrometheusExposesEveryMetricKind) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.prom.hits").Add(4);
  registry.GetGauge("test.prom.depth").Set(17);
  Histogram& histogram = registry.GetHistogram("test.prom.lat");
  histogram.Reset();
  histogram.RecordNanos(1000);
  histogram.RecordNanos(3000);

  std::string out = registry.RenderPrometheus();
  // Names are vc_-prefixed and sanitized ('.' -> '_'); counters get _total.
  EXPECT_NE(out.find("# TYPE vc_test_prom_hits_total counter\n"), std::string::npos);
  EXPECT_NE(out.find("vc_test_prom_hits_total 4\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE vc_test_prom_depth gauge\n"), std::string::npos);
  EXPECT_NE(out.find("vc_test_prom_depth 17\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE vc_test_prom_lat histogram\n"), std::string::npos);
  // Buckets are cumulative with bounds in seconds: 1000ns lands in the
  // [512,1024)ns bucket, upper bound 1.024e-06 s.
  EXPECT_NE(out.find("vc_test_prom_lat_bucket{le=\"1.024e-06\"} 1\n"), std::string::npos);
  EXPECT_NE(out.find("vc_test_prom_lat_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("vc_test_prom_lat_sum 4e-06\n"), std::string::npos);
  EXPECT_NE(out.find("vc_test_prom_lat_count 2\n"), std::string::npos);
}

TEST(MetricsRegistry, EnableDisableToggleMetricsEnabled) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  bool was_enabled = registry.enabled();
  registry.Enable();
  EXPECT_TRUE(MetricsEnabled());
  registry.Disable();
  EXPECT_FALSE(MetricsEnabled());
  if (was_enabled) {
    registry.Enable();
  }
}

TEST(MetricsRegistry, ConcurrentRegistrationIsSafe) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> distinct{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &distinct] {
      for (int i = 0; i < 50; ++i) {
        registry.GetCounter("test.concurrent." + std::to_string(i)).Add();
      }
      distinct.fetch_add(1);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(distinct.load(), kThreads);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(registry.GetCounter("test.concurrent." + std::to_string(i)).value(),
              static_cast<uint64_t>(kThreads));
  }
}

TEST(ScopedTimer, RecordsOnlyWhenEnabled) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  bool was_enabled = registry.enabled();

  registry.Disable();
  double seconds = 0.0;
  { ScopedTimer timer(&seconds); }
  EXPECT_DOUBLE_EQ(seconds, 0.0);

  registry.Enable();
  Histogram histogram;
  { ScopedTimer timer(&seconds, &histogram); }
  EXPECT_GE(seconds, 0.0);
  EXPECT_EQ(histogram.count(), 1u);

  if (!was_enabled) {
    registry.Disable();
  }
}

// ---------------------------------------------------------------------------
// ThreadPoolStats
// ---------------------------------------------------------------------------

TEST(ThreadPoolStats, DeltaSubtractsFlowsKeepsLevels) {
  ThreadPoolStats before;
  before.parallel_fors = 2;
  before.tasks_executed = 10;
  before.chunks_executed = 20;
  before.steals = 3;
  before.queue_depth_hwm = 4;
  before.worker_idle_seconds = 1.0;
  before.workers = 8;

  ThreadPoolStats after = before;
  after.parallel_fors = 5;
  after.tasks_executed = 25;
  after.chunks_executed = 60;
  after.steals = 9;
  after.queue_depth_hwm = 6;
  after.worker_idle_seconds = 2.5;

  ThreadPoolStats delta = after.Delta(before);
  EXPECT_EQ(delta.parallel_fors, 3u);
  EXPECT_EQ(delta.tasks_executed, 15u);
  EXPECT_EQ(delta.chunks_executed, 40u);
  EXPECT_EQ(delta.steals, 6u);
  EXPECT_EQ(delta.queue_depth_hwm, 6u);  // level: kept absolute
  EXPECT_DOUBLE_EQ(delta.worker_idle_seconds, 1.5);
  EXPECT_EQ(delta.workers, 8);
}

TEST(ThreadPoolStats, PoolCountsChunksAcrossParallelFor) {
  ThreadPool& pool = ThreadPool::Global();
  ThreadPoolStats before = pool.stats();
  std::atomic<int> sum{0};
  pool.ParallelFor(4, 100, [&sum](size_t) { sum.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(sum.load(), 100);
  ThreadPoolStats delta = pool.stats().Delta(before);
  EXPECT_GE(delta.parallel_fors, 1u);
  EXPECT_GE(delta.chunks_executed, 1u);
}

// ---------------------------------------------------------------------------
// TraceCollector / TraceSpan
// ---------------------------------------------------------------------------

TEST(Trace, DisabledSpansRecordNothing) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Disable();
  collector.Clear();
  {
    TraceSpan span("should_not_appear", "test");
    span.Arg("k", static_cast<int64_t>(1));
  }
  EXPECT_EQ(collector.EventCount(), 0u);
}

TEST(Trace, SpansFromManyThreadsAllExport) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span("worker_span", "test");
        span.Arg("thread", static_cast<int64_t>(t));
        span.Arg("iter", static_cast<int64_t>(i));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // The main thread contributes one more span.
  { TraceSpan span("main_span", "test"); }
  collector.Disable();

  EXPECT_GE(collector.EventCount(),
            static_cast<size_t>(kThreads) * kSpansPerThread + 1);

  std::string json = collector.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"worker_span\""), std::string::npos);
  EXPECT_NE(json.find("\"main_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  collector.Clear();
}

TEST(Trace, EnableStartsFreshEpoch) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Enable();
  { TraceSpan span("first_epoch", "test"); }
  EXPECT_GE(collector.EventCount(), 1u);
  collector.Enable();  // re-enable clears the buffers
  EXPECT_EQ(collector.EventCount(), 0u);
  { TraceSpan span("second_epoch", "test"); }
  collector.Disable();
  std::string json = collector.ToJson();
  EXPECT_EQ(json.find("first_epoch"), std::string::npos);
  EXPECT_NE(json.find("second_epoch"), std::string::npos);
  collector.Clear();
}

TEST(Trace, SpansRecordTheirParentAndRestoreItOnClose) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Disable();
  {
    TraceSpan before_enable("before_enable", "test");  // inactive: never a parent
    collector.Enable();
    TraceSpan outer("outer", "test");
    { TraceSpan inner("inner", "test"); }
    { TraceSpan second("second", "test"); }
  }
  { TraceSpan after("after", "test"); }
  collector.Disable();
  std::map<std::string, TraceEvent> by_name;
  for (const TraceEvent& event : collector.SnapshotEvents()) {
    by_name[event.name] = event;
  }
  ASSERT_EQ(by_name.size(), 4u);
  const uint64_t outer = by_name["outer"].span;
  EXPECT_NE(outer, 0u);
  EXPECT_EQ(by_name["outer"].parent, 0u);
  EXPECT_EQ(by_name["inner"].parent, outer);
  EXPECT_EQ(by_name["second"].parent, outer);  // inner restored outer on close
  EXPECT_EQ(by_name["after"].parent, 0u);      // outer restored "none" on close
  EXPECT_NE(by_name["inner"].span, by_name["second"].span);

  // The trace JSON carries both ids under args.
  std::string json = collector.ToJson();
  EXPECT_NE(json.find("\"args\":{\"span\":" + std::to_string(by_name["inner"].span) +
                      ",\"parent\":" + std::to_string(outer) + "}"),
            std::string::npos)
      << json;
  collector.Clear();
}

TEST(Trace, ArgsAreEscapedIntoJson) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Enable();
  {
    TraceSpan span("args_span", "test");
    span.Arg("file", std::string("dir\\name \"quoted\".c"));
    span.Arg("n", static_cast<int64_t>(42));
  }
  collector.Disable();
  std::string json = collector.ToJson();
  EXPECT_NE(json.find("\"args\""), std::string::npos);
  EXPECT_NE(json.find("\\\\name"), std::string::npos);    // backslash escaped
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);  // quotes escaped
  collector.Clear();
}

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

TEST(Logging, ParseLogLevelAcceptsKnownNames) {
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("warning"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("INFO"), LogLevel::kInfo);  // case-insensitive
  EXPECT_FALSE(ParseLogLevel("verbose").has_value());
  EXPECT_FALSE(ParseLogLevel("").has_value());
}

TEST(Logging, LevelGatesEnablement) {
  LogLevel original = CurrentLogLevel();
  SetLogLevel(LogLevel::kWarn);
  EXPECT_TRUE(LogEnabled(LogLevel::kError));
  EXPECT_TRUE(LogEnabled(LogLevel::kWarn));
  EXPECT_FALSE(LogEnabled(LogLevel::kInfo));
  EXPECT_FALSE(LogEnabled(LogLevel::kDebug));
  SetLogLevel(LogLevel::kDebug);
  EXPECT_TRUE(LogEnabled(LogLevel::kDebug));
  SetLogLevel(original);
}

TEST(Logging, LevelNamesRoundTrip) {
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "error");
  EXPECT_STREQ(LogLevelName(LogLevel::kWarn), "warn");
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "info");
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "debug");
}

}  // namespace
}  // namespace vc
