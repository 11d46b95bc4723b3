// Zero-dependency metrics layer for the analysis pipeline: thread-safe
// counters, max-tracking gauges, and log-scale latency histograms, registered
// by name in a process-global MetricsRegistry.
//
// Design constraints (see DESIGN.md §"Observability"):
//   * Hot-path operations (Counter::Add, Gauge::UpdateMax, Histogram::Record)
//     are single relaxed atomic RMWs — safe from any thread, no locks.
//   * Registration (GetCounter/GetGauge/GetHistogram) takes a mutex; callers
//     on hot paths should resolve the metric reference once, outside loops.
//     Returned references stay valid for the registry's lifetime.
//   * The registry carries a global enabled flag (MetricsEnabled()). Metric
//     objects always accept updates; the flag exists so instrumentation sites
//     can skip the *clock reads* that feed histograms — the expensive part —
//     when nobody is collecting. Determinism is unaffected either way:
//     metrics never influence analysis results.
//   * Snapshots iterate name-sorted (std::map), so rendered tables and JSON
//     are stable run to run up to the measured values themselves.

#ifndef VALUECHECK_SRC_SUPPORT_METRICS_H_
#define VALUECHECK_SRC_SUPPORT_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vc {

// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-value gauge with a lock-free max-update form (high-water marks).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void UpdateMax(int64_t v) {
    int64_t seen = value_.load(std::memory_order_relaxed);
    while (v > seen &&
           !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log-scale latency histogram over nanoseconds: bucket b counts samples in
// [2^b, 2^(b+1)) ns (bucket 0 additionally holds sub-nanosecond samples).
// Nanosecond-internal storage keeps sub-microsecond stages (fast per-function
// detect spans) from all collapsing into one bucket; seconds appear only at
// the export accessors. Concurrent Record calls are lock-free;
// count/sum/min/max are exact, percentiles are bucket-resolution
// approximations.
class Histogram {
 public:
  static constexpr int kBuckets = 50;  // 2^49 ns ≈ 6.5 days: plenty

  void Record(double seconds) {
    RecordNanos(seconds <= 0.0 ? 0 : static_cast<uint64_t>(seconds * 1e9));
  }
  void RecordNanos(uint64_t nanos);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_seconds() const {
    return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) / 1e9;
  }
  double mean_seconds() const;
  double min_seconds() const;
  double max_seconds() const;
  // Approximate quantile (q in [0, 1]) as the upper bound of the log₂ bucket
  // containing the q-th sample, clamped by the exact observed max so p100
  // (and any quantile landing in the top occupied bucket) is exact. Returns 0
  // for an empty histogram. This is THE percentile code path: stage tables,
  // Prometheus consumers, the serve latency report, and vc_loadgen all derive
  // p50/p95/p99 from it.
  double ValueAtQuantile(double q) const {
    return static_cast<double>(ValueAtQuantileNanos(q)) / 1e9;
  }
  uint64_t ValueAtQuantileNanos(double q) const;

  uint64_t BucketCount(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  // Inclusive lower bound of a bucket, in nanoseconds.
  static uint64_t BucketLowerNanos(int bucket) {
    return bucket == 0 ? 0 : (uint64_t{1} << bucket);
  }

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_nanos_{0};
  std::atomic<uint64_t> min_nanos_{UINT64_MAX};
  std::atomic<uint64_t> max_nanos_{0};
};

// One name-sorted row of a registry snapshot, pre-formatted for tables/JSON.
struct MetricRow {
  std::string name;
  std::string type;  // "counter" | "gauge" | "histogram"
  uint64_t count = 0;         // counter/gauge value, or histogram sample count
  double sum_seconds = 0.0;   // histograms only
  double mean_seconds = 0.0;  // histograms only
  double p50_seconds = 0.0;   // histograms only
  double p95_seconds = 0.0;   // histograms only
  double max_seconds = 0.0;   // histograms only
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Collection switch read by instrumentation sites (see header comment).
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Find-or-create by name. A name registers exactly one metric kind; asking
  // for the same name as a different kind is a programming error (asserted).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // Name-sorted snapshot of every registered metric.
  std::vector<MetricRow> Snapshot() const;

  // Aligned text table of the snapshot (via TableWriter); histogram times in
  // milliseconds. Skips zero-count metrics unless include_zero.
  std::string RenderTable(bool include_zero = false) const;

  // Prometheus text exposition (version 0.0.4) of every registered metric.
  // Names are prefixed "vc_" and sanitized to [a-zA-Z0-9_:]; counters gain a
  // "_total" suffix per convention. Histograms export cumulative le-buckets
  // in seconds plus _sum/_count. Name-sorted within each metric kind, so the
  // dump is layout-stable.
  std::string RenderPrometheus() const;

  // Zeroes every metric (registrations survive, references stay valid).
  void ResetAll();

 private:
  MetricsRegistry() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Shorthand for MetricsRegistry::Global().enabled().
inline bool MetricsEnabled() { return MetricsRegistry::Global().enabled(); }

// RAII stage timer: when metrics are enabled at construction, measures the
// scope's wall-clock and records it into an optional seconds accumulator and
// an optional histogram. A no-op (no clock reads) when disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* seconds_out, Histogram* histogram = nullptr)
      : seconds_out_(seconds_out), histogram_(histogram), active_(MetricsEnabled()) {
    if (active_) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    if (!active_) {
      return;
    }
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    if (seconds_out_ != nullptr) {
      *seconds_out_ += seconds;
    }
    if (histogram_ != nullptr) {
      histogram_->Record(seconds);
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* seconds_out_;
  Histogram* histogram_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_METRICS_H_
