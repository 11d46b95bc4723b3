#include "src/support/metrics.h"

#include <cassert>
#include <cstdio>

#include "src/support/table_writer.h"

namespace vc {

namespace {

// Index of the highest set bit (0 for values 0 and 1).
int Log2Floor(uint64_t v) {
  int bit = 0;
  while (v >>= 1) {
    ++bit;
  }
  return bit;
}

void AtomicMin(std::atomic<uint64_t>& slot, uint64_t v) {
  uint64_t seen = slot.load(std::memory_order_relaxed);
  while (v < seen && !slot.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>& slot, uint64_t v) {
  uint64_t seen = slot.load(std::memory_order_relaxed);
  while (v > seen && !slot.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::RecordNanos(uint64_t nanos) {
  int bucket = Log2Floor(nanos);
  if (bucket >= kBuckets) {
    bucket = kBuckets - 1;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  AtomicMin(min_nanos_, nanos);
  AtomicMax(max_nanos_, nanos);
}

double Histogram::mean_seconds() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : sum_seconds() / static_cast<double>(n);
}

double Histogram::min_seconds() const {
  uint64_t v = min_nanos_.load(std::memory_order_relaxed);
  return v == UINT64_MAX ? 0.0 : static_cast<double>(v) / 1e9;
}

double Histogram::max_seconds() const {
  return static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) / 1e9;
}

uint64_t Histogram::ValueAtQuantileNanos(double q) const {
  uint64_t n = count();
  if (n == 0) {
    return 0;
  }
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(n - 1)) + 1;
  uint64_t max = max_nanos_.load(std::memory_order_relaxed);
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += BucketCount(b);
    if (seen >= rank) {
      // Upper bound of the bucket, clamped by the exact observed max.
      uint64_t upper = uint64_t{1} << (b + 1);
      return upper < max ? upper : max;
    }
  }
  return max;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_nanos_.store(0, std::memory_order_relaxed);
  min_nanos_.store(UINT64_MAX, std::memory_order_relaxed);
  max_nanos_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  assert(gauges_.count(name) == 0 && histograms_.count(name) == 0);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  assert(counters_.count(name) == 0 && histograms_.count(name) == 0);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  assert(counters_.count(name) == 0 && gauges_.count(name) == 0);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return *slot;
}

std::vector<MetricRow> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, MetricRow> sorted;
  for (const auto& [name, counter] : counters_) {
    MetricRow row;
    row.name = name;
    row.type = "counter";
    row.count = counter->value();
    sorted[name] = std::move(row);
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricRow row;
    row.name = name;
    row.type = "gauge";
    row.count = static_cast<uint64_t>(gauge->value());
    sorted[name] = std::move(row);
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricRow row;
    row.name = name;
    row.type = "histogram";
    row.count = histogram->count();
    row.sum_seconds = histogram->sum_seconds();
    row.mean_seconds = histogram->mean_seconds();
    row.p50_seconds = histogram->ValueAtQuantile(0.5);
    row.p95_seconds = histogram->ValueAtQuantile(0.95);
    row.max_seconds = histogram->max_seconds();
    sorted[name] = std::move(row);
  }
  std::vector<MetricRow> rows;
  rows.reserve(sorted.size());
  for (auto& [name, row] : sorted) {
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string MetricsRegistry::RenderTable(bool include_zero) const {
  TableWriter table({"metric", "type", "count", "sum_ms", "mean_ms", "p50_ms", "p95_ms",
                     "max_ms"});
  for (const MetricRow& row : Snapshot()) {
    if (!include_zero && row.count == 0) {
      continue;
    }
    if (row.type == "histogram") {
      table.AddRow({row.name, row.type, std::to_string(row.count),
                    FormatDouble(row.sum_seconds * 1e3, 3),
                    FormatDouble(row.mean_seconds * 1e3, 3),
                    FormatDouble(row.p50_seconds * 1e3, 3),
                    FormatDouble(row.p95_seconds * 1e3, 3),
                    FormatDouble(row.max_seconds * 1e3, 3)});
    } else {
      table.AddRow({row.name, row.type, std::to_string(row.count), "", "", "", "", ""});
    }
  }
  return table.RenderText();
}

namespace {

// Prometheus metric name: "vc_" prefix, every byte outside [a-zA-Z0-9_:]
// replaced with '_'. (Our dotted names become underscored:
// "detect.candidates" -> "vc_detect_candidates".)
std::string PrometheusName(const std::string& name) {
  std::string out = "vc_";
  out.reserve(name.size() + 3);
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

// Shortest round-trippable decimal for bucket bounds and sums; avoids
// locale-dependent formatting.
std::string PrometheusDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return std::string(buf);
}

}  // namespace

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    std::string pname = PrometheusName(name) + "_total";
    out += "# TYPE " + pname + " counter\n";
    out += pname + " " + std::to_string(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " gauge\n";
    out += pname + " " + std::to_string(gauge->value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " histogram\n";
    // Cumulative buckets in seconds, up to the highest occupied bucket.
    int top = -1;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (histogram->BucketCount(b) > 0) {
        top = b;
      }
    }
    uint64_t cumulative = 0;
    for (int b = 0; b <= top; ++b) {
      cumulative += histogram->BucketCount(b);
      double upper = static_cast<double>(uint64_t{1} << (b + 1)) / 1e9;
      out += pname + "_bucket{le=\"" + PrometheusDouble(upper) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += pname + "_bucket{le=\"+Inf\"} " + std::to_string(histogram->count()) + "\n";
    out += pname + "_sum " + PrometheusDouble(histogram->sum_seconds()) + "\n";
    out += pname + "_count " + std::to_string(histogram->count()) + "\n";
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

}  // namespace vc
