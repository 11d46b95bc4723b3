#include "src/support/span_analysis.h"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <map>
#include <unordered_map>
#include <utility>

#include "src/support/json_writer.h"

namespace vc {

namespace {

int64_t EndMicros(const SpanNode& node) {
  return node.ts_micros + node.dur_micros;
}

// Deterministic node order: start ascending, longer spans first at equal
// start, then tid, name and span id as total-order tie breakers.
bool EventBefore(const TraceEvent* a, const TraceEvent* b) {
  if (a->ts_micros != b->ts_micros) return a->ts_micros < b->ts_micros;
  if (a->dur_micros != b->dur_micros) return a->dur_micros > b->dur_micros;
  if (a->tid != b->tid) return a->tid < b->tid;
  if (a->name != b->name) return a->name < b->name;
  return a->span < b->span;
}

// Frame names must not contain the folded format's separators.
std::string SanitizeFrame(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == ';' || c == ' ' || c == '\n' || c == '\t') {
      c = '_';
    }
  }
  return out;
}

double Clamp01(double v) { return v < 0 ? 0 : (v > 1 ? 1 : v); }

}  // namespace

SpanGraph SpanGraph::Build(const std::vector<TraceEvent>& events) {
  SpanGraph graph;
  if (events.empty()) {
    return graph;
  }
  std::vector<const TraceEvent*> sorted;
  sorted.reserve(events.size());
  for (const TraceEvent& event : events) {
    sorted.push_back(&event);
  }
  std::stable_sort(sorted.begin(), sorted.end(), EventBefore);

  graph.nodes.resize(sorted.size());
  graph.window_begin_micros = sorted.front()->ts_micros;
  graph.window_end_micros = sorted.front()->ts_micros;
  std::unordered_map<uint64_t, int> by_span;  // span id -> node index
  by_span.reserve(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    SpanNode& node = graph.nodes[i];
    node.name = SanitizeFrame(sorted[i]->name);
    node.tid = sorted[i]->tid;
    node.ts_micros = sorted[i]->ts_micros;
    node.dur_micros = std::max<int64_t>(0, sorted[i]->dur_micros);
    node.self_micros = node.dur_micros;
    graph.window_end_micros = std::max(graph.window_end_micros, EndMicros(node));
    if (sorted[i]->span != 0) {
      by_span.emplace(sorted[i]->span, static_cast<int>(i));
    }
  }
  // Link by recorded parent ids. An absent parent (0 included) makes the
  // node a root. A child on its parent's thread ran inside it and leaves the
  // parent's self time.
  for (size_t i = 0; i < sorted.size(); ++i) {
    auto parent = by_span.find(sorted[i]->parent);
    if (parent == by_span.end()) {
      graph.roots.push_back(static_cast<int>(i));
      continue;
    }
    SpanNode& node = graph.nodes[i];
    SpanNode& up = graph.nodes[parent->second];
    node.parent = parent->second;
    up.children.push_back(static_cast<int>(i));
    if (up.tid == node.tid) {
      up.self_micros -= node.dur_micros;
    }
  }
  for (SpanNode& node : graph.nodes) {
    node.self_micros = std::max<int64_t>(0, node.self_micros);
  }
  return graph;
}

namespace {

// Union length of a set of [begin, end) intervals, plus a bucketized busy
// fraction timeline over [window_begin, window_end).
struct BusyProfile {
  int64_t busy_micros = 0;
  std::vector<double> timeline;
};

BusyProfile ComputeBusy(std::vector<std::pair<int64_t, int64_t>> intervals,
                        int64_t window_begin, int64_t window_end,
                        int buckets) {
  BusyProfile profile;
  profile.timeline.assign(static_cast<size_t>(std::max(1, buckets)), 0.0);
  int64_t window = window_end - window_begin;
  if (intervals.empty() || window <= 0) {
    return profile;
  }
  std::sort(intervals.begin(), intervals.end());
  // Merge, then measure and bucketize the merged runs.
  std::vector<std::pair<int64_t, int64_t>> merged;
  for (const auto& iv : intervals) {
    if (iv.second <= iv.first) continue;
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  double bucket_len =
      static_cast<double>(window) / static_cast<double>(profile.timeline.size());
  for (const auto& iv : merged) {
    profile.busy_micros += iv.second - iv.first;
    double lo = static_cast<double>(iv.first - window_begin);
    double hi = static_cast<double>(iv.second - window_begin);
    size_t first = static_cast<size_t>(std::max(0.0, lo / bucket_len));
    for (size_t b = first; b < profile.timeline.size(); ++b) {
      double b_lo = static_cast<double>(b) * bucket_len;
      double b_hi = b_lo + bucket_len;
      if (b_lo >= hi) break;
      double covered = std::min(hi, b_hi) - std::max(lo, b_lo);
      if (covered > 0) {
        profile.timeline[b] += covered / bucket_len;
      }
    }
  }
  for (double& v : profile.timeline) {
    v = Clamp01(v);
  }
  return profile;
}

}  // namespace

PerfReport AnalyzeSpans(const std::vector<TraceEvent>& events,
                        const PerfInputs& inputs) {
  PerfReport report;
  report.jobs = inputs.jobs;
  report.hardware_threads = inputs.hardware_threads;
  report.span_count = events.size();
  report.dropped_spans = inputs.dropped_spans;

  SpanGraph graph = SpanGraph::Build(events);
  int64_t window = graph.window_end_micros - graph.window_begin_micros;
  report.wall_seconds = inputs.wall_seconds > 0
                            ? inputs.wall_seconds
                            : static_cast<double>(window) / 1e6;

  // Per-worker busy/idle over the shared observation window.
  std::map<int, std::vector<std::pair<int64_t, int64_t>>> per_tid;
  for (const SpanNode& node : graph.nodes) {
    per_tid[node.tid].push_back({node.ts_micros, EndMicros(node)});
  }
  double window_seconds = static_cast<double>(window) / 1e6;
  for (const auto& [tid, intervals] : per_tid) {
    BusyProfile busy =
        ComputeBusy(intervals, graph.window_begin_micros,
                    graph.window_end_micros, inputs.timeline_buckets);
    WorkerUtilization worker;
    worker.tid = tid;
    worker.spans = intervals.size();
    worker.busy_seconds = static_cast<double>(busy.busy_micros) / 1e6;
    worker.idle_seconds = std::max(0.0, window_seconds - worker.busy_seconds);
    worker.utilization =
        window_seconds > 0 ? Clamp01(worker.busy_seconds / window_seconds) : 0;
    worker.timeline = std::move(busy.timeline);
    report.total_busy_seconds += worker.busy_seconds;
    report.workers.push_back(std::move(worker));
  }

  if (!report.workers.empty()) {
    double sum_util = 0;
    for (const WorkerUtilization& w : report.workers) {
      sum_util += w.utilization;
      report.max_busy_seconds = std::max(report.max_busy_seconds, w.busy_seconds);
    }
    report.mean_utilization =
        sum_util / static_cast<double>(report.workers.size());
    report.mean_busy_seconds =
        report.total_busy_seconds / static_cast<double>(report.workers.size());
    report.imbalance_ratio = report.mean_busy_seconds > 0
                                 ? report.max_busy_seconds / report.mean_busy_seconds
                                 : 0.0;
  }

  // Amdahl fit: T = s*W + (1-s)*W/n solved for s. One worker (or no
  // measured work) is serial by definition.
  double n = static_cast<double>(report.workers.size());
  double work = report.total_busy_seconds;
  double wall = report.wall_seconds;
  if (n <= 1 || work <= 0 || wall <= 0) {
    report.serial_fraction = 1.0;
  } else {
    report.serial_fraction = Clamp01((n * wall - work) / (work * (n - 1)));
  }

  if (inputs.pool != nullptr) {
    report.steals = inputs.pool->steals;
    report.steal_latency_ns = inputs.pool->steal_latency_ns;
    while (!report.steal_latency_ns.empty() &&
           report.steal_latency_ns.back() == 0) {
      report.steal_latency_ns.pop_back();
    }
  }

  return report;
}

std::string PerfReportToJson(const PerfReport& report) {
  // Field order is part of the schema: vc_obs_lint perf checks that the
  // top-level keys appear exactly in this sequence.
  JsonWriter json;
  json.BeginObject();
  json.Int("schema_version", PerfReport::kSchemaVersion);
  json.Double("wall_seconds", report.wall_seconds);
  json.Int("jobs", report.jobs);
  json.Int("hardware_threads", report.hardware_threads);
  json.Int("span_count", static_cast<int64_t>(report.span_count));
  json.Int("dropped_spans", static_cast<int64_t>(report.dropped_spans));

  json.Double("serial_fraction", report.serial_fraction);
  json.Double("total_busy_seconds", report.total_busy_seconds);

  json.Key("workers").BeginArray();
  for (size_t i = 0; i < report.workers.size(); ++i) {
    const WorkerUtilization& w = report.workers[i];
    json.BeginObject();
    json.Int("id", static_cast<int64_t>(i));
    json.Int("tid", w.tid);
    json.Int("spans", static_cast<int64_t>(w.spans));
    json.Double("busy_seconds", w.busy_seconds);
    json.Double("idle_seconds", w.idle_seconds);
    json.Double("utilization", w.utilization);
    json.Key("timeline").BeginArray();
    for (double v : w.timeline) {
      json.DoubleValue(v);
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Double("mean_utilization", report.mean_utilization);

  json.Key("imbalance").BeginObject();
  json.Double("max_busy_seconds", report.max_busy_seconds);
  json.Double("mean_busy_seconds", report.mean_busy_seconds);
  json.Double("ratio", report.imbalance_ratio);
  json.EndObject();

  json.Key("steals").BeginObject();
  json.Int("count", static_cast<int64_t>(report.steals));
  json.Key("latency_ns_log2").BeginArray();
  for (uint64_t bucket : report.steal_latency_ns) {
    json.IntValue(static_cast<int64_t>(bucket));
  }
  json.EndArray();
  json.EndObject();

  json.EndObject();
  return json.str();
}

bool WritePerfReport(const PerfReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << PerfReportToJson(report) << "\n";
  return static_cast<bool>(out);
}

}  // namespace vc
