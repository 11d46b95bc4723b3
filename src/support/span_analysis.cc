#include "src/support/span_analysis.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

#include "src/support/json_writer.h"

namespace vc {

namespace {

int64_t EndMicros(const SpanNode& node) {
  return node.ts_micros + node.dur_micros;
}

// Deterministic event order: start ascending, longer spans first at equal
// start (so a parent precedes the children it contains), then tid and name
// as total-order tie breakers.
bool EventBefore(const TraceEvent& a, const TraceEvent& b) {
  if (a.ts_micros != b.ts_micros) return a.ts_micros < b.ts_micros;
  if (a.dur_micros != b.dur_micros) return a.dur_micros > b.dur_micros;
  if (a.tid != b.tid) return a.tid < b.tid;
  return a.name < b.name;
}

double Clamp01(double v) { return v < 0 ? 0 : (v > 1 ? 1 : v); }

}  // namespace

SpanGraph SpanGraph::Build(const std::vector<TraceEvent>& events) {
  SpanGraph graph;
  if (events.empty()) {
    return graph;
  }

  std::vector<TraceEvent> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(), EventBefore);

  graph.nodes.reserve(sorted.size());
  graph.window_begin_micros = sorted.front().ts_micros;
  graph.window_end_micros = sorted.front().ts_micros;
  for (const TraceEvent& event : sorted) {
    SpanNode node;
    node.name = event.name;
    node.tid = event.tid;
    node.ts_micros = event.ts_micros;
    node.dur_micros = std::max<int64_t>(0, event.dur_micros);
    graph.window_end_micros =
        std::max(graph.window_end_micros, EndMicros(node));
    graph.nodes.push_back(std::move(node));
  }

  // One containment sweep in global start order. Each tid keeps a stack of
  // open frames; a node nests under the top of its own tid's stack, and a
  // node opening a tid's stack takes a fork edge from another tid.
  std::map<int, std::vector<int>> open;  // tid -> stack of node indices
  for (size_t idx = 0; idx < graph.nodes.size(); ++idx) {
    SpanNode& node = graph.nodes[idx];
    for (auto& [tid, stack] : open) {
      while (!stack.empty() &&
             EndMicros(graph.nodes[stack.back()]) <= node.ts_micros) {
        stack.pop_back();
      }
    }
    std::vector<int>& own = open[node.tid];
    int parent = -1;
    if (!own.empty()) {
      parent = own.back();
    }
    // Deepest (= latest-starting) containing open frame on another tid, ties
    // toward the lower tid. The first pass takes only the pool's fork spans:
    // a sibling lane's span can contain a worker's span but never forked it.
    for (int pass = 0; pass < 2 && parent < 0; ++pass) {
      for (const auto& [tid, stack] : open) {
        if (tid == node.tid) continue;
        for (size_t d = stack.size(); d-- > 0;) {
          int cand = stack[d];
          if (EndMicros(graph.nodes[cand]) < EndMicros(node) ||
              (pass == 0 && std::strcmp(sorted[cand].category, "threadpool") != 0)) {
            continue;
          }
          if (parent < 0 ||
              graph.nodes[cand].ts_micros > graph.nodes[parent].ts_micros) {
            parent = cand;
          }
          break;  // frames below start no later: the first hit is the deepest
        }
      }
    }
    if (parent >= 0) {
      node.parent = parent;
      graph.nodes[parent].children.push_back(static_cast<int>(idx));
    } else {
      graph.roots.push_back(static_cast<int>(idx));
    }
    own.push_back(static_cast<int>(idx));
  }

  // Critical path, bottom-up. Parents always precede children in index
  // order (the sweep assigns parents from already-visited nodes), so a
  // reverse pass sees every child before its parent. Children on the same
  // tid are sequential; child groups on different tids run in parallel, so
  // only the heaviest lane extends the chain. Clamping to the node's own
  // duration keeps chains inside their containing span — and total critical
  // path under wall time — by construction.
  for (size_t i = graph.nodes.size(); i-- > 0;) {
    SpanNode& node = graph.nodes[i];
    if (node.children.empty()) {
      node.critical_micros = node.dur_micros;
      continue;
    }
    int64_t own_cover = 0;
    std::map<int, int64_t> lane_chain;  // child tid -> summed chain
    for (int child : node.children) {
      const SpanNode& c = graph.nodes[child];
      if (c.tid == node.tid) {
        own_cover += c.dur_micros;
      }
      lane_chain[c.tid] += c.critical_micros;
    }
    int64_t self = std::max<int64_t>(0, node.dur_micros - own_cover);
    int64_t best = 0;
    for (const auto& [tid, chain] : lane_chain) {
      best = std::max(best, chain);
    }
    node.critical_micros = std::min(node.dur_micros, self + best);
  }

  return graph;
}

namespace {

// Picks the lane (child tid group) carrying the node's critical chain;
// ties break toward the lower tid. Returns the lane's summed chain.
int64_t CriticalLane(const SpanGraph& graph, const SpanNode& node,
                     int& lane_tid) {
  std::map<int, int64_t> lane_chain;
  for (int child : node.children) {
    lane_chain[graph.nodes[child].tid] += graph.nodes[child].critical_micros;
  }
  lane_tid = -1;
  int64_t best = -1;
  for (const auto& [tid, chain] : lane_chain) {
    if (chain > best) {
      best = chain;
      lane_tid = tid;
    }
  }
  return best < 0 ? 0 : best;
}

// Walks the critical chain, folding each frame's uncovered contribution
// into an ordered stack -> seconds aggregation (repeated frames like a
// per-function detect span collapse into one listing line).
void FoldCriticalPath(const SpanGraph& graph, int idx,
                      const std::string& prefix,
                      std::vector<std::string>& order,
                      std::map<std::string, double>& folded) {
  const SpanNode& node = graph.nodes[idx];
  std::string stack = prefix.empty() ? node.name : prefix + ";" + node.name;
  int lane_tid = -1;
  int64_t lane = node.children.empty() ? 0 : CriticalLane(graph, node, lane_tid);
  double self_seconds =
      static_cast<double>(std::max<int64_t>(0, node.critical_micros - lane)) /
      1e6;
  if (self_seconds > 0 || node.children.empty()) {
    auto it = folded.find(stack);
    if (it == folded.end()) {
      order.push_back(stack);
      folded[stack] = self_seconds;
    } else {
      it->second += self_seconds;
    }
  }
  for (int child : node.children) {
    if (graph.nodes[child].tid == lane_tid) {
      FoldCriticalPath(graph, child, stack, order, folded);
    }
  }
}

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

  // Critical path: roots are sequential phases of the run; overlapping
  // roots (parallel work the attachment pass could not anchor) would
  // double-count, so the total is clamped to the observation window and to
  // the wall clock.
  int64_t total_cp = 0;
  for (int root : graph.roots) {
    total_cp += graph.nodes[root].critical_micros;
  }
  total_cp = std::min(total_cp, window);
  report.critical_path_seconds =
      std::min(static_cast<double>(total_cp) / 1e6, report.wall_seconds);
  report.critical_path_fraction =
      report.wall_seconds > 0
          ? Clamp01(report.critical_path_seconds / report.wall_seconds)
          : 0.0;
  {
    std::vector<std::string> order;
    std::map<std::string, double> folded;
    for (int root : graph.roots) {
      FoldCriticalPath(graph, root, "", order, folded);
    }
    for (const std::string& stack : order) {
      report.critical_path.push_back({stack, folded[stack]});
    }
  }

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

  json.Key("critical_path").BeginObject();
  json.Double("seconds", report.critical_path_seconds);
  json.Double("fraction", report.critical_path_fraction);
  json.Key("folded").BeginArray();
  for (const CriticalPathStep& step : report.critical_path) {
    json.BeginObject();
    json.String("stack", step.stack);
    json.Double("seconds", step.seconds);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

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
