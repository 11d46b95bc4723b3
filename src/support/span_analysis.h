// Scalability observatory: post-processes trace-span buffers into a span
// graph and derives per-run performance analytics — Amdahl serial-fraction
// fit, per-worker utilization timelines, and work-imbalance metrics. This is
// the measurement half of "make parallelism real": before optimizing the
// parallel pipeline we must be able to see where parallel time actually goes.
//
// Span-graph model. TraceCollector buffers complete ("ph":"X") spans per
// thread, each carrying its own id and the id of the span that was current
// on its thread when it opened. Every lane of a pooled loop opens a `lane`
// span under the loop's parallel_for, so the spans a worker opens sit under
// its lane, and the lane under the fork that ran it. Build links nodes by
// those recorded ids; nothing is inferred from timestamps. A span whose
// parent is absent (dropped by the buffer cap, or opened before Enable()) is
// a root. The same graph feeds the perf report, the collapsed-stack profile
// (profile_export.h) and the scalability bench.
//
// Self time. A node's self time is its duration minus the durations of its
// children on the same thread; children on other threads ran in parallel
// and do not reduce it.
//
// Serial fraction. An Amdahl fit from the measured wall time T, the summed
// per-worker busy time W and the observed worker count n: solving
// T = s*W + (1-s)*W/n for s gives s = (n*T - W) / (W * (n - 1)), clamped
// to [0, 1]. s ~ 0 means the run was work-bound (more cores would help);
// s ~ 1 means the run was chain-bound.
//
// All derived structure (node order, worker order) is deterministic for a
// deterministic span structure; only measured durations vary between runs.

#ifndef VALUECHECK_SRC_SUPPORT_SPAN_ANALYSIS_H_
#define VALUECHECK_SRC_SUPPORT_SPAN_ANALYSIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace vc {

// One node of the span graph.
struct SpanNode {
  std::string name;                // folded-stack frame: ';', ' ', tab, newline -> '_'
  int tid = 0;
  int64_t ts_micros = 0;
  int64_t dur_micros = 0;
  int parent = -1;                 // index into SpanGraph::nodes; -1 = root
  std::vector<int> children;       // node indices in start order
  int64_t self_micros = 0;         // duration minus same-tid children, >= 0
};

// The recorded span tree plus the global observation window.
struct SpanGraph {
  std::vector<SpanNode> nodes;     // in (ts, -dur, tid, name, span id) order
  std::vector<int> roots;          // unparented nodes, in node order
  int64_t window_begin_micros = 0;
  int64_t window_end_micros = 0;

  // Links nodes by their recorded parent ids and fills self_micros. Events
  // may arrive in any order; a parent need not precede its children in node
  // order.
  static SpanGraph Build(const std::vector<TraceEvent>& events);
};

// Busy/idle accounting for one observed thread.
struct WorkerUtilization {
  int tid = 0;
  uint64_t spans = 0;
  double busy_seconds = 0;     // union length of the thread's span intervals
  double idle_seconds = 0;     // window minus busy
  double utilization = 0;      // busy / window, in [0, 1]
  std::vector<double> timeline;  // busy fraction per equal time bucket
};

// Inputs that the span buffers alone cannot supply.
struct PerfInputs {
  double wall_seconds = 0;    // authoritative wall clock; <= 0 uses the span window
  int jobs = 1;               // --jobs the run was configured with
  int hardware_threads = 1;   // HardwareThreads() of the measuring machine
  uint64_t dropped_spans = 0; // TraceCollector::dropped_count()
  int timeline_buckets = 24;  // resolution of per-worker busy timelines
  const ThreadPoolStats* pool = nullptr;  // per-run delta (steal latencies)
};

// The full perf report. Field order in the JSON rendering is fixed (the
// order below); vc_obs_lint's perf mode checks it.
struct PerfReport {
  static constexpr int kSchemaVersion = 2;

  double wall_seconds = 0;
  int jobs = 1;
  int hardware_threads = 1;
  uint64_t span_count = 0;
  uint64_t dropped_spans = 0;

  double serial_fraction = 0;         // Amdahl fit, in [0, 1]
  double total_busy_seconds = 0;      // summed across workers

  std::vector<WorkerUtilization> workers;  // position == dense worker id
  double mean_utilization = 0;

  double max_busy_seconds = 0;
  double mean_busy_seconds = 0;
  double imbalance_ratio = 0;         // max / mean busy (1.0 = perfectly even)

  uint64_t steals = 0;
  std::vector<uint64_t> steal_latency_ns;  // log2(ns) buckets, trailing zeros trimmed
};

// Builds the report from a span snapshot. Safe on empty input: yields a
// structurally complete report with zeroed measurements.
PerfReport AnalyzeSpans(const std::vector<TraceEvent>& events,
                        const PerfInputs& inputs);

// Stable-field-order JSON rendering / file export of the report.
std::string PerfReportToJson(const PerfReport& report);
bool WritePerfReport(const PerfReport& report, const std::string& path);

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_SPAN_ANALYSIS_H_
