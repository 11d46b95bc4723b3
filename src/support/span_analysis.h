// Scalability observatory: post-processes trace-span buffers into a span
// graph and derives per-run performance analytics — critical path, Amdahl
// serial-fraction fit, per-worker utilization timelines, and work-imbalance
// metrics. This is the measurement half of "make parallelism real": before
// optimizing the parallel pipeline we must be able to see where parallel
// time actually goes.
//
// Span-graph model. TraceCollector buffers complete ("ph":"X") spans per
// thread, each carrying its own id and the id of the span that was current
// on its thread when it opened (a pool lane's current span is the loop's
// parallel_for, so worker spans name the fork that ran them). Build links
// nodes by those recorded ids; nothing is inferred from timestamps. A span
// whose parent is absent (dropped by the buffer cap, or opened before
// Enable()) is a root. The same graph feeds the perf report, the
// collapsed-stack profile (profile_export.h) and the scalability bench.
//
// Self time. A node's self time is its duration minus the durations of its
// children on the same thread; children on other threads ran in parallel
// and do not reduce it.
//
// Critical path. The longest dependent chain through the graph, computed
// bottom-up: a node's chain is its self time plus the largest per-tid
// chain among its children (children on the same tid are sequential;
// groups on different tids run in parallel, so only the heaviest lane
// counts), clamped to the node's own duration — a span's
// dependents cannot outlast the span that contains them, which also makes
// total critical path <= wall time by construction. The chain is rendered
// as a folded listing ("a;b;c <seconds>") compatible with flamegraph
// tooling; only frames that add time to the chain are listed, so every
// listed stack is also a stack of the collapsed-stack profile.
//
// Serial fraction. An Amdahl fit from the measured wall time T, the summed
// per-worker busy time W and the observed worker count n: solving
// T = s*W + (1-s)*W/n for s gives s = (n*T - W) / (W * (n - 1)), clamped
// to [0, 1]. s ~ 0 means the run was work-bound (more cores would help);
// s ~ 1 means the run was chain-bound.
//
// All derived structure (node order, worker order, folded-listing shape) is
// deterministic for a deterministic span structure; only measured durations
// vary between runs.

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
  int64_t critical_micros = 0;     // longest dependent chain through this node
  int critical_lane = -1;          // child tid whose chain extends it; -1 = none
};

// The recorded span tree plus the global observation window.
struct SpanGraph {
  std::vector<SpanNode> nodes;     // in (ts, -dur, tid, name, span id) order
  std::vector<int> roots;          // unparented nodes, in node order
  int64_t window_begin_micros = 0;
  int64_t window_end_micros = 0;

  // Links nodes by their recorded parent ids and fills self_micros,
  // critical_micros and critical_lane bottom-up. Events may arrive in any
  // order; a parent need not precede its children in node order.
  static SpanGraph Build(const std::vector<TraceEvent>& events);
};

// One line of the folded critical-path listing.
struct CriticalPathStep {
  std::string stack;    // "analysis.run;detect;detect_fn"
  double seconds = 0;   // uncovered self time contributed by the frame
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
  static constexpr int kSchemaVersion = 1;

  double wall_seconds = 0;
  int jobs = 1;
  int hardware_threads = 1;
  uint64_t span_count = 0;
  uint64_t dropped_spans = 0;

  double critical_path_seconds = 0;
  double critical_path_fraction = 0;  // critical path / wall, in [0, 1]
  std::vector<CriticalPathStep> critical_path;

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
