// Tests for the scalability observatory's span analytics: the span graph
// linked by recorded parent ids (same-tid nesting, cross-tid fork edges,
// timestamp ties), self time, busy/idle utilization, the Amdahl serial-fraction fit, dropped-span
// accounting, and the stable-field-order JSON rendering — plus structural
// determinism of the whole report under input shuffling, and one recorded
// tree of a parallel run shared by the perf report and the folded profile.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/analysis.h"
#include "src/support/json_reader.h"
#include "src/support/profile_export.h"
#include "src/support/span_analysis.h"
#include "src/support/trace.h"
#include "src/testing/corpusgen.h"

namespace vc {
namespace {

// A recorded span: `span` is its id, `parent` the id of the span that was
// current on its thread when it opened (0 = root).
TraceEvent Ev(const char* name, int tid, int64_t ts, int64_t dur, uint64_t span,
              uint64_t parent = 0) {
  TraceEvent event;
  event.name = name;
  event.tid = tid;
  event.ts_micros = ts;
  event.dur_micros = dur;
  event.span = span;
  event.parent = parent;
  return event;
}

PerfInputs Inputs(double wall = 0.0, int jobs = 1) {
  PerfInputs inputs;
  inputs.wall_seconds = wall;
  inputs.jobs = jobs;
  inputs.hardware_threads = 4;
  return inputs;
}

// ---------------------------------------------------------------------------
// Empty input
// ---------------------------------------------------------------------------

TEST(SpanAnalysis, EmptyTraceYieldsStructurallyCompleteReport) {
  PerfReport report = AnalyzeSpans({}, Inputs());
  EXPECT_EQ(report.span_count, 0u);
  EXPECT_TRUE(report.workers.empty());
  EXPECT_EQ(report.mean_utilization, 0.0);
  EXPECT_EQ(report.serial_fraction, 1.0);  // no measured work = serial

  // The JSON render must still be complete and parseable.
  std::string json = PerfReportToJson(report);
  std::string error;
  std::optional<JsonValue> value = ParseJson(json, &error);
  ASSERT_TRUE(value.has_value()) << error;
  EXPECT_EQ(value->GetInt("schema_version", -1), PerfReport::kSchemaVersion);
  EXPECT_FALSE(value->Has("critical_path"));
  EXPECT_TRUE(value->Has("workers"));
  EXPECT_TRUE(value->Has("steals"));
}

// ---------------------------------------------------------------------------
// Same-tid nesting
// ---------------------------------------------------------------------------

TEST(SpanAnalysis, SingleThreadNestingAndSelfTime) {
  // root [0,1000] containing child [100,500) (with grandchild [150,250))
  // and sibling [600,900).
  std::vector<TraceEvent> events = {
      Ev("root", 0, 0, 1000, 1),
      Ev("child", 0, 100, 400, 2, 1),
      Ev("grandchild", 0, 150, 100, 3, 2),
      Ev("sibling", 0, 600, 300, 4, 1),
  };
  SpanGraph graph = SpanGraph::Build(events);
  ASSERT_EQ(graph.nodes.size(), 4u);
  ASSERT_EQ(graph.roots.size(), 1u);
  const SpanNode& root = graph.nodes[graph.roots[0]];
  EXPECT_EQ(root.name, "root");
  EXPECT_EQ(root.parent, -1);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(graph.nodes[root.children[0]].name, "child");
  EXPECT_EQ(graph.nodes[root.children[1]].name, "sibling");
  const SpanNode& child = graph.nodes[root.children[0]];
  EXPECT_EQ(child.children.size(), 1u);

  // Same-tid children ran inside their parent: each node's self time is its
  // duration minus theirs.
  EXPECT_EQ(root.self_micros, 1000 - 400 - 300);
  EXPECT_EQ(child.self_micros, 400 - 100);
  EXPECT_EQ(graph.nodes[child.children[0]].self_micros, 100);
  EXPECT_EQ(graph.nodes[root.children[1]].self_micros, 300);

  PerfReport report = AnalyzeSpans(events, Inputs());
  EXPECT_DOUBLE_EQ(report.wall_seconds, 0.001);  // window = 1000us

  // One worker, fully busy (intervals cover the window).
  ASSERT_EQ(report.workers.size(), 1u);
  EXPECT_EQ(report.workers[0].spans, 4u);
  EXPECT_DOUBLE_EQ(report.workers[0].utilization, 1.0);
  EXPECT_EQ(report.serial_fraction, 1.0);  // one worker = serial
}

// ---------------------------------------------------------------------------
// Cross-tid fork edges + the wall clamp
// ---------------------------------------------------------------------------

TEST(SpanAnalysis, CrossTidForkJoinLeavesParentSelfTime) {
  // Two worker lanes whose windows overlap, both recorded under the run span
  // on tid 0.
  std::vector<TraceEvent> events = {
      Ev("run", 0, 0, 1000, 1),
      Ev("lane_a", 1, 100, 600, 2, 1),
      Ev("lane_b", 2, 150, 600, 3, 1),
  };
  SpanGraph graph = SpanGraph::Build(events);
  ASSERT_EQ(graph.roots.size(), 1u);
  const SpanNode& run = graph.nodes[graph.roots[0]];
  ASSERT_EQ(run.children.size(), 2u);
  EXPECT_EQ(graph.nodes[run.children[0]].name, "lane_a");
  EXPECT_EQ(graph.nodes[run.children[0]].parent, graph.roots[0]);
  EXPECT_EQ(graph.nodes[run.children[1]].name, "lane_b");

  // Children on other tids ran in parallel and do not reduce self time.
  EXPECT_EQ(run.self_micros, 1000);

  PerfReport report = AnalyzeSpans(events, Inputs());
  ASSERT_EQ(report.workers.size(), 3u);
  EXPECT_DOUBLE_EQ(report.workers[0].busy_seconds, 1000e-6);
  EXPECT_DOUBLE_EQ(report.workers[1].busy_seconds, 600e-6);
  EXPECT_DOUBLE_EQ(report.workers[2].busy_seconds, 600e-6);
  EXPECT_NEAR(report.total_busy_seconds, 2200e-6, 1e-9);
  EXPECT_NEAR(report.mean_utilization, (1.0 + 0.6 + 0.6) / 3.0, 1e-9);
  EXPECT_NEAR(report.imbalance_ratio, 1000.0 / (2200.0 / 3.0), 1e-9);
  // Amdahl: T = s*W + (1-s)*W/n solved for s = (n*T - W) / (W*(n-1)),
  // with T=1ms, W=2.2ms, n=3.
  EXPECT_NEAR(report.serial_fraction, (3 * 0.001 - 0.0022) / (0.0022 * 2), 1e-9);
}

TEST(SpanAnalysis, WorkerSpansForkFromParallelForNotFromSiblingLanes) {
  // Two lanes of one parallel_for: lane 3's fn lies inside lane 2's fn in
  // time, but both recorded the parallel_for as their parent.
  std::vector<TraceEvent> events = {Ev("parallel_for", 1, 100, 700, 1),
                                    Ev("fn", 2, 150, 600, 2, 1),
                                    Ev("fn", 3, 200, 300, 3, 1)};
  SpanGraph graph = SpanGraph::Build(events);
  ASSERT_EQ(graph.roots.size(), 1u);
  const SpanNode& parallel_for = graph.nodes[graph.roots[0]];
  EXPECT_EQ(parallel_for.name, "parallel_for");
  ASSERT_EQ(parallel_for.children.size(), 2u);
  for (int child : parallel_for.children) {
    EXPECT_EQ(graph.nodes[child].name, "fn");
    EXPECT_EQ(graph.nodes[child].parent, graph.roots[0]);
    EXPECT_TRUE(graph.nodes[child].children.empty());
  }
  EXPECT_EQ(CollapseTraceEvents(events).find("fn;fn"), std::string::npos);
}

TEST(SpanAnalysis, TimestampTiesKeepTheRecordedParent) {
  // A stage and the one step inside it round to the same start and duration,
  // and the child's name sorts first, so node order puts the child before
  // its parent. The recorded ids still make "stage" the parent, and the
  // result matches the same tree with the parent sorting first.
  auto tree = [](const char* parent, const char* child) {
    return std::vector<TraceEvent>{Ev(parent, 0, 100, 500, 1), Ev(child, 0, 100, 500, 2, 1),
                                   Ev("fn", 1, 150, 300, 3, 2)};
  };
  std::vector<TraceEvent> tied = tree("stage", "apply");
  SpanGraph graph = SpanGraph::Build(tied);
  EXPECT_EQ(graph.nodes[0].name, "apply");  // the child precedes its parent
  ASSERT_EQ(graph.roots.size(), 1u);
  const SpanNode& stage = graph.nodes[graph.roots[0]];
  EXPECT_EQ(stage.name, "stage");
  ASSERT_EQ(stage.children.size(), 1u);
  EXPECT_EQ(graph.nodes[stage.children[0]].name, "apply");
  EXPECT_EQ(stage.self_micros, 0);
  EXPECT_EQ(graph.nodes[stage.children[0]].self_micros, 500);

  // Renaming so the parent sorts first changes nothing but the names.
  std::string tied_folded = CollapseTraceEvents(tied);
  EXPECT_EQ(tied_folded, "stage;apply 500\nstage;apply;fn 300\n");
  std::string ordered_folded = CollapseTraceEvents(tree("stage", "work"));
  EXPECT_EQ(ordered_folded, "stage;work 500\nstage;work;fn 300\n");
}

TEST(SpanAnalysis, ExplicitWallClampWhenSpansOutlastTheClock) {
  std::vector<TraceEvent> events = {Ev("run", 0, 0, 1000, 1)};
  PerfInputs inputs = Inputs(/*wall=*/500e-6);
  PerfReport report = AnalyzeSpans(events, inputs);
  EXPECT_DOUBLE_EQ(report.wall_seconds, 500e-6);
  // Busy time still reads the span window.
  ASSERT_EQ(report.workers.size(), 1u);
  EXPECT_DOUBLE_EQ(report.workers[0].busy_seconds, 1000e-6);
}

// ---------------------------------------------------------------------------
// Overlapping spans: busy time is an interval union, never double-counted
// ---------------------------------------------------------------------------

TEST(SpanAnalysis, OverlappingSpansBusyUnionAndTimelineBounds) {
  // [0,500) and [400,800) overlap by 100us: union is 800us, not 900.
  std::vector<TraceEvent> events = {
      Ev("a", 3, 0, 500, 1),
      Ev("b", 3, 400, 400, 2),
  };
  PerfInputs inputs = Inputs();
  inputs.timeline_buckets = 8;
  PerfReport report = AnalyzeSpans(events, inputs);
  ASSERT_EQ(report.workers.size(), 1u);
  EXPECT_DOUBLE_EQ(report.workers[0].busy_seconds, 800e-6);
  EXPECT_DOUBLE_EQ(report.workers[0].utilization, 1.0);
  EXPECT_DOUBLE_EQ(report.workers[0].idle_seconds, 0.0);
  ASSERT_EQ(report.workers[0].timeline.size(), 8u);
  for (double v : report.workers[0].timeline) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    EXPECT_DOUBLE_EQ(v, 1.0);  // fully covered window
  }
}

TEST(SpanAnalysis, IdleGapShowsInUtilizationAndTimeline) {
  // Busy [0,250) and [750,1000): half the window idle.
  std::vector<TraceEvent> events = {
      Ev("a", 1, 0, 250, 1),
      Ev("b", 1, 750, 250, 2),
  };
  PerfInputs inputs = Inputs();
  inputs.timeline_buckets = 4;
  PerfReport report = AnalyzeSpans(events, inputs);
  ASSERT_EQ(report.workers.size(), 1u);
  EXPECT_DOUBLE_EQ(report.workers[0].busy_seconds, 500e-6);
  EXPECT_DOUBLE_EQ(report.workers[0].idle_seconds, 500e-6);
  EXPECT_DOUBLE_EQ(report.workers[0].utilization, 0.5);
  ASSERT_EQ(report.workers[0].timeline.size(), 4u);
  EXPECT_DOUBLE_EQ(report.workers[0].timeline[0], 1.0);
  EXPECT_DOUBLE_EQ(report.workers[0].timeline[1], 0.0);
  EXPECT_DOUBLE_EQ(report.workers[0].timeline[2], 0.0);
  EXPECT_DOUBLE_EQ(report.workers[0].timeline[3], 1.0);
}

// ---------------------------------------------------------------------------
// Dropped spans
// ---------------------------------------------------------------------------

TEST(SpanAnalysis, DroppedSpanCountPassesThrough) {
  PerfInputs inputs = Inputs();
  inputs.dropped_spans = 7;
  PerfReport report = AnalyzeSpans({Ev("run", 0, 0, 100, 1)}, inputs);
  EXPECT_EQ(report.dropped_spans, 7u);
  EXPECT_NE(PerfReportToJson(report).find("\"dropped_spans\":7"),
            std::string::npos);
}

TEST(SpanAnalysis, CapOverflowedCollectorStillAnalyzable) {
  TraceCollector& collector = TraceCollector::Global();
  size_t saved_cap = collector.thread_buffer_cap();
  collector.SetThreadBufferCapForTest(2);
  collector.Enable();
  { TraceSpan span("kept1"); }
  { TraceSpan span("kept2"); }
  { TraceSpan span("dropped1"); }
  { TraceSpan span("dropped2"); }
  collector.Disable();

  PerfInputs inputs = Inputs();
  inputs.dropped_spans = collector.dropped_count();
  PerfReport report = AnalyzeSpans(collector.SnapshotEvents(), inputs);
  EXPECT_EQ(report.span_count, 2u);
  EXPECT_EQ(report.dropped_spans, 2u);
  EXPECT_GE(report.serial_fraction, 0.0);
  EXPECT_LE(report.serial_fraction, 1.0);

  collector.SetThreadBufferCapForTest(saved_cap);
  collector.Clear();
}

// ---------------------------------------------------------------------------
// Structural determinism
// ---------------------------------------------------------------------------

TEST(SpanAnalysis, ReportIsInvariantUnderInputShuffles) {
  std::vector<TraceEvent> events = {
      Ev("run", 0, 0, 2000, 1),          Ev("parse", 0, 100, 800, 2, 1),
      Ev("lane_a", 1, 150, 600, 3, 2),   Ev("file1", 1, 200, 200, 4, 3),
      Ev("file2", 1, 450, 250, 5, 3),    Ev("lane_b", 2, 150, 400, 6, 2),
      Ev("detect", 0, 1000, 900, 7, 1),  Ev("fn", 2, 1100, 300, 8, 7),
  };
  PerfInputs inputs = Inputs(/*wall=*/0.002, /*jobs=*/2);
  std::string baseline = PerfReportToJson(AnalyzeSpans(events, inputs));

  // Any permutation of the event buffer produces the identical report
  // (Build sorts into a canonical order first).
  std::vector<TraceEvent> shuffled = events;
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(PerfReportToJson(AnalyzeSpans(shuffled, inputs)), baseline);

  std::rotate(shuffled.begin(), shuffled.begin() + 3, shuffled.end());
  EXPECT_EQ(PerfReportToJson(AnalyzeSpans(shuffled, inputs)), baseline);
}

TEST(SpanAnalysis, JsonFieldOrderIsStable) {
  PerfReport report = AnalyzeSpans({Ev("run", 0, 0, 100, 1)}, Inputs());
  std::string json = PerfReportToJson(report);
  const char* order[] = {"\"schema_version\":", "\"wall_seconds\":", "\"jobs\":",
                         "\"hardware_threads\":", "\"span_count\":",
                         "\"dropped_spans\":",   "\"serial_fraction\":",
                         "\"total_busy_seconds\":",
                         "\"workers\":",         "\"mean_utilization\":",
                         "\"imbalance\":",       "\"steals\":"};
  size_t cursor = 0;
  for (const char* key : order) {
    size_t pos = json.find(key, cursor);
    ASSERT_NE(pos, std::string::npos) << key;
    cursor = pos;
  }
}

// ---------------------------------------------------------------------------
// One recorded tree of a real parallel run
// ---------------------------------------------------------------------------

TEST(SpanAnalysis, ParallelRunRecordsOneTreeForEveryExporter) {
  testing::CorpusProfile profile;
  ASSERT_TRUE(testing::MakeCorpusProfile("linux-like", "small", 1, &profile));
  profile.files = 100;
  const std::vector<std::pair<std::string, std::string>> sources =
      testing::GenerateCorpusSources(profile);
  AnalysisOptions options;
  options.jobs = 4;
  Analysis analysis(options);

  TraceCollector& collector = TraceCollector::Global();
  collector.Enable();
  analysis.RunOnSources(sources);
  collector.Disable();
  std::vector<TraceEvent> events = collector.SnapshotEvents();
  collector.Clear();

  std::map<uint64_t, const TraceEvent*> by_span;
  int caller_tid = -1;
  for (const TraceEvent& event : events) {
    by_span[event.span] = &event;
    if (event.name == "analysis.run") {
      caller_tid = event.tid;
    }
  }
  ASSERT_NE(caller_tid, -1);

  // Every lane a pool worker ran names the parallel_for, on another thread,
  // that forked it; every other span a worker opened sits under a span of
  // its own thread, up to its lane.
  size_t worker_lanes = 0;
  std::set<std::string> forked_by;  // what the parallel_for of each lane ran under
  for (const TraceEvent& event : events) {
    auto parent = by_span.find(event.parent);
    if (event.name == "lane") {
      ASSERT_NE(parent, by_span.end());
      EXPECT_EQ(parent->second->name, "parallel_for");
      auto loop_parent = by_span.find(parent->second->parent);
      ASSERT_NE(loop_parent, by_span.end());
      forked_by.insert(loop_parent->second->name);
    }
    if (event.tid == caller_tid) {
      continue;
    }
    ASSERT_NE(parent, by_span.end()) << event.name << " on tid " << event.tid;
    if (event.name == "lane") {
      ++worker_lanes;
      EXPECT_NE(parent->second->tid, event.tid);
    } else {
      EXPECT_EQ(parent->second->tid, event.tid) << event.name;
    }
  }
  EXPECT_GT(worker_lanes, 0u) << "no lane ran on a pool worker; the check is vacuous";
  // The loops whose bodies open no span record their lanes too.
  EXPECT_EQ(forked_by.count("authorship"), 1u);
  EXPECT_EQ(forked_by.count("prune.peer_stats"), 1u);
  EXPECT_EQ(forked_by.count("teardown"), 1u);

  // The folded profile roots worker frames in the lanes, and the lanes in
  // the stages that ran them.
  std::string folded = CollapseTraceEvents(events);
  std::istringstream lines(folded);
  std::string line;
  bool lane_frames = false;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.rfind("detect_fn", 0), 0u) << line;
    EXPECT_NE(line.rfind("parse_lower", 0), 0u) << line;
    EXPECT_NE(line.rfind("lane", 0), 0u) << line;
    lane_frames = lane_frames || line.find(";parallel_for;lane;detect_fn ") != std::string::npos;
  }
  EXPECT_TRUE(lane_frames) << folded;

  // The perf report reads the same spans: every thread that ran one is a
  // worker with busy time.
  PerfReport report = AnalyzeSpans(events, Inputs(0.0, 4));
  std::set<int> tids;
  for (const TraceEvent& event : events) {
    tids.insert(event.tid);
  }
  ASSERT_EQ(report.workers.size(), tids.size());
  for (const WorkerUtilization& worker : report.workers) {
    EXPECT_GT(worker.busy_seconds, 0.0) << "tid " << worker.tid;
  }
}

}  // namespace
}  // namespace vc
