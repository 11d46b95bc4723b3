// Tests for the run-event stream (--events), the progress meter, the
// collapsed-stack profile exporter (--profile), the trace buffer cap +
// dropped-span accounting, and the stage recorder feeding every sink.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/incremental.h"
#include "src/core/report_formats.h"
#include "src/core/stage.h"
#include "src/support/events.h"
#include "src/support/json_reader.h"
#include "src/support/metrics.h"
#include "src/support/profile_export.h"
#include "src/support/trace.h"

namespace vc {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

// ---------------------------------------------------------------------------
// RunEventLog / RunEvent
// ---------------------------------------------------------------------------

TEST(RunEventLog, GoldenFieldOrderAndOneObjectPerLine) {
  std::string path = TempPath("vc_events_golden.jsonl");
  ASSERT_TRUE(RunEventLog::Global().Open(path));
  RunEvent("run_start").Str("mode", "sources").Num("jobs", int64_t{2}).Emit();
  RunEvent("stage_start").Str("stage", "parse_file").Str("file", "a.c").Emit();
  RunEvent("stage_end")
      .Str("stage", "parse_file")
      .Str("file", "a.c")
      .Num("ast_bytes", uint64_t{128})
      .Flag("quarantined", false)
      .Emit();
  RunEvent("run_end").Num("findings", int64_t{0}).Dbl("analysis_seconds", 0.25).Emit();
  RunEventLog::Global().Close();

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 4u);

  // Golden layout: fixed prefix (event, seq, ts_us) then fields in emission
  // order. ts_us is clock-dependent, so the golden check splits around it.
  EXPECT_EQ(lines[0].rfind("{\"event\":\"run_start\",\"seq\":0,\"ts_us\":", 0), 0u);
  EXPECT_NE(lines[0].find("\"mode\":\"sources\",\"jobs\":2}"), std::string::npos);
  EXPECT_EQ(lines[1].rfind("{\"event\":\"stage_start\",\"seq\":1,\"ts_us\":", 0), 0u);
  EXPECT_NE(lines[1].find("\"stage\":\"parse_file\",\"file\":\"a.c\"}"), std::string::npos);
  EXPECT_NE(lines[2].find("\"ast_bytes\":128,\"quarantined\":false}"), std::string::npos);
  EXPECT_NE(lines[3].find("\"findings\":0,\"analysis_seconds\":0.25"), std::string::npos);

  // Every line parses as one standalone JSON object via the project reader.
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string error;
    std::optional<JsonValue> value = ParseJson(lines[i], &error);
    ASSERT_TRUE(value.has_value()) << "line " << i << ": " << error;
    EXPECT_TRUE(value->IsObject());
    EXPECT_TRUE(value->Has("event"));
    EXPECT_EQ(value->GetInt("seq", -1), static_cast<int64_t>(i));
    EXPECT_GE(value->GetInt("ts_us", -1), 0);
  }
  std::remove(path.c_str());
}

TEST(RunEventLog, SeqIsDenseAndIncreasingUnderConcurrentEmitters) {
  std::string path = TempPath("vc_events_concurrent.jsonl");
  ASSERT_TRUE(RunEventLog::Global().Open(path));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        RunEvent("stage_end").Num("thread", static_cast<int64_t>(t)).Emit();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  RunEventLog::Global().Close();

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), static_cast<size_t>(kThreads) * kPerThread);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::optional<JsonValue> value = ParseJson(lines[i]);
    ASSERT_TRUE(value.has_value()) << "line " << i;
    // Dense, strictly increasing in file order even when workers race.
    EXPECT_EQ(value->GetInt("seq", -1), static_cast<int64_t>(i));
  }
  std::remove(path.c_str());
}

TEST(RunEventLog, DisabledEmittersAreNoOps) {
  ASSERT_FALSE(RunEventsEnabled());
  // Must not crash or write anywhere.
  RunEvent("stage_start").Str("stage", "nope").Emit();
}

TEST(RunEvent, EscapesStringValues) {
  std::string path = TempPath("vc_events_escape.jsonl");
  ASSERT_TRUE(RunEventLog::Global().Open(path));
  RunEvent("stage_start").Str("file", "dir\\a \"b\".c").Emit();
  RunEventLog::Global().Close();
  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 1u);
  std::optional<JsonValue> value = ParseJson(lines[0]);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->GetString("file"), "dir\\a \"b\".c");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ProgressMeter
// ---------------------------------------------------------------------------

TEST(ProgressMeter, RendersCountsThroughputAndStopsCleanly) {
  // Render into a tmpfile stand-in for stderr.
  std::string path = TempPath("vc_progress.txt");
  std::FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr);

  ProgressMeter& meter = ProgressMeter::Global();
  meter.Start(out);
  EXPECT_TRUE(ProgressEnabled());
  meter.SetPhase("detect");
  meter.AddTotalFiles(4);
  meter.FileDone();
  meter.AddTotalFunctions(10);
  for (int i = 0; i < 10; ++i) {
    meter.FunctionDone();
  }
  meter.AddFindings(3);
  meter.Stop();
  EXPECT_FALSE(ProgressEnabled());
  std::fclose(out);

  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string rendered = buffer.str();
  ASSERT_FALSE(rendered.empty());
  EXPECT_NE(rendered.find("[detect]"), std::string::npos);
  EXPECT_NE(rendered.find("files 1/4"), std::string::npos);
  EXPECT_NE(rendered.find("fns 10/10"), std::string::npos);
  EXPECT_NE(rendered.find("findings 3"), std::string::npos);
  // Final line is newline-terminated so the next output starts clean.
  EXPECT_EQ(rendered.back(), '\n');
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Collapsed-stack profile
// ---------------------------------------------------------------------------

TEST(ProfileExport, NestedSpansCollapseToSelfTimeStacks) {
  std::vector<TraceEvent> events;
  // Thread 0: run [0,100) containing detect [10,40) containing check [20,25).
  events.push_back({"run", "pipeline", 0, 100, 0, {}});
  events.push_back({"detect", "pipeline", 10, 30, 0, {}});
  events.push_back({"check", "pipeline", 20, 5, 0, {}});
  std::string folded = CollapseTraceEvents(std::move(events));
  // Self times: run 100-30=70, detect 30-5=25, check 5.
  EXPECT_NE(folded.find("run 70\n"), std::string::npos);
  EXPECT_NE(folded.find("run;detect 25\n"), std::string::npos);
  EXPECT_NE(folded.find("run;detect;check 5\n"), std::string::npos);

  // Round-trip: each line is `path weight`, weights sum to the root's span.
  std::istringstream lines(folded);
  std::string line;
  uint64_t total = 0;
  while (std::getline(lines, line)) {
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    total += std::stoull(line.substr(space + 1));
  }
  EXPECT_EQ(total, 100u);
}

TEST(ProfileExport, SeparatesThreadsAndSanitizesFrames) {
  std::vector<TraceEvent> events;
  events.push_back({"outer span;x", "pipeline", 0, 50, 1, {}});
  events.push_back({"inner", "pipeline", 5, 10, 2, {}});  // different tid: no nesting
  std::string folded = CollapseTraceEvents(std::move(events));
  EXPECT_NE(folded.find("outer_span_x 50\n"), std::string::npos);
  EXPECT_NE(folded.find("inner 10\n"), std::string::npos);
  EXPECT_EQ(folded.find(";"), std::string::npos);
}

TEST(ProfileExport, DegenerateZeroDurationTraceStillEmits) {
  std::vector<TraceEvent> events;
  events.push_back({"blink", "pipeline", 0, 0, 0, {}});
  std::string folded = CollapseTraceEvents(std::move(events));
  EXPECT_EQ(folded, "blink 1\n");
}

TEST(ProfileExport, WriteCollapsedProfileRoundTripsThroughCollector) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Enable();
  {
    TraceSpan outer("profile_outer", "test");
    TraceSpan inner("profile_inner", "test");
    (void)outer;
    (void)inner;
  }
  collector.Disable();
  std::string path = TempPath("vc_profile.folded");
  ASSERT_TRUE(WriteCollapsedProfile(path));
  std::vector<std::string> lines = ReadLines(path);
  ASSERT_FALSE(lines.empty());
  bool saw_frame = false;
  for (const std::string& line : lines) {
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::stoull(line.substr(space + 1)), 0u);
    if (line.find("profile_") != std::string::npos) {
      saw_frame = true;
    }
  }
  EXPECT_TRUE(saw_frame);
  collector.Clear();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Trace buffer cap / dropped spans
// ---------------------------------------------------------------------------

TEST(Trace, BufferCapDropsAreCountedNeverSilent) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Enable();
  collector.SetThreadBufferCapForTest(8);
  uint64_t dropped_before = MetricsRegistry::Global().GetCounter("trace.dropped_spans").value();
  for (int i = 0; i < 20; ++i) {
    TraceSpan span("capped_span", "test");
  }
  collector.Disable();

  EXPECT_EQ(collector.EventCount(), 8u);
  EXPECT_EQ(collector.dropped_count(), 12u);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("trace.dropped_spans").value(),
            dropped_before + 12);
  // The export names the loss instead of pretending completeness.
  std::string json = collector.ToJson();
  EXPECT_NE(json.find("\"droppedEvents\":12"), std::string::npos);
  EXPECT_NE(json.find("droppedNote"), std::string::npos);

  collector.SetThreadBufferCapForTest(TraceCollector::kDefaultThreadBufferCap);
  collector.Clear();
  EXPECT_EQ(collector.dropped_count(), 0u);  // Clear resets the loss counter
}

TEST(Trace, SnapshotEventsReturnsSortedCopy) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Enable();
  { TraceSpan a("snap_a", "test"); }
  { TraceSpan b("snap_b", "test"); }
  collector.Disable();
  std::vector<TraceEvent> events = collector.SnapshotEvents();
  ASSERT_GE(events.size(), 2u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_micros, events[i].ts_micros);
  }
  collector.Clear();
}

// ---------------------------------------------------------------------------
// Stage recorder: one record per stage, feeding every sink
// ---------------------------------------------------------------------------

const Histogram& StageHistogram(Stage stage) {
  return MetricsRegistry::Global().GetHistogram(std::string("pipeline.") + StageName(stage) +
                                                "_seconds");
}

int64_t SumNanos(const Histogram& histogram) {
  return std::llround(histogram.sum_seconds() * 1e9);
}

// Runs one analysis path with events, trace and metrics on, then checks that
// every stage reached every sink exactly once and that the sinks agree with
// the report's stage record.
void ExpectEveryStageOnce(const std::string& label,
                          const std::function<AnalysisReport()>& analyze) {
  SCOPED_TRACE(label);
  std::vector<uint64_t> counts_before;
  std::vector<int64_t> sums_before;
  for (Stage stage : kStages) {
    counts_before.push_back(StageHistogram(stage).count());
    sums_before.push_back(SumNanos(StageHistogram(stage)));
  }
  std::string events_path = TempPath("vc_events_stages.jsonl");
  ASSERT_TRUE(RunEventLog::Global().Open(events_path));
  TraceCollector::Global().Enable();
  AnalysisReport report = analyze();
  TraceCollector::Global().Disable();
  RunEventLog::Global().Close();

  std::vector<std::string> stage_names;
  for (Stage stage : kStages) {
    stage_names.push_back(StageName(stage));
  }
  auto is_stage = [&](const std::string& name) {
    return std::find(stage_names.begin(), stage_names.end(), name) != stage_names.end();
  };
  // stage_start/stage_end pairs in Stage order (per-file parse_file events
  // carry no Stage name and are skipped).
  std::vector<std::string> sequence;
  for (const std::string& line : ReadLines(events_path)) {
    std::optional<JsonValue> value = ParseJson(line);
    ASSERT_TRUE(value.has_value()) << line;
    const std::string event = value->GetString("event");
    if ((event == "stage_start" || event == "stage_end") && is_stage(value->GetString("stage"))) {
      sequence.push_back(event + ":" + value->GetString("stage"));
    }
  }
  std::remove(events_path.c_str());
  std::vector<std::string> expected;
  for (Stage stage : kStages) {
    expected.push_back(std::string("stage_start:") + StageName(stage));
    expected.push_back(std::string("stage_end:") + StageName(stage));
  }
  EXPECT_EQ(sequence, expected);

  std::vector<std::string> spans;
  for (const TraceEvent& event : TraceCollector::Global().SnapshotEvents()) {
    if (std::strcmp(event.category, "pipeline") == 0 && is_stage(event.name)) {
      spans.push_back(event.name);
    }
  }
  TraceCollector::Global().Clear();
  EXPECT_EQ(spans, stage_names);

  // The JSON memory.stages rows read the stage records.
  ASSERT_TRUE(report.memory.collected);
  std::optional<JsonValue> json = ParseJson(ReportToJson(report));
  ASSERT_TRUE(json.has_value());
  const JsonValue& memory_stages = json->Get("memory").Get("stages");
  ASSERT_EQ(memory_stages.Size(), static_cast<size_t>(kStageCount));
  double stage_seconds = 0.0;
  for (int i = 0; i < kStageCount; ++i) {
    const Stage stage = kStages[i];
    EXPECT_EQ(StageHistogram(stage).count(), counts_before[i] + 1) << StageName(stage);
    EXPECT_EQ(SumNanos(StageHistogram(stage)) - sums_before[i],
              std::llround(report.stages[stage].seconds * 1e9))
        << StageName(stage);
    EXPECT_EQ(memory_stages.At(i).GetString("stage"), StageName(stage));
    EXPECT_GT(report.stages[stage].rss_bytes, 0u) << StageName(stage);
    EXPECT_EQ(memory_stages.At(i).GetInt("rss_bytes"),
              static_cast<int64_t>(report.stages[stage].rss_bytes));
    stage_seconds += report.stages[stage].seconds;
  }
  EXPECT_GE(report.analysis_seconds, stage_seconds);
}

TEST(Observability, EveryStageFeedsEverySinkOnce) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  std::string v1 =
      "int helper(int x) {\n"
      "  return x + 1;\n"
      "}\n"
      "int work(int x) {\n"
      "  int ret = helper(x);\n"
      "  return ret;\n"
      "}\n";
  repo.AddCommit(alice, 1, "create", {{"a.c", v1}, {"b.c", "int b(int y) { return y; }\n"}});
  std::string v2 = v1;
  v2.replace(v2.find("  return ret;"), 13, "  ret = helper(x + 2);\n  return ret;");
  CommitId head = repo.AddCommit(bob, 2, "tweak work", {{"a.c", v2}});

  AnalysisOptions options;
  options.collect_metrics = true;
  Analysis analysis(options);
  ExpectEveryStageOnce("Run over BuildFromSources", [&] {
    Project project = analysis.BuildFromSources({{"a.c", v2}});
    return analysis.Run(project);
  });
  ExpectEveryStageOnce("RunOnRepository", [&] { return analysis.RunOnRepository(repo); });

  options.jobs = 2;
  IncrementalEngine engine(options);
  for (CommitId commit = 0; commit <= head; ++commit) {
    ExpectEveryStageOnce("AnalyzeCommit " + std::to_string(commit),
                         [&] { return engine.AnalyzeCommit(repo, commit).report; });
  }
  MetricsRegistry::Global().Disable();
  MemoryTracker::Global().Disable();
}

}  // namespace
}  // namespace vc
