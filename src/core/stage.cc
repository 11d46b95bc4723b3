#include "src/core/stage.h"

#include <string>

#include "src/support/events.h"
#include "src/support/memstats.h"
#include "src/support/metrics.h"

namespace vc {

const char* StageName(Stage stage) {
  static constexpr const char* kNames[kStageCount] = {
      "parse", "detect", "authorship", "cross_scope_filter", "prune", "rank"};
  return kNames[static_cast<int>(stage)];
}

const char* StageCountName(Stage stage, int index) {
  static constexpr const char* kNames[kStageCount][kMaxStageCounts] = {
      {"files"},           {"functions", "candidates"}, {"classified", "blame_lines"},
      {"kept", "dropped"}, {"survivors"},               {"scored", "unknown"}};
  return kNames[static_cast<int>(stage)][index];
}

StageScope::StageScope(Stage stage, StageRecord& record)
    : stage_(stage), record_(record), span_(StageName(stage), "pipeline") {
  if (RunEventsEnabled()) {
    RunEvent("stage_start").Str("stage", StageName(stage));
  }
  if (ProgressEnabled()) {
    ProgressMeter::Global().SetPhase(StageName(stage));
  }
  start_ = std::chrono::steady_clock::now();
}

StageScope::~StageScope() {
  const std::chrono::nanoseconds elapsed = std::chrono::steady_clock::now() - start_;
  record_.seconds = static_cast<double>(elapsed.count()) / 1e9;
  if (MetricsEnabled()) {
    MetricsRegistry::Global()
        .GetHistogram(std::string("pipeline.") + StageName(stage_) + "_seconds")
        .RecordNanos(static_cast<uint64_t>(elapsed.count()));
  }
  if (MemoryTrackingEnabled()) {
    // VmHWM only rises, so this sample bounds everything the stage did.
    MemoryTracker::Global().SampleRss();
    record_.rss_bytes = MemoryTracker::Global().peak_rss_bytes();
  }
  RunEvent event("stage_end");  // inert unless the event log is open
  if (RunEventsEnabled()) {       // no string is built while it is closed
    event.Str("stage", StageName(stage_));
  }
  for (int i = 0; i < kMaxStageCounts && StageCountName(stage_, i) != nullptr; ++i) {
    span_.Arg(StageCountName(stage_, i), record_.counts[i]);
    event.Num(StageCountName(stage_, i), record_.counts[i]);
  }
}

}  // namespace vc
