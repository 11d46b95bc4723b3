// The stage recorder: one record per pipeline stage, feeding every sink.
// Opening a StageScope starts the stage's `pipeline` span, emits `stage_start`
// and sets the progress phase. Closing it stores the wall time in the run's
// StageRecord and emits `stage_end` (Arg()s ride on the event and the span);
// while collecting it also records `pipeline.<stage>_seconds` and the
// stage-end RSS sample. With every sink off a scope is two clock reads and
// relaxed flag loads: no allocation, no lock.

#ifndef VALUECHECK_SRC_CORE_STAGE_H_
#define VALUECHECK_SRC_CORE_STAGE_H_

#include <chrono>
#include <cstdint>
#include <utility>

#include "src/support/trace.h"

namespace vc {

enum class Stage { kParse, kDetect, kAuthorship, kCrossScopeFilter, kPrune, kRank };
inline constexpr int kStageCount = 6;
inline constexpr Stage kStages[kStageCount] = {Stage::kParse,      Stage::kDetect,
                                               Stage::kAuthorship, Stage::kCrossScopeFilter,
                                               Stage::kPrune,      Stage::kRank};

// The one name table ("parse", "detect", "authorship", "cross_scope_filter",
// "prune", "rank"): span, event, progress phase, histogram and report keys.
const char* StageName(Stage stage);

struct StageRecord {
  double seconds = 0.0;    // wall clock; always measured
  uint64_t rss_bytes = 0;  // process peak RSS at stage end; 0 unless memory was tracked
};

// One run's records, indexed by Stage.
struct StageRecords {
  StageRecord at[kStageCount];

  StageRecord& operator[](Stage stage) { return at[static_cast<int>(stage)]; }
  const StageRecord& operator[](Stage stage) const { return at[static_cast<int>(stage)]; }
};

class StageScope {
 public:
  StageScope(Stage stage, StageRecord& record);
  ~StageScope();
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  // Attaches a count to the span and to the stage_end event (at most kMaxArgs).
  StageScope& Arg(const char* key, int64_t value);

 private:
  static constexpr int kMaxArgs = 2;

  Stage stage_;
  StageRecord& record_;
  TraceSpan span_;
  std::pair<const char*, int64_t> args_[kMaxArgs] = {};
  int arg_count_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_STAGE_H_
