// The stage recorder: one record per pipeline stage, feeding every sink.
// Opening a StageScope starts the stage's `pipeline` span, emits `stage_start`
// and sets the progress phase. Closing it stores the wall time in the run's
// StageRecord, beside the counts the stage stored there, and emits
// `stage_end`; the span args and the event's fields read those counts from
// the record. While collecting it also records `pipeline.<stage>_seconds`
// and the stage-end RSS sample. With every sink off a scope is two clock
// reads and relaxed flag loads: no allocation, no lock.

#ifndef VALUECHECK_SRC_CORE_STAGE_H_
#define VALUECHECK_SRC_CORE_STAGE_H_

#include <chrono>
#include <cstdint>

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

// The counts a stage reports, by position in its StageRecord::counts. Their
// names (span args, stage_end fields) are StageCountName's table:
//   parse               files (compiled by this run)
//   detect              functions (run through the checkers), candidates
//   authorship          classified, blame_lines (split by the blame warm-up)
//   cross_scope_filter  kept, dropped
//   prune               survivors
//   rank                scored, unknown
inline constexpr int kMaxStageCounts = 2;
enum StageCount : int {
  kParseFiles = 0,
  kDetectFunctions = 0,
  kDetectCandidates = 1,
  kAuthorshipClassified = 0,
  kAuthorshipBlameLines = 1,
  kFilterKept = 0,
  kFilterDropped = 1,
  kPruneSurvivors = 0,
  kRankScored = 0,
  kRankUnknown = 1,
};

// The name of `stage`'s count at position `index`; null past its last one.
const char* StageCountName(Stage stage, int index);

struct StageRecord {
  double seconds = 0.0;    // wall clock; always measured
  uint64_t rss_bytes = 0;  // process peak RSS at stage end; 0 unless memory was tracked
  int64_t counts[kMaxStageCounts] = {};  // always counted; see StageCount
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

  // Stores one of the stage's counts (a StageCount of this stage) on its
  // record.
  StageScope& Count(StageCount index, int64_t value) {
    record_.counts[index] = value;
    return *this;
  }

 private:
  Stage stage_;
  StageRecord& record_;
  TraceSpan span_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_STAGE_H_
