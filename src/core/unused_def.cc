#include "src/core/unused_def.h"

#include <algorithm>
#include <iterator>

namespace vc {

PruneStats& PruneStats::operator+=(const PruneStats& other) {
  original += other.original;
  config_dependency += other.config_dependency;
  cursor += other.cursor;
  unused_hints += other.unused_hints;
  peer_definition += other.peer_definition;
  stale_code += other.stale_code;
  remaining += other.remaining;
  config_tested += other.config_tested;
  cursor_tested += other.cursor_tested;
  hints_tested += other.hints_tested;
  peer_tested += other.peer_tested;
  stale_tested += other.stale_tested;
  return *this;
}

void CandidateSlice::AddFunction(std::vector<UnusedDefCandidate> found,
                                 std::vector<QuarantinedUnit> records) {
  std::move(found.begin(), found.end(), std::back_inserter(candidates));
  std::move(records.begin(), records.end(), std::back_inserter(quarantined));
  functions.push_back(
      {static_cast<uint32_t>(candidates.size()), static_cast<uint32_t>(quarantined.size())});
}

void CandidateSlice::CountDetect() {
  per_checker.clear();
  params.clear();
  for (size_t i = 0; i < candidates.size(); ++i) {
    const UnusedDefCandidate& cand = candidates[i];
    const size_t checker = static_cast<size_t>(cand.checker_index);
    if (per_checker.size() <= checker) {
      per_checker.resize(checker + 1, 0);
    }
    ++per_checker[checker];
    if (cand.is_param) {
      params.push_back(static_cast<uint32_t>(i));
    }
  }
}

void CandidateSlice::ClearRanked() {
  for (uint32_t p : survivors) {
    candidates[p].familiarity = 0.0;
    candidates[p].fingerprint.clear();
  }
}

}  // namespace vc
