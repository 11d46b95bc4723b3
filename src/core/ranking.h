// Familiarity-based ranking (§6): candidates introduced by developers with
// low familiarity in the containing file are reviewed first. The default
// model is DOK; the EA model (§9.2) can be substituted, and individual DOK
// factors can be zeroed for the Table 6 ablations.

#ifndef VALUECHECK_SRC_CORE_RANKING_H_
#define VALUECHECK_SRC_CORE_RANKING_H_

#include <vector>

#include "src/core/unused_def.h"
#include "src/familiarity/dok_model.h"
#include "src/support/metrics.h"
#include "src/vcs/repository.h"

namespace vc {

struct RankingOptions {
  bool enabled = true;
  DokWeights weights;
  bool use_ea_model = false;
};

// Observability detail of one ranking pass: how many candidates the
// familiarity model scored vs. fell back to the unknown-author sentinel, and
// wall-clock spent inside model evaluation (only measured while the metrics
// layer is enabled; 0.0 otherwise).
struct RankStats {
  uint64_t scored = 0;
  uint64_t unknown = 0;
  double model_seconds = 0.0;
};

// Finishes a slice whose survivors the prune stage decided: gives them their
// familiarity and their fingerprints (AssignFingerprints, numbered within
// the slice), and counts them in the slice's rank tallies. A survivor's
// familiarity is the model's score of its responsible author on its file,
// which reads only the file's commit log, or a sentinel that sorts last when
// it has no attributable author or `repo` is null; with ranking disabled it
// stays 0 and nothing is counted. While metrics are enabled, each model
// evaluation is recorded in `model_histogram` when given. Returns the time
// the familiarity model took (0 while metrics are disabled).
double RankSlice(CandidateSlice& slice, const Repository* repo, const RankingOptions& options,
                 Histogram* model_histogram = nullptr);

// Puts `candidates` in ranked order: ascending familiarity, then path, then
// definition location, then list position. Paths compare through their rank
// among the list's paths, looked up once per run of same-path neighbours.
void SortRanked(std::vector<const UnusedDefCandidate*>& candidates);

// Computes familiarity for each candidate's responsible author, as RankSlice
// does, and sorts the list into ranked order (SortRanked). With ranking
// disabled, candidates keep detection order and familiarity stays 0.
// `stats`, when given, receives the pass's counters.
void RankCandidates(std::vector<UnusedDefCandidate>& candidates, const Repository* repo,
                    const RankingOptions& options = RankingOptions(),
                    RankStats* stats = nullptr);

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_RANKING_H_
