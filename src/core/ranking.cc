#include "src/core/ranking.h"

#include <algorithm>
#include <chrono>

#include "src/familiarity/ea_model.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace vc {

namespace {

// Candidates with no attributable author sort last: they carry no familiarity
// signal, so they should not displace scored candidates.
constexpr double kUnknownFamiliarity = 1e9;

}  // namespace

void RankCandidates(std::vector<UnusedDefCandidate>& candidates, const Repository* repo,
                    const RankingOptions& options, RankStats* stats) {
  if (!options.enabled) {
    return;
  }
  RankStats local;
  const bool measure = MetricsEnabled();
  {
    TraceSpan span("rank.score", "pipeline");
    span.Arg("candidates", static_cast<int64_t>(candidates.size()));
    for (UnusedDefCandidate& cand : candidates) {
      if (repo == nullptr || cand.responsible_author == kInvalidAuthor) {
        cand.familiarity = kUnknownFamiliarity;
        ++local.unknown;
        continue;
      }
      auto model_start = measure ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
      if (options.use_ea_model) {
        cand.familiarity = EaScoreFor(*repo, cand.responsible_author, cand.file);
      } else {
        cand.familiarity = DokScoreFor(*repo, cand.responsible_author, cand.file, options.weights);
      }
      if (measure) {
        double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - model_start)
                .count();
        local.model_seconds += seconds;
        MetricsRegistry::Global().GetHistogram("rank.model_seconds").Record(seconds);
      }
      ++local.scored;
    }
  }
  {
    TraceSpan span("rank.sort", "pipeline");
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const UnusedDefCandidate& a, const UnusedDefCandidate& b) {
                       if (a.familiarity != b.familiarity) {
                         return a.familiarity < b.familiarity;
                       }
                       if (a.file != b.file) {
                         return a.file < b.file;
                       }
                       return a.def_loc < b.def_loc;
                     });
  }
  if (stats != nullptr) {
    *stats = local;
  }
}

}  // namespace vc
