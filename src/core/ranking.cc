#include "src/core/ranking.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <span>
#include <string_view>
#include <tuple>
#include <utility>

#include "src/core/fingerprint.h"
#include "src/familiarity/ea_model.h"

namespace vc {

namespace {

// Candidates with no attributable author sort last: they carry no familiarity
// signal, so they should not displace scored candidates.
constexpr double kUnknownFamiliarity = 1e9;

// Gives each of `candidates` its familiarity (see RankSlice) and returns the
// pass's counters.
RankStats ScoreCandidates(std::span<UnusedDefCandidate* const> candidates,
                          const Repository* repo, const RankingOptions& options,
                          Histogram* model_histogram) {
  RankStats stats;
  if (!options.enabled) {
    return stats;
  }
  const bool measure = MetricsEnabled();
  for (UnusedDefCandidate* cand : candidates) {
    if (repo == nullptr || cand->responsible_author == kInvalidAuthor) {
      cand->familiarity = kUnknownFamiliarity;
      ++stats.unknown;
      continue;
    }
    auto model_start =
        measure ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point();
    if (options.use_ea_model) {
      cand->familiarity = EaScoreFor(*repo, cand->responsible_author, cand->file);
    } else {
      cand->familiarity = DokScoreFor(*repo, cand->responsible_author, cand->file, options.weights);
    }
    if (measure) {
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - model_start).count();
      stats.model_seconds += seconds;
      if (model_histogram != nullptr) {
        model_histogram->Record(seconds);
      }
    }
    ++stats.scored;
  }
  return stats;
}

}  // namespace

double RankSlice(CandidateSlice& slice, const Repository* repo, const RankingOptions& options,
                 Histogram* model_histogram) {
  std::vector<UnusedDefCandidate*> survivors;
  survivors.reserve(slice.survivors.size());
  slice.survivors_per_checker.clear();
  for (uint32_t p : slice.survivors) {
    UnusedDefCandidate& cand = slice.candidates[p];
    survivors.push_back(&cand);
    const size_t checker = static_cast<size_t>(cand.checker_index);
    if (slice.survivors_per_checker.size() <= checker) {
      slice.survivors_per_checker.resize(checker + 1, 0);
    }
    ++slice.survivors_per_checker[checker];
  }
  const RankStats stats = ScoreCandidates(survivors, repo, options, model_histogram);
  slice.scored = static_cast<uint32_t>(stats.scored);
  slice.unknown = static_cast<uint32_t>(stats.unknown);
  AssignFingerprints(survivors);
  return stats.model_seconds;
}

void SortRanked(std::vector<const UnusedDefCandidate*>& candidates) {
  // Each run of same-path neighbours (a slice's survivors) is one entry of
  // `paths`; ranking the entries by path gives every candidate its path's
  // rank, equal paths equal ranks.
  std::vector<std::string_view> paths;
  std::vector<uint32_t> run(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (i == 0 || candidates[i]->file != candidates[i - 1]->file) {
      paths.push_back(candidates[i]->file);
    }
    run[i] = static_cast<uint32_t>(paths.size() - 1);
  }
  std::vector<uint32_t> by_path(paths.size());
  std::iota(by_path.begin(), by_path.end(), 0u);
  std::sort(by_path.begin(), by_path.end(),
            [&](uint32_t a, uint32_t b) { return paths[a] < paths[b]; });
  std::vector<uint32_t> path_rank(paths.size());
  for (size_t k = 0; k < by_path.size(); ++k) {
    const bool same = k > 0 && paths[by_path[k]] == paths[by_path[k - 1]];
    path_rank[by_path[k]] = same ? path_rank[by_path[k - 1]] : static_cast<uint32_t>(k);
  }

  struct Key {
    double familiarity;
    uint32_t path;
    SourceLoc loc;
    uint32_t position;
    const UnusedDefCandidate* cand;
  };
  std::vector<Key> keys;
  keys.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const UnusedDefCandidate* cand = candidates[i];
    keys.push_back({cand->familiarity, path_rank[run[i]], cand->def_loc,
                    static_cast<uint32_t>(i), cand});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return std::tie(a.familiarity, a.path, a.loc, a.position) <
           std::tie(b.familiarity, b.path, b.loc, b.position);
  });
  for (size_t i = 0; i < keys.size(); ++i) {
    candidates[i] = keys[i].cand;
  }
}

void RankCandidates(std::vector<UnusedDefCandidate>& candidates, const Repository* repo,
                    const RankingOptions& options, RankStats* stats) {
  if (!options.enabled) {
    return;
  }
  std::vector<UnusedDefCandidate*> scored;
  scored.reserve(candidates.size());
  for (UnusedDefCandidate& cand : candidates) {
    scored.push_back(&cand);
  }
  const RankStats local = ScoreCandidates(
      scored, repo, options,
      MetricsEnabled() ? &MetricsRegistry::Global().GetHistogram("rank.model_seconds") : nullptr);
  std::vector<const UnusedDefCandidate*> order(scored.begin(), scored.end());
  SortRanked(order);
  std::vector<UnusedDefCandidate> ranked;
  ranked.reserve(candidates.size());
  for (const UnusedDefCandidate* cand : order) {
    ranked.push_back(std::move(candidates[static_cast<size_t>(cand - candidates.data())]));
  }
  candidates = std::move(ranked);
  if (stats != nullptr) {
    *stats = local;
  }
}

}  // namespace vc
