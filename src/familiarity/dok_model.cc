#include "src/familiarity/dok_model.h"

#include <cmath>

#include "src/support/regression.h"

namespace vc {

DokFeatures ComputeDokFeatures(const Repository& repo, AuthorId author,
                               const std::string& path) {
  DokFeatures features;
  const std::vector<CommitId>& log = repo.LogOf(path);
  for (size_t i = 0; i < log.size(); ++i) {
    const Commit& commit = repo.GetCommit(log[i]);
    if (i == 0 && commit.author == author) {
      features.first_authorship = true;
    }
    if (commit.author == author) {
      ++features.deliveries;
    } else {
      ++features.acceptances;
    }
  }
  return features;
}

double DokScore(const DokFeatures& features, const DokWeights& weights) {
  return weights.a0 + weights.fa * (features.first_authorship ? 1.0 : 0.0) +
         weights.dl * static_cast<double>(features.deliveries) -
         weights.ac * std::log(1.0 + static_cast<double>(features.acceptances));
}

double DokScoreFor(const Repository& repo, AuthorId author, const std::string& path,
                   const DokWeights& weights) {
  return DokScore(ComputeDokFeatures(repo, author, path), weights);
}

std::optional<DokWeights> FitDokWeights(const std::vector<RatingSample>& samples) {
  std::vector<Observation> data;
  data.reserve(samples.size());
  for (const RatingSample& sample : samples) {
    Observation obs;
    obs.x = {sample.features.first_authorship ? 1.0 : 0.0,
             static_cast<double>(sample.features.deliveries),
             std::log(1.0 + static_cast<double>(sample.features.acceptances))};
    obs.y = sample.rating;
    data.push_back(std::move(obs));
  }
  std::optional<RegressionResult> fit = FitLeastSquares(data);
  if (!fit.has_value()) {
    return std::nullopt;
  }
  DokWeights weights;
  weights.a0 = fit->coefficients[0];
  weights.fa = fit->coefficients[1];
  weights.dl = fit->coefficients[2];
  // The regression fits "+ b3 * ln(1+AC)"; the model convention subtracts, so
  // flip the sign to report a positive a_AC for a negative fitted slope.
  weights.ac = -fit->coefficients[3];
  return weights;
}

}  // namespace vc
