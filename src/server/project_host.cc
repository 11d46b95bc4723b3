#include "src/server/project_host.h"

#include <algorithm>
#include <iterator>

namespace vc {

namespace {

// Fingerprints of a report's findings, sorted so set differences are
// deterministic regardless of ranking order.
std::vector<std::string> SortedFingerprints(const AnalysisReport& report) {
  std::vector<std::string> prints;
  prints.reserve(report.findings.size());
  for (const UnusedDefCandidate& finding : report.findings) {
    prints.push_back(finding.fingerprint);
  }
  std::sort(prints.begin(), prints.end());
  return prints;
}

}  // namespace

ProjectHost::ProjectHost(std::string name, AnalysisOptions base, size_t history_limit)
    : name_(std::move(name)), base_(std::move(base)), history_limit_(history_limit) {}

ProjectAnalyzeOutcome ProjectHost::Analyze(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const AnalysisOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);

  // Snapshot in sorted path order — the same order the batch CLI's directory
  // walk feeds RunOnSources, so merge order and CSV bytes line up between
  // daemon and batch. A repeated path keeps its first content.
  std::vector<std::pair<std::string, std::string>> snapshot = sources;
  std::stable_sort(snapshot.begin(), snapshot.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  snapshot.erase(std::unique(snapshot.begin(), snapshot.end(),
                             [](const auto& a, const auto& b) { return a.first == b.first; }),
                 snapshot.end());
  std::vector<std::pair<std::string, uint64_t>> hashes;
  hashes.reserve(snapshot.size());
  for (const auto& [path, content] : snapshot) {
    hashes.emplace_back(path, HashContent(content));
  }
  const bool unchanged = last_ != nullptr && hashes == snapshot_;

  const std::string key = MakeCacheConfigKey(options);
  if (unchanged && key == engine_key_) {
    // Identical snapshot under an identical configuration: the previous
    // result IS this request's result (jobs never changes results).
    return {last_, /*cached=*/true};
  }

  if (engine_ == nullptr || key != engine_key_) {
    // A different checker set / budget / fault spec invalidates carried
    // detect results wholesale; rebuild rather than risk stale carry-over.
    // The key is recorded once the new engine has answered, so a failed
    // first analysis never lets a later request reuse the wrong engine.
    engine_ = std::make_unique<IncrementalEngine>(options);
    engine_key_.clear();
    if (last_ != nullptr) {
      ++engine_rebuilds_;
    }
  }
  engine_->set_jobs(options.jobs);
  IncrementalResult result = engine_->AnalyzeSnapshot(snapshot);
  engine_key_ = key;
  result.commit = last_ == nullptr ? 0 : last_->commit + (unchanged ? 0 : 1);
  last_ = std::make_shared<const IncrementalResult>(std::move(result));
  snapshot_ = std::move(hashes);
  ++analyses_;

  const AnalysisReport& report = last_->report;
  ProjectRunSummary summary;
  summary.commit = last_->commit;
  summary.findings = static_cast<int>(report.findings.size());
  summary.degraded = report.degraded;
  summary.quarantined = static_cast<int>(report.quarantined.size());
  summary.files_changed = last_->files_changed;
  summary.functions_dirty = last_->functions_dirty;
  summary.findings_new = last_->findings_new;
  summary.findings_fixed = last_->findings_fixed;
  summary.seconds = last_->seconds;
  summary.fingerprints = SortedFingerprints(report);
  summary.checker_stats = report.checker_stats;
  history_.push_back(std::move(summary));
  while (history_.size() > history_limit_) {
    history_.pop_front();
  }
  return {last_, /*cached=*/false};
}

std::vector<ProjectRunSummary> ProjectHost::History(size_t limit) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ProjectRunSummary> out;
  for (auto it = history_.rbegin(); it != history_.rend() && out.size() < limit; ++it) {
    out.push_back(*it);
  }
  return out;
}

bool ProjectHost::Latest(ProjectRunSummary* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (history_.empty()) {
    return false;
  }
  *out = history_.back();
  return true;
}

bool ProjectHost::Diff(std::vector<std::string>* added,
                       std::vector<std::string>* removed) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (history_.size() < 2) {
    return false;
  }
  const std::vector<std::string>& prev = history_[history_.size() - 2].fingerprints;
  const std::vector<std::string>& now = history_.back().fingerprints;
  added->clear();
  removed->clear();
  std::set_difference(now.begin(), now.end(), prev.begin(), prev.end(),
                      std::back_inserter(*added));
  std::set_difference(prev.begin(), prev.end(), now.begin(), now.end(),
                      std::back_inserter(*removed));
  return true;
}

int64_t ProjectHost::analyses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return analyses_;
}

int64_t ProjectHost::engine_rebuilds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_rebuilds_;
}

}  // namespace vc
