#include "src/core/incremental.h"

#include <chrono>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "src/checkers/driver.h"
#include "src/checkers/registry.h"
#include "src/core/stage.h"
#include "src/support/trace.h"

namespace vc {

std::string MakeCacheConfigKey(const AnalysisOptions& options) {
  std::string key = "schema=" + std::to_string(kCacheSchemaVersion);
  key += ";macros=";
  for (const auto& [name, value] : options.config.macros()) {
    key += name + "=" + std::to_string(value) + ",";
  }
  key += ";checkers=";
  for (const Checker* checker : CheckerRegistry::Global().Resolve(options.checkers)) {
    key += checker->name() + ",";
  }
  key += ";traits=";
  key += options.traits.is_pure_c ? 'c' : 'x';
  key += options.traits.uses_kernel_extensions ? 'k' : '-';
  key += ";budget=" + std::to_string(options.budget.unit_deadline_seconds) + "," +
         std::to_string(options.budget.detect_step_limit) + "," +
         std::to_string(options.budget.parse_depth_limit);
  key += ";fault=" + std::to_string(options.fault.seed()) + ":" +
         std::to_string(options.fault.rate());
  key += ";authorship=";
  key += options.authorship ? '1' : '0';
  return key;
}

IncrementalEngine::IncrementalEngine(AnalysisOptions options, IncrementalOptions inc)
    : analysis_(std::move(options)),
      inc_(std::move(inc)),
      cache_(inc_.cache_dir, MakeCacheConfigKey(analysis_.options())) {}

void IncrementalEngine::Ingest(const Repository& source, CommitId commit) {
  while (repo_.NumAuthors() < source.NumAuthors()) {
    repo_.AddAuthor(source.GetAuthor(repo_.NumAuthors()).name);
  }
  const Commit& c = source.GetCommit(commit);
  repo_.AddCommit(c.author, c.timestamp, c.message, c.files, c.deleted);
  for (const auto& [path, content] : c.files) {
    pending_.insert(path);
  }
  for (const std::string& path : c.deleted) {
    pending_.insert(path);
  }
}

void IncrementalEngine::ApplyCommit(const Repository& source, CommitId commit) {
  if (commit < 0 || commit >= source.NumCommits()) {
    throw std::out_of_range("IncrementalEngine: commit " + std::to_string(commit) +
                            " not in source repository");
  }
  while (next_commit() <= commit) {
    Ingest(source, next_commit());
  }
}

IncrementalResult IncrementalEngine::AnalyzeCommit(const Repository& source, CommitId commit) {
  const AnalysisOptions& opt = analysis_.options();
  TraceSpan commit_span("incremental.commit", "pipeline");
  commit_span.Arg("commit", static_cast<int64_t>(commit));
  auto start = std::chrono::steady_clock::now();
  IncrementalResult result;
  result.commit = commit;

  ApplyCommit(source, commit);

  // --- Parse stage: sync the persistent project with the replica's head ----
  StageRecords stages;  // handed to RunWithDetect, which times the rest
  std::vector<QuarantinedUnit> cache_quarantine;  // corrupt disk entries
  result.files_changed = static_cast<int>(pending_.size());
  {
    StageScope scope(Stage::kParse, stages[Stage::kParse]);
    for (const std::string& path : pending_) {
      std::optional<std::string> head = repo_.Head(path);
      if (!head.has_value()) {
        // Deleted (or never-created) path: tombstone and forget.
        project_.RemoveFile(path);
        cache_.Remove(path);
        continue;
      }
      const uint64_t hash = HashContent(*head);
      FileCacheEntry& entry = cache_.File(path);
      if (entry.content_hash == hash) {
        // Byte-identical content (touch, revert): parsed TU, IR, and every
        // cached detect result stay valid as-is.
        ++cache_.stats().parse_hits;
        continue;
      }
      ++cache_.stats().parse_misses;
      ++result.files_reparsed;
      FileId file =
          project_.UpsertFile(path, std::move(*head), opt.config, &opt.fault, &opt.budget);
      entry.content_hash = hash;
      entry.functions.clear();
      cache_.LoadFromDisk(path, hash, *project_.modules()[file], entry.functions,
                          cache_quarantine);
    }
    pending_.clear();
    project_.FinishUpdate();
  }

  // --- Detect stage: changed files through the checkers, rest from cache ---
  CheckerRunResult detect;
  std::vector<FileCacheEntry*> entries;  // per live file, in unit order
  std::vector<size_t> redetected;        // indexes into `entries`
  {
    StageScope scope(Stage::kDetect, stages[Stage::kDetect]);
    std::vector<const Checker*> resolved = CheckerRegistry::Global().Resolve(opt.checkers);
    std::vector<const Checker*> runnable =
        GateCheckers(project_, resolved, opt.traits, detect.quarantined);
    // Cache-stage records sit between the gate records and the per-function
    // ones; a corrupt entry degrades to a miss, never to a failed run.
    for (QuarantinedUnit& unit : cache_quarantine) {
      detect.quarantined.push_back(std::move(unit));
    }
    // A project-global checker can change its verdict on any function after
    // any edit: the cache is unusable while one is enabled.
    bool carry_allowed = true;
    for (const Checker* checker : runnable) {
      carry_allowed = carry_allowed && checker->function_local();
    }

    // The carry rule: a file's results carry exactly when its entry holds one
    // per function — its content hash matched, or the disk tier restored it.
    // Every function of any other file re-runs.
    std::vector<CheckerWorkItem> work;
    for (size_t m : project_.unit_order()) {
      const IrModule& module = *project_.modules()[m];
      result.functions_total += static_cast<int>(module.functions.size());
      entries.push_back(&cache_.File(project_.sources().Path(module.file)));
      if (carry_allowed && entries.back()->functions.size() == module.functions.size()) {
        continue;  // carried
      }
      redetected.push_back(entries.size() - 1);
      for (const auto& func : module.functions) {
        work.push_back({module.file, func.get()});
      }
    }
    result.functions_dirty = static_cast<int>(work.size());
    cache_.stats().detect_recomputed += work.size();
    cache_.stats().detect_carried += result.functions_total - work.size();

    std::vector<FunctionDetect> fresh = RunCheckersOnFunctions(
        project_, runnable, opt.jobs, &opt.budget, &opt.fault, /*isolate=*/true, work);
    auto next = std::make_move_iterator(fresh.begin());
    for (size_t i : redetected) {
      const size_t count = project_.modules()[project_.unit_order()[i]]->functions.size();
      entries[i]->functions.assign(next, next + static_cast<std::ptrdiff_t>(count));
      next += static_cast<std::ptrdiff_t>(count);
    }

    // Assemble the COMPLETE detect outcome in full-run order (every live
    // function, carried or fresh) and merge it exactly as RunCheckers would.
    std::vector<FunctionDetect> all;
    all.reserve(static_cast<size_t>(result.functions_total));
    for (const FileCacheEntry* entry : entries) {
      all.insert(all.end(), entry->functions.begin(), entry->functions.end());
    }
    MergeFunctionDetects(runnable, std::move(all), detect);
    scope.Arg("candidates", detect.candidates.size());
  }

  for (size_t i : redetected) {
    const IrModule& module = *project_.modules()[project_.unit_order()[i]];
    cache_.StoreToDisk(project_.sources().Path(module.file), *entries[i], module);
  }

  // --- Every later stage runs in full over the assembled candidate set -----
  AnalysisReport report = analysis_.RunWithDetect(project_, &repo_, std::move(detect), &stages);

  // Fingerprint-keyed delta against the previous analyzed commit.
  std::set<std::string> fingerprints;
  for (const UnusedDefCandidate& finding : report.findings) {
    fingerprints.insert(finding.fingerprint);
  }
  for (const std::string& fp : fingerprints) {
    prev_fingerprints_.count(fp) > 0 ? ++result.findings_carried : ++result.findings_new;
  }
  for (const std::string& fp : prev_fingerprints_) {
    if (fingerprints.count(fp) == 0) {
      ++result.findings_fixed;
    }
  }
  prev_fingerprints_ = std::move(fingerprints);

  if (opt.collect_metrics) {
    cache_.PublishMetrics();
  }
  result.cache = cache_.stats();
  result.report = std::move(report);
  result.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

IncrementalResult Analysis::RunOnCommit(const Repository& repo, CommitId commit) const {
  // The facade keeps one warm engine for the common sequential-replay
  // pattern; any other access pattern (different repository, commit behind
  // the engine's head) rebuilds it — always correct, just colder.
  if (commit_engine_ == nullptr || commit_engine_repo_ != &repo ||
      commit < commit_engine_->next_commit() || repo.NumCommits() < commit_engine_->next_commit()) {
    commit_engine_ = std::make_shared<IncrementalEngine>(options_);
    commit_engine_repo_ = &repo;
  }
  return commit_engine_->AnalyzeCommit(repo, commit);
}

}  // namespace vc
