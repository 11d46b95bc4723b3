#include "src/core/incremental.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "src/checkers/driver.h"
#include "src/checkers/registry.h"
#include "src/core/stage.h"
#include "src/support/trace.h"

namespace vc {

namespace {

// Sets each candidate's checker_index from its checker name; false when a
// name is not in `runnable`.
bool IndexCheckers(const std::vector<const Checker*>& runnable,
                   std::vector<FunctionDetect>& functions) {
  for (FunctionDetect& fn : functions) {
    for (UnusedDefCandidate& cand : fn.candidates) {
      auto it = std::find_if(runnable.begin(), runnable.end(), [&](const Checker* checker) {
        return checker->name() == cand.checker;
      });
      if (it == runnable.end()) {
        return false;
      }
      cand.checker_index = static_cast<int>(it - runnable.begin());
    }
  }
  return true;
}

}  // namespace

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

int IncrementalEngine::Sync(const std::vector<std::pair<std::string, const std::string*>>& files) {
  // Serial and in order: deletions, content-hash checks, and the FileIds of
  // new paths. Only the recompiles run across the lanes.
  int changed = 0;
  std::vector<std::pair<std::string, std::string>> misses;
  std::vector<FileCacheEntry*> miss_entries;
  for (const auto& [path, content] : files) {
    if (content == nullptr) {
      // Deleted (or never-created) path: tombstone and forget.
      cache_.Remove(path);
      changed += project_.RemoveFile(path) ? 1 : 0;
      continue;
    }
    const uint64_t hash = HashContent(*content);
    FileCacheEntry& entry = cache_.File(path);
    if (entry.content_hash == hash) {
      // Byte-identical content (touch, revert): parsed TU, IR, and every
      // cached detect result stay valid as-is.
      ++cache_.stats().parse_hits;
      continue;
    }
    ++cache_.stats().parse_misses;
    ++changed;
    entry.content_hash = hash;
    entry.functions.clear();
    misses.emplace_back(path, *content);
    miss_entries.push_back(&entry);
  }
  if (misses.empty()) {
    return changed;
  }
  const AnalysisOptions& opt = analysis_.options();
  const std::vector<FileId> ids =
      project_.UpsertFiles(std::move(misses), opt.config, opt.jobs, &opt.fault, &opt.budget);
  for (size_t k = 0; k < ids.size(); ++k) {
    FileCacheEntry& entry = *miss_entries[k];
    if (cache_.LoadFromDisk(project_.sources().Path(ids[k]), entry.content_hash,
                            *project_.modules()[ids[k]], entry.functions, cache_quarantine_)) {
      restored_.push_back(&entry);
    }
  }
  return changed;
}

IncrementalResult IncrementalEngine::AnalyzeCommit(const Repository& source, CommitId commit) {
  if (took_snapshot_) {
    throw std::logic_error("IncrementalEngine: a commit after a snapshot");
  }
  if (commit < 0 || commit >= source.NumCommits() || commit + 1 < repo_.NumCommits()) {
    throw std::out_of_range("IncrementalEngine: commit " + std::to_string(commit) +
                            " is not in the source repository or is behind the engine's head");
  }
  return Analyze(&repo_, commit, [&] {
    while (repo_.NumCommits() <= commit) {
      Ingest(source, repo_.NumCommits());
    }
    std::vector<std::optional<std::string>> heads;  // reserved: `files` points into it
    heads.reserve(pending_.size());
    std::vector<std::pair<std::string, const std::string*>> files;
    for (const std::string& path : pending_) {
      heads.push_back(repo_.Head(path));
      files.emplace_back(path, heads.back().has_value() ? &*heads.back() : nullptr);
    }
    Sync(files);
    const int touched = static_cast<int>(pending_.size());
    pending_.clear();
    return touched;
  });
}

IncrementalResult IncrementalEngine::AnalyzeSnapshot(
    const std::vector<std::pair<std::string, std::string>>& files) {
  took_snapshot_ = true;
  return Analyze(nullptr, kInvalidCommit, [&] {
    std::set<std::string_view> kept;
    for (const auto& [path, content] : files) {
      kept.insert(path);
    }
    std::vector<std::pair<std::string, const std::string*>> targets;
    targets.reserve(files.size());
    for (size_t m : project_.unit_order()) {
      const std::string& path = project_.sources().Path(static_cast<FileId>(m));
      if (kept.count(path) == 0) {
        targets.emplace_back(path, nullptr);
      }
    }
    for (const auto& [path, content] : files) {
      targets.emplace_back(path, &content);
    }
    return Sync(targets);
  });
}

IncrementalResult IncrementalEngine::Analyze(const Repository* repo, CommitId commit,
                                             const std::function<int()>& sync) {
  const AnalysisOptions& opt = analysis_.options();
  TraceSpan commit_span("incremental.commit", "pipeline");
  commit_span.Arg("commit", static_cast<int64_t>(commit));
  auto start = std::chrono::steady_clock::now();
  IncrementalResult result;
  result.commit = commit;

  // --- Parse stage: sync the persistent project with the input -------------
  StageRecords stages;  // handed to RunWithDetect, which times the rest
  {
    StageScope scope(Stage::kParse, stages[Stage::kParse]);
    const uint64_t misses = cache_.stats().parse_misses;
    result.files_changed = sync();
    result.files_reparsed = static_cast<int>(cache_.stats().parse_misses - misses);
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
    for (QuarantinedUnit& unit : cache_quarantine_) {
      detect.quarantined.push_back(std::move(unit));
    }
    cache_quarantine_.clear();
    // A project-global checker can change its verdict on any function after
    // any edit: the cache is unusable while one is enabled.
    bool carry_allowed = true;
    for (const Checker* checker : runnable) {
      carry_allowed = carry_allowed && checker->function_local();
    }

    // Disk-restored results name their checkers; index them against this
    // run's. A result naming a checker that is not running re-detects.
    for (FileCacheEntry* entry : restored_) {
      if (!IndexCheckers(runnable, entry->functions)) {
        entry->functions.clear();
      }
    }
    restored_.clear();

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
    // function, carried or fresh), copying each result once from its entry.
    size_t count = 0;
    for (const FileCacheEntry* entry : entries) {
      for (const FunctionDetect& fn : entry->functions) {
        count += fn.candidates.size();
      }
    }
    detect.candidates.reserve(count);
    for (const FileCacheEntry* entry : entries) {
      for (const FunctionDetect& fn : entry->functions) {
        detect.candidates.insert(detect.candidates.end(), fn.candidates.begin(),
                                 fn.candidates.end());
        detect.quarantined.insert(detect.quarantined.end(), fn.quarantined.begin(),
                                  fn.quarantined.end());
      }
    }
    TallyCheckerRun(runnable, detect);
    scope.Arg("candidates", detect.candidates.size());
  }

  for (size_t i : redetected) {
    const IrModule& module = *project_.modules()[project_.unit_order()[i]];
    cache_.StoreToDisk(project_.sources().Path(module.file), *entries[i], module);
  }

  // --- Every later stage runs in full over the assembled candidate set -----
  AnalysisReport report = analysis_.RunWithDetect(project_, repo, std::move(detect), &stages);

  // Fingerprint-keyed delta against the previous analysis.
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

}  // namespace vc
