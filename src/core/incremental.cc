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

// Copies what classification and pruning decided for a candidate.
void KeepTail(UnusedDefCandidate& kept, const UnusedDefCandidate& ran) {
  kept.cross_scope = ran.cross_scope;
  kept.kind = ran.kind;
  kept.def_author = ran.def_author;
  kept.responsible_author = ran.responsible_author;
  kept.pruned_by = ran.pruned_by;
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
      cache_(inc_.cache_dir, MakeCacheConfigKey(analysis_.options())),
      peers_(analysis_.options().prune) {}

void IncrementalEngine::Ingest(const Repository& source, CommitId commit) {
  repo_.AddCommitFrom(source, commit);
  const Commit& c = repo_.GetCommit(commit);
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
      const FileId file = project_.sources().FindByPath(path);
      if (project_.RemoveFile(path)) {
        ++changed;
        changed_.push_back(file);
      }
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
  changed_.insert(changed_.end(), ids.begin(), ids.end());
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
  bool same_bytes = false;  // a commit batch left a touched path's bytes unchanged
  {
    StageScope scope(Stage::kParse, stages[Stage::kParse]);
    const uint64_t misses = cache_.stats().parse_misses;
    const uint64_t hits = cache_.stats().parse_hits;
    changed_.clear();
    result.files_changed = sync();
    result.files_reparsed = static_cast<int>(cache_.stats().parse_misses - misses);
    same_bytes = repo != nullptr && cache_.stats().parse_hits > hits;
    project_.FinishUpdate();
    scope.Count(kParseFiles, result.files_reparsed);
  }

  // --- Detect stage: changed files through the checkers, rest from cache ---
  CheckerRunResult detect;
  std::vector<FileCacheEntry*> entries;  // per live file, in unit order
  std::vector<size_t> redetected;        // indexes into `entries`
  std::vector<char> entry_carried;       // per entry: its post-detect verdicts carry
  std::vector<size_t> entry_candidates;  // per entry: its candidate count
  TailCarry tail;
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

    // The post-detect state is warm after an analysis of the same kind of
    // input that kept it; otherwise the peer statistics start over from every
    // file and nothing carries.
    const bool warm = warm_tail_ && repo == tail_repo_;
    warm_tail_ = false;  // until this analysis keeps its verdicts
    if (!warm) {
      peers_ = PeerStats(opt.prune);
    }
    const bool carry_tail = warm && carry_allowed && !opt.prune.stale_code && !same_bytes;
    std::vector<char> changed(static_cast<size_t>(project_.sources().NumFiles()), 0);
    for (FileId file : changed_) {
      changed[file] = 1;
    }

    // The carry rule: a file's results carry exactly when its entry holds one
    // per function — its content hash matched, or the disk tier restored it.
    // Every function of any other file re-runs. Its post-detect verdicts
    // carry too when it was not recompiled and shares no name the update
    // touched.
    std::vector<CheckerWorkItem> work;
    for (size_t m : project_.unit_order()) {
      const IrModule& module = *project_.modules()[m];
      result.functions_total += static_cast<int>(module.functions.size());
      entries.push_back(&cache_.File(project_.sources().Path(module.file)));
      const bool detect_carried =
          carry_allowed && entries.back()->functions.size() == module.functions.size();
      entry_carried.push_back(carry_tail && detect_carried && !changed[module.file] &&
                              !project_.SharesTouchedName(module.file));
      // Peer contributions are replaced for the recompiled and removed files,
      // every re-detected one, and every live file when the statistics start
      // over.
      if ((!warm || !detect_carried) && !changed[module.file]) {
        changed[module.file] = 1;
        changed_.push_back(module.file);
      }
      if (detect_carried) {
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
    tail.carried.reserve(count);
    for (size_t e = 0; e < entries.size(); ++e) {
      const size_t begin = detect.candidates.size();
      for (const FunctionDetect& fn : entries[e]->functions) {
        detect.candidates.insert(detect.candidates.end(), fn.candidates.begin(),
                                 fn.candidates.end());
        detect.quarantined.insert(detect.quarantined.end(), fn.quarantined.begin(),
                                  fn.quarantined.end());
      }
      entry_candidates.push_back(detect.candidates.size() - begin);
      tail.carried.resize(detect.candidates.size(), entry_carried[e]);
      if (!entry_carried[e]) {
        // Re-runs from its detect state.
        for (size_t i = begin; i < detect.candidates.size(); ++i) {
          detect.candidates[i].pruned_by = PruneReason::kNone;
        }
      }
    }
    TallyCheckerRun(runnable, detect);
    scope.Count(kDetectFunctions, result.functions_dirty)
        .Count(kDetectCandidates, static_cast<int64_t>(detect.candidates.size()));
  }

  for (size_t i : redetected) {
    const IrModule& module = *project_.modules()[project_.unit_order()[i]];
    cache_.StoreToDisk(project_.sources().Path(module.file), *entries[i], module);
  }

  // --- The later stages, carrying what the change left alone ---------------
  // The prune stage writes the verdicts back into the entries: every
  // candidate of a file that re-ran, and, when a signature group flipped,
  // the carried ones too (their parameter candidates matched again).
  tail.peers = &peers_;
  tail.changed = changed_;
  tail.keep = [&](const std::vector<UnusedDefCandidate>& raw) {
    const bool rematched = peers_.group_flips() > 0;
    size_t k = 0;
    for (size_t e = 0; e < entries.size(); ++e) {
      if (entry_carried[e] && !rematched) {
        k += entry_candidates[e];
        continue;
      }
      for (FunctionDetect& fn : entries[e]->functions) {
        for (UnusedDefCandidate& cand : fn.candidates) {
          KeepTail(cand, raw[k++]);
        }
      }
    }
    warm_tail_ = true;
  };
  AnalysisReport report =
      analysis_.RunWithDetect(project_, repo, std::move(detect), &stages, &tail);
  tail_repo_ = repo;

  // Fingerprint-keyed delta against the previous analysis.
  std::vector<std::string> fingerprints;
  fingerprints.reserve(report.findings.size());
  for (const UnusedDefCandidate& finding : report.findings) {
    fingerprints.push_back(finding.fingerprint);
  }
  std::sort(fingerprints.begin(), fingerprints.end());
  fingerprints.erase(std::unique(fingerprints.begin(), fingerprints.end()), fingerprints.end());
  for (const std::string& fp : fingerprints) {
    result.findings_carried +=
        std::binary_search(prev_fingerprints_.begin(), prev_fingerprints_.end(), fp) ? 1 : 0;
  }
  result.findings_new = static_cast<int>(fingerprints.size()) - result.findings_carried;
  result.findings_fixed = static_cast<int>(prev_fingerprints_.size()) - result.findings_carried;
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
