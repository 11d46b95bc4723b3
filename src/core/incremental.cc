#include "src/core/incremental.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "src/checkers/driver.h"
#include "src/checkers/registry.h"
#include "src/core/dep_graph.h"
#include "src/core/stage.h"
#include "src/support/trace.h"

namespace vc {

namespace {

// Restores pointer fields of a disk-loaded result against the live project:
// the function's IR, each candidate's slot-table VarDecl, and the FileIds of
// every location (locations in a per-file entry are file-relative by
// construction).
void RebindFunctionDetect(FunctionDetect& detect, const IrFunction* func, FileId file) {
  for (UnusedDefCandidate& cand : detect.candidates) {
    cand.ir_func = func;
    cand.var = (cand.slot != kInvalidSlot && cand.slot < func->slots.size())
                   ? func->slots[cand.slot].var
                   : nullptr;
    cand.def_loc.file = file;
    for (SourceLoc& loc : cand.overwriter_locs) {
      loc.file = file;
    }
  }
}

// A result is disk-serializable only when rebinding can reproduce it exactly:
// every candidate's VarDecl must be reachable through its slot. The clang and
// infer baselines attach AST VarDecls without a slot; their files stay in the
// memory tier (pointers remain valid there) and re-detect across processes.
bool DiskSafe(const FunctionDetect& detect, const IrFunction* func) {
  for (const UnusedDefCandidate& cand : detect.candidates) {
    if (cand.var == nullptr) {
      continue;
    }
    if (cand.slot == kInvalidSlot || cand.slot >= func->slots.size() ||
        func->slots[cand.slot].var != cand.var) {
      return false;
    }
  }
  return true;
}

// Cache map key: module-local function ordinal + name. The ordinal makes
// duplicate names within one file distinct; identical content parses to the
// same ordinals, so keys are stable exactly when the cache is valid.
std::string FunctionKey(size_t ordinal, const std::string& name) {
  return std::to_string(ordinal) + ":" + name;
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
         std::to_string(options.budget.parse_depth_limit) + "," +
         std::to_string(options.budget.pointer_iteration_limit);
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
  std::set<std::string> changed_functions;        // dirty-closure seed
  std::vector<QuarantinedUnit> cache_quarantine;  // corrupt disk entries
  // (path, FileId) of every recompiled file, in pending (sorted) order.
  std::vector<std::pair<std::string, FileId>> reparsed;
  std::set<std::string> disk_restored;
  result.files_changed = static_cast<int>(pending_.size());
  {
    StageScope scope(Stage::kParse, stages[Stage::kParse]);
    for (const std::string& path : pending_) {
      std::optional<std::string> head = repo_.Head(path);
      if (!head.has_value()) {
        // Deleted (or never-created) path: tombstone and forget.
        if (auto it = file_functions_.find(path); it != file_functions_.end()) {
          changed_functions.insert(it->second.begin(), it->second.end());
          file_functions_.erase(it);
        }
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
      if (auto it = file_functions_.find(path); it != file_functions_.end()) {
        // Content changed during this engine's lifetime: the old and (below)
        // new function names both seed the dirty closure. A cold-start file
        // has no old state — its functions re-run via the missing-entry rule
        // unless the disk tier restores them.
        changed_functions.insert(it->second.begin(), it->second.end());
      }
      FileId file =
          project_.UpsertFile(path, std::move(*head), opt.config, &opt.fault, &opt.budget);
      entry.content_hash = hash;
      entry.functions.clear();
      FileCacheEntry loaded;
      if (cache_.LoadFromDisk(path, hash, loaded, cache_quarantine)) {
        entry.functions = std::move(loaded.functions);
        disk_restored.insert(path);
      }
      reparsed.emplace_back(path, file);
    }
    pending_.clear();
    result.files_reparsed = static_cast<int>(reparsed.size());
    project_.FinishUpdate();

    // Post-compile bookkeeping for recompiled files: record the new function
    // names (dirty seed + the next commit's "old names") and rebind any
    // disk-restored results against the fresh IR.
    for (const auto& [path, file] : reparsed) {
      const auto& module = project_.modules()[file];
      const bool was_known = file_functions_.count(path) > 0;
      std::vector<std::string>& names = file_functions_[path];
      names.clear();
      FileCacheEntry& entry = cache_.File(path);
      for (size_t fi = 0; fi < module->functions.size(); ++fi) {
        const IrFunction* func = module->functions[fi].get();
        names.push_back(func->name);
        if (was_known) {
          changed_functions.insert(func->name);
        }
        if (disk_restored.count(path) > 0) {
          if (auto it = entry.functions.find(FunctionKey(fi, func->name));
              it != entry.functions.end()) {
            RebindFunctionDetect(it->second, func, file);
          }
        }
      }
    }
  }

  // --- Detect stage: dirty slice through the checkers, rest from cache -----
  CheckerRunResult detect;
  std::set<std::string> updated_paths;
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
    bool carry_allowed = true;
    for (const Checker* checker : runnable) {
      if (!checker->function_local()) {
        // A project-global checker can change its verdict on any function after
        // any edit: the cache is unusable while it is enabled.
        carry_allowed = false;
      }
    }

    const DepGraph graph(project_);
    const std::set<std::string> dirty = graph.DirtyClosure(changed_functions);

    std::vector<CheckerWorkItem> work;
    std::vector<std::pair<std::string, std::string>> work_keys;  // (path, function key)
    int functions_total = 0;
    for (size_t m : project_.unit_order()) {
      const auto& module = project_.modules()[m];
      const std::string& path = project_.sources().Path(module->file);
      FileCacheEntry& entry = cache_.File(path);
      for (size_t fi = 0; fi < module->functions.size(); ++fi) {
        ++functions_total;
        const IrFunction* func = module->functions[fi].get();
        std::string key = FunctionKey(fi, func->name);
        if (carry_allowed && dirty.count(func->name) == 0 &&
            entry.functions.find(key) != entry.functions.end()) {
          continue;  // carried
        }
        work.push_back({module->file, func});
        work_keys.emplace_back(path, std::move(key));
      }
    }
    result.functions_total = functions_total;
    result.functions_dirty = static_cast<int>(work.size());
    cache_.stats().detect_recomputed += work.size();
    cache_.stats().detect_carried += static_cast<uint64_t>(functions_total) - work.size();

    std::vector<FunctionDetect> fresh = RunCheckersOnFunctions(
        project_, runnable, opt.jobs, &opt.budget, &opt.fault, /*isolate=*/true, work);
    for (size_t i = 0; i < fresh.size(); ++i) {
      cache_.File(work_keys[i].first).functions[work_keys[i].second] = std::move(fresh[i]);
      updated_paths.insert(work_keys[i].first);
    }

    // Assemble the COMPLETE detect outcome in full-run order (every live
    // function, carried or fresh) and merge it exactly as RunCheckers would.
    std::vector<FunctionDetect> all;
    all.reserve(static_cast<size_t>(functions_total));
    for (size_t m : project_.unit_order()) {
      const auto& module = project_.modules()[m];
      const std::string& path = project_.sources().Path(module->file);
      const FileCacheEntry& entry = cache_.File(path);
      for (size_t fi = 0; fi < module->functions.size(); ++fi) {
        all.push_back(entry.functions.at(FunctionKey(fi, module->functions[fi]->name)));
      }
    }
    MergeFunctionDetects(runnable, std::move(all), detect);
    scope.Arg("candidates", detect.candidates.size());
  }

  // Persist updated entries (skipping ones rebinding could not reproduce).
  if (cache_.has_disk_tier()) {
    for (const auto& [path, file] : reparsed) {
      updated_paths.insert(path);
    }
    for (const std::string& path : updated_paths) {
      const FileCacheEntry* entry = cache_.Find(path);
      FileId file = project_.sources().FindByPath(path);
      if (entry == nullptr || file == kInvalidFileId || !project_.IsLive(file)) {
        continue;
      }
      const auto& module = project_.modules()[file];
      bool safe = true;
      for (size_t fi = 0; fi < module->functions.size() && safe; ++fi) {
        auto it = entry->functions.find(FunctionKey(fi, module->functions[fi]->name));
        if (it != entry->functions.end() && !DiskSafe(it->second, module->functions[fi].get())) {
          safe = false;
        }
      }
      if (safe) {
        cache_.StoreToDisk(path, *entry);
      }
    }
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
