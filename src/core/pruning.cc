#include "src/core/pruning.h"

#include <algorithm>
#include <climits>
#include <map>
#include <string>

#include "src/support/string_util.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"
#include "src/vcs/repository.h"

namespace vc {

namespace {

// --- Pattern 1: configuration dependency -----------------------------------

bool MatchesConfigDependency(const Project& project, const UnusedDefCandidate& cand) {
  if (cand.var == nullptr) {
    return false;  // synthetic temps have no named uses to guard
  }
  const FunctionInfo* info = project.FindFunction(cand.function);
  if (info == nullptr || info->def_decl == nullptr) {
    return false;
  }
  FileId file = cand.def_loc.file;
  if (info->def_file != file) {
    return false;
  }
  const SourceRange& range = info->def_decl->range;
  const PreprocessResult& pp = project.preprocessing(file);
  const SourceManager& sm = project.sources();
  for (const CondRegion& region : pp.regions) {
    // Region must overlap the function body.
    if (region.end_line < range.begin.line || region.begin_line > range.end.line) {
      continue;
    }
    for (int line = region.begin_line + 1; line < region.end_line; ++line) {
      if (line == cand.def_loc.line) {
        continue;  // the definition itself does not count as a use
      }
      if (ContainsWord(sm.Line(file, line), cand.var->name)) {
        return true;
      }
    }
  }
  return false;
}

// --- Pattern 2: cursor ------------------------------------------------------

class CursorMatcher {
 public:
  bool Matches(const UnusedDefCandidate& cand) {
    if (!cand.is_increment || cand.ir_func == nullptr || cand.slot == kInvalidSlot) {
      return false;
    }
    // "Incremented repeatedly by the same constant": at least two direct
    // increment stores to this slot with the candidate's step (step 0
    // matches any step).
    int matches = 0;
    for (const auto& [slot, step] : IncrementsIn(*cand.ir_func)) {
      if (slot == cand.slot && (cand.increment_amount == 0 || step == cand.increment_amount)) {
        ++matches;
      }
    }
    return matches >= 2;
  }

 private:
  // Every direct increment store in `func` as (slot, step): one pass over
  // the function, cached for every candidate the chunk tests in it.
  const std::vector<std::pair<SlotId, long long>>& IncrementsIn(const IrFunction& func) {
    auto [it, inserted] = cache_.try_emplace(&func);
    if (inserted) {
      for (const auto& block : func.blocks) {
        for (const Instruction& inst : block.insts) {
          if (inst.op == Opcode::kStore && inst.is_increment) {
            it->second.emplace_back(inst.slot, inst.increment_amount());
          }
        }
      }
    }
    return it->second;
  }

  std::map<const IrFunction*, std::vector<std::pair<SlotId, long long>>> cache_;
};

// --- Pattern 3: unused hints ------------------------------------------------

bool MatchesUnusedHint(const Project& project, const UnusedDefCandidate& cand) {
  if (cand.var != nullptr && cand.var->has_unused_attr) {
    return true;
  }
  const SourceManager& sm = project.sources();
  // Keyword match on the definition line (covers trailing comments) and on
  // the declaration line of the variable.
  if (cand.def_loc.IsValid() &&
      ContainsIgnoreCase(sm.Line(cand.def_loc.file, cand.def_loc.line), "unused")) {
    return true;
  }
  if (cand.var != nullptr && cand.var->loc.IsValid() &&
      ContainsIgnoreCase(sm.Line(cand.var->loc.file, cand.var->loc.line), "unused")) {
    return true;
  }
  return false;
}

// --- Extension pattern: stale code (paper §9.1 future work) -----------------

// The commit that introduced the definition marks it as debugging, legacy, or
// deprecated code — or the whole containing function has not been touched for
// `stale_days` and the definition line itself carries a debug marker.
class StaleCodeMatcher {
 public:
  StaleCodeMatcher(const Project& project, const Repository* repo, const PruneOptions& options)
      : project_(project), repo_(repo), options_(options) {
    if (repo_ != nullptr) {
      now_ = options.now_timestamp;
      if (now_ == 0) {
        for (CommitId id = 0; id < repo_->NumCommits(); ++id) {
          now_ = std::max(now_, repo_->GetCommit(id).timestamp);
        }
      }
    }
  }

  bool Matches(const UnusedDefCandidate& cand) const {
    if (repo_ == nullptr || !cand.def_loc.IsValid()) {
      return false;
    }
    const std::string& path = project_.sources().Path(cand.def_loc.file);
    const std::vector<LineOrigin>& blame = repo_->Blame(path);
    int index = cand.def_loc.line - 1;
    if (index < 0 || index >= static_cast<int>(blame.size())) {
      return false;
    }
    const Commit& commit = repo_->GetCommit(blame[index].commit);
    for (const char* marker : {"debug", "deprecated", "legacy"}) {
      if (ContainsIgnoreCase(commit.message, marker)) {
        return true;
      }
    }
    // Untouched-function rule: every line of the containing function is older
    // than the staleness horizon AND the definition line mentions debugging.
    const FunctionInfo* info = project_.FindFunction(cand.function);
    if (info == nullptr || info->def_decl == nullptr ||
        info->def_file != cand.def_loc.file) {
      return false;
    }
    if (!ContainsIgnoreCase(project_.sources().Line(cand.def_loc.file, cand.def_loc.line),
                            "debug")) {
      return false;
    }
    int64_t horizon = now_ - static_cast<int64_t>(options_.stale_days) * 86400;
    const SourceRange& range = info->def_decl->range;
    for (int line = range.begin.line; line <= range.end.line; ++line) {
      int i = line - 1;
      if (i < 0 || i >= static_cast<int>(blame.size())) {
        continue;
      }
      if (repo_->GetCommit(blame[i].commit).timestamp > horizon) {
        return false;  // someone touched the function recently
      }
    }
    return true;
  }

 private:
  const Project& project_;
  const Repository* repo_;
  const PruneOptions& options_;
  int64_t now_ = 0;
};

// --- Pattern 4: peer definitions --------------------------------------------

std::string SignatureOf(const FunctionDecl* decl) {
  // The full signature — return type included — defines the peer group.
  auto append = [](const Type* type, std::string& out) {
    if (type != nullptr) {
      type->AppendTo(out);
    } else {
      out += '?';
    }
  };
  std::string sig;
  append(decl->return_type, sig);
  sig += '(';
  for (const VarDecl* param : decl->params) {
    append(param->type, sig);
    sig += ',';
  }
  sig += ')';
  return sig;
}

// --- The pipeline -------------------------------------------------------------

// Runs patterns 1-4 in pipeline order on one candidate and returns the first
// that matches.
PruneReason MatchPatterns(const Project& project, const UnusedDefCandidate& cand,
                          const PruneOptions& options, CursorMatcher& cursor,
                          const PeerStats& peers) {
  if (options.config_dependency && MatchesConfigDependency(project, cand)) {
    return PruneReason::kConfigDependency;
  }
  if (options.cursor && cursor.Matches(cand)) {
    return PruneReason::kCursor;
  }
  if (options.unused_hints && MatchesUnusedHint(project, cand)) {
    return PruneReason::kUnusedHint;
  }
  if (options.peer_definition && peers.Matches(project, cand)) {
    return PruneReason::kPeerDefinition;
  }
  return PruneReason::kNone;
}

// A parameter candidate: its peers are the same position of same-signature
// functions.
bool IsParamPeer(const UnusedDefCandidate& cand) { return cand.is_param && cand.var != nullptr; }

// Adds a tested candidate's verdict to the count of the pattern it names.
void CountReason(PruneStats& stats, PruneReason reason) {
  switch (reason) {
    case PruneReason::kConfigDependency: ++stats.config_dependency; break;
    case PruneReason::kCursor: ++stats.cursor; break;
    case PruneReason::kUnusedHint: ++stats.unused_hints; break;
    case PruneReason::kPeerDefinition: ++stats.peer_definition; break;
    case PruneReason::kStaleCode: ++stats.stale_code; break;
    case PruneReason::kNone: break;
  }
}

// `tested` candidates met the patterns in pipeline order: each pattern
// tested those no earlier pattern pruned.
void CountTested(PruneStats& stats, int tested, const PruneOptions& options) {
  for (const PrunePattern& pattern : kPrunePatterns) {
    stats.*pattern.tested = options.*pattern.enabled ? tested : 0;
    tested -= stats.*pattern.pruned;
  }
  stats.remaining = stats.original - stats.TotalPruned();
}

}  // namespace

bool IsPruneTarget(const UnusedDefCandidate& cand) { return cand.checker == "unused-def"; }

// --- Pattern 4: peer statistics -------------------------------------------------

PeerStats::PeerStats(const PruneOptions& options)
    : min_occurrences_(options.peer_min_occurrences),
      unused_fraction_(options.peer_unused_fraction) {}

bool PeerStats::Over(int64_t total, int64_t unused) const {
  return total > min_occurrences_ &&
         static_cast<double>(unused) > unused_fraction_ * static_cast<double>(total);
}

void PeerStats::Touch(uint32_t id) {
  if (!names_[id].dirty) {
    names_[id].dirty = true;
    dirty_.push_back(id);
  }
}

void PeerStats::Touch(GroupMap::value_type& group) {
  if (!group.second.dirty) {
    group.second.dirty = true;
    dirty_groups_.push_back(&group);
  }
}

void PeerStats::Add(const Contribution& contribution, int sign) {
  for (const Contribution::Callee& callee : contribution.names) {
    NameStats& name = names_[callee.id];
    name.refs += sign;
    name.sites += sign * static_cast<int>(callee.sites);
    name.unused_sites += sign * static_cast<int>(callee.unused);
    Touch(callee.id);
  }
  for (const auto& [id, param] : contribution.params) {
    NameStats& name = names_[id];
    name.refs += sign;
    if (name.unused_params.size() <= param) {
      name.unused_params.resize(param + 1, 0);
    }
    name.unused_params[param] += sign;
    Touch(id);
  }
}

PeerStats::Contribution PeerStats::Compute(const Project& project, FileId file,
                                           const UnusedDefCandidate* const* first,
                                           const UnusedDefCandidate* const* last) {
  Contribution contribution;
  // Call results this file assigns to an unused definition, by callee and
  // line: the store and the call share a line but not a column.
  std::vector<std::pair<std::string_view, int>> assigned;
  for (const UnusedDefCandidate* const* it = first; it != last; ++it) {
    const UnusedDefCandidate& cand = **it;
    if (IsParamPeer(cand)) {
      const uint32_t id = project.NameId(cand.function);
      if (id != Project::kNoName && cand.var->param_index >= 0) {
        contribution.params.emplace_back(id, static_cast<uint32_t>(cand.var->param_index));
      }
    } else if (!cand.callee_name.empty() && !cand.is_synthetic) {
      assigned.emplace_back(cand.callee_name, cand.def_loc.line);
    }
  }
  std::sort(assigned.begin(), assigned.end());
  const Project::IndexShare& share = project.index_share(file);
  contribution.names.reserve(share.names.size());
  for (const Project::IndexShare::Name& name : share.names) {
    auto lo =
        std::lower_bound(assigned.begin(), assigned.end(), std::make_pair(name.name, INT_MIN));
    auto hi = std::lower_bound(lo, assigned.end(), std::make_pair(name.name, INT_MAX));
    uint32_t unused = 0;
    for (uint32_t s = name.sites_begin; s < name.sites_end; ++s) {
      const CallSite& site = *share.sites[s];
      if (!site.result_assigned ||
          std::binary_search(lo, hi, std::make_pair(name.name, site.loc.line))) {
        ++unused;
      }
    }
    contribution.names.push_back({name.id, name.sites_end - name.sites_begin, unused});
  }
  return contribution;
}

void PeerStats::Update(const Project& project,
                       std::span<const UnusedDefCandidate* const> candidates,
                       const std::vector<FileId>& files, int jobs) {
  ++update_;
  retval_flips_ = 0;
  group_flips_ = 0;
  const size_t num_files = static_cast<size_t>(project.sources().NumFiles());
  if (files_.size() < num_files) {
    files_.resize(num_files);
  }
  if (names_.size() < project.NameIdBound()) {
    names_.resize(project.NameIdBound());
  }

  // Bucket the unused-def candidates of `files` by file: each candidate's
  // bucket across the lanes, then a counting sort.
  constexpr uint32_t kNotGiven = UINT32_MAX;
  std::vector<uint32_t> given(num_files, kNotGiven);
  for (size_t k = 0; k < files.size(); ++k) {
    given[files[k]] = static_cast<uint32_t>(k);
  }
  std::vector<uint32_t> bucket(candidates.size());
  ParallelFor(jobs, candidates.size(), [&](size_t j) {
    const UnusedDefCandidate& cand = *candidates[j];
    const FileId file = cand.def_loc.file;
    bucket[j] = IsPruneTarget(cand) && file >= 0 && static_cast<size_t>(file) < num_files
                    ? given[file]
                    : kNotGiven;
  });
  std::vector<size_t> begin(files.size() + 1, 0);
  for (uint32_t b : bucket) {
    if (b != kNotGiven) {
      ++begin[b + 1];
    }
  }
  for (size_t k = 0; k < files.size(); ++k) {
    begin[k + 1] += begin[k];
  }
  std::vector<const UnusedDefCandidate*> bucketed(begin.back());
  {
    std::vector<size_t> next(begin.begin(), begin.end() - 1);
    for (size_t j = 0; j < candidates.size(); ++j) {
      if (bucket[j] != kNotGiven) {
        bucketed[next[bucket[j]]++] = candidates[j];
      }
    }
  }

  // Each live file's new contribution, computed on the lanes; then,
  // serially, the old contributions go and the new ones come in.
  std::vector<Contribution> fresh(files.size());
  ParallelFor(jobs, files.size(), [&](size_t k) {
    if (project.IsLive(files[k])) {
      fresh[k] = Compute(project, files[k], bucketed.data() + begin[k],
                         bucketed.data() + begin[k + 1]);
    }
  });
  for (FileId file : files) {
    Add(files_[file], -1);
  }
  for (size_t k = 0; k < files.size(); ++k) {
    Add(fresh[k], +1);
    files_[files[k]] = std::move(fresh[k]);
  }
  Decide(project, jobs);
}

void PeerStats::Leave(NameStats& name) {
  if (name.group == nullptr) {
    return;
  }
  Group& group = name.group->second;
  --group.members;
  for (size_t p = 0; p < name.counted.size(); ++p) {
    group.unused[p] -= name.counted[p];
  }
  Touch(*name.group);
  name.group = nullptr;
  name.counted.clear();
}

void PeerStats::Decide(const Project& project, int jobs) {
  // A name whose index entry has a definition joins that signature's group;
  // the signatures are spelled out on the lanes.
  auto definition = [&](uint32_t id) -> const FunctionDecl* {
    const FunctionInfo* entry = project.IndexEntry(id);
    return names_[id].refs > 0 && entry != nullptr ? entry->def_decl : nullptr;
  };
  std::vector<std::string> signature(dirty_.size());
  ParallelFor(jobs, dirty_.size(), [&](size_t i) {
    if (const FunctionDecl* def = definition(dirty_[i])) {
      signature[i] = SignatureOf(def);
    }
  });
  for (size_t i = 0; i < dirty_.size(); ++i) {
    NameStats& name = names_[dirty_[i]];
    name.dirty = false;
    Leave(name);
    if (name.refs == 0) {
      name = NameStats();  // the id is free until a later update
      continue;
    }
    const bool ignored = Over(name.sites, name.unused_sites);
    if (ignored != name.retval_ignored) {
      name.retval_ignored = ignored;
      ++retval_flips_;
    }
    const FunctionDecl* def = definition(dirty_[i]);
    if (def == nullptr) {
      continue;
    }
    auto [it, added] = groups_.try_emplace(std::move(signature[i]));
    Group& group = it->second;
    const size_t arity = def->params.size();
    if (added) {
      group.unused.assign(arity, 0);
      group.ignored.assign(arity, 0);
    }
    ++group.members;
    if (!name.unused_params.empty()) {
      name.counted.assign(arity, 0);
      for (size_t p = 0; p < arity && p < name.unused_params.size(); ++p) {
        name.counted[p] = name.unused_params[p] > 0 ? 1 : 0;
        group.unused[p] += name.counted[p];
      }
    }
    name.group = &*it;
    Touch(*it);
  }
  dirty_.clear();
  for (GroupMap::value_type* entry : dirty_groups_) {
    Group& group = entry->second;
    group.dirty = false;
    if (group.members == 0) {
      groups_.erase(groups_.find(entry->first));
      continue;
    }
    bool flipped = false;
    for (size_t p = 0; p < group.ignored.size(); ++p) {
      const char ignored = Over(group.members, group.unused[p]) ? 1 : 0;
      flipped = flipped || ignored != group.ignored[p];
      group.ignored[p] = ignored;
    }
    if (flipped) {
      group.flipped = update_;
      ++group_flips_;
    }
  }
  dirty_groups_.clear();
}

const PeerStats::NameStats* PeerStats::Find(const Project& project,
                                            const std::string& name) const {
  const uint32_t id = project.NameId(name);
  return id < names_.size() ? &names_[id] : nullptr;
}

bool PeerStats::Matches(const Project& project, const UnusedDefCandidate& cand) const {
  if (IsParamPeer(cand)) {
    const NameStats* name = Find(project, cand.function);
    if (name == nullptr || name->group == nullptr) {
      return false;
    }
    const size_t param = static_cast<size_t>(cand.var->param_index);
    const Group& group = name->group->second;
    return param < group.ignored.size() && group.ignored[param];
  }
  if (!cand.callee_name.empty()) {
    const NameStats* name = Find(project, cand.callee_name);
    return name != nullptr && name->retval_ignored;
  }
  return false;
}

bool PeerStats::GroupFlipped(const Project& project, const UnusedDefCandidate& cand) const {
  if (!IsParamPeer(cand)) {
    return false;
  }
  const NameStats* name = Find(project, cand.function);
  return name != nullptr && name->group != nullptr && name->group->second.flipped == update_;
}

// --- Pruning ----------------------------------------------------------------------

void MatchPruning(const Project& project, std::span<UnusedDefCandidate* const> targets,
                  const PeerStats& peers, const PruneOptions& options, const Repository* repo,
                  int jobs) {
  std::vector<PruneReason> reasons(targets.size(), PruneReason::kNone);
  {
    TraceSpan span("prune.match", "pipeline");
    span.Arg("matched", static_cast<int64_t>(targets.size()));
    // Contiguous chunks, each with its own cursor increment table
    // (candidates of one function are adjacent, so a function's increments
    // are counted about once).
    const size_t chunks = std::min(targets.size(), static_cast<size_t>(ResolveJobs(jobs)) * 4);
    ParallelFor(jobs, chunks, [&](size_t chunk) {
      CursorMatcher cursor;
      const size_t end = targets.size() * (chunk + 1) / chunks;
      for (size_t k = targets.size() * chunk / chunks; k < end; ++k) {
        reasons[k] = MatchPatterns(project, *targets[k], options, cursor, peers);
      }
    });
  }

  // The stale-code extension reads Repository::Blame, which is not safe to
  // call concurrently, so it runs serially. Being the last pattern, it sees
  // exactly the candidates the in-order pipeline would hand it.
  if (options.stale_code) {
    TraceSpan span("prune.stale_code", "pipeline");
    StaleCodeMatcher stale(project, repo, options);
    for (size_t k = 0; k < targets.size(); ++k) {
      if (reasons[k] == PruneReason::kNone && stale.Matches(*targets[k])) {
        reasons[k] = PruneReason::kStaleCode;
      }
    }
  }

  for (size_t k = 0; k < targets.size(); ++k) {
    targets[k]->pruned_by = reasons[k];
  }
}

void CountPruned(CandidateSlice& slice, bool cross_scope_only, const PruneOptions& options) {
  PruneStats stats;
  stats.original = static_cast<int>(slice.kept);
  int tested = 0;
  slice.survivors.clear();
  for (size_t i = 0; i < slice.candidates.size(); ++i) {
    const UnusedDefCandidate& cand = slice.candidates[i];
    if (!InPrunePool(cand, cross_scope_only)) {
      continue;
    }
    if (IsPruneTarget(cand)) {
      ++tested;
      CountReason(stats, cand.pruned_by);
    }
    if (cand.pruned_by == PruneReason::kNone) {
      slice.survivors.push_back(static_cast<uint32_t>(i));
    }
  }
  CountTested(stats, tested, options);
  slice.prune = stats;
}

PruneStats RunPruning(const Project& project, std::vector<UnusedDefCandidate>& candidates,
                      const PruneOptions& options,
                      const std::vector<UnusedDefCandidate>* peer_universe,
                      const Repository* repo, int jobs) {
  const std::vector<UnusedDefCandidate>& universe =
      peer_universe != nullptr ? *peer_universe : candidates;
  PeerStats peers(options);
  if (options.peer_definition) {
    TraceSpan span("prune.peer_stats", "pipeline");
    std::vector<const UnusedDefCandidate*> all;
    all.reserve(universe.size());
    for (const UnusedDefCandidate& cand : universe) {
      all.push_back(&cand);
    }
    std::vector<FileId> files;
    for (size_t m : project.unit_order()) {
      files.push_back(static_cast<FileId>(m));
    }
    peers.Update(project, all, files, jobs);
  }
  std::vector<UnusedDefCandidate*> targets;
  for (UnusedDefCandidate& cand : candidates) {
    if (IsPruneTarget(cand) && cand.pruned_by == PruneReason::kNone) {
      targets.push_back(&cand);
    }
  }
  MatchPruning(project, targets, peers, options, repo, jobs);
  PruneStats stats;
  stats.original = static_cast<int>(candidates.size());
  for (const UnusedDefCandidate* cand : targets) {
    CountReason(stats, cand->pruned_by);
  }
  CountTested(stats, static_cast<int>(targets.size()), options);
  return stats;
}

}  // namespace vc
