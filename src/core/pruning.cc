#include "src/core/pruning.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>

#include "src/pointer/andersen.h"
#include "src/pointer/value_flow.h"
#include "src/support/metrics.h"
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
    const ValueFlowGraph& vfg = GraphFor(*cand.ir_func);
    // "Incremented repeatedly by the same constant": at least two increment
    // definitions of this slot with the candidate's step.
    return vfg.NumIncrementDefs(cand.slot, cand.increment_amount) >= 2;
  }

 private:
  const ValueFlowGraph& GraphFor(const IrFunction& func) {
    auto it = cache_.find(&func);
    if (it == cache_.end()) {
      auto pts = std::make_unique<PointsTo>(func);
      auto vfg = std::make_unique<ValueFlowGraph>(func, *pts);
      it = cache_.emplace(&func, std::move(vfg)).first;
      points_to_.push_back(std::move(pts));
    }
    return *it->second;
  }

  std::map<const IrFunction*, std::unique_ptr<ValueFlowGraph>> cache_;
  std::vector<std::unique_ptr<PointsTo>> points_to_;
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

// Peer-group verdicts from one pass over the function index. A function's
// slot is its position in the index, which is sorted by name. Each slot's
// return value is one peer group; each parameter position of a signature
// (defined functions with the same SignatureOf) is another. Only the
// verdict, "customarily ignored" or not, is kept per group, so matching a
// candidate is a lookup. The per-candidate and per-slot passes run across
// `jobs` lanes, each lane writing only its own slots.
class PeerMatcher {
 public:
  PeerMatcher(const Project& project, const std::vector<UnusedDefCandidate>& universe,
              const PruneOptions& options, int jobs) {
    functions_.reserve(project.function_index().size());
    for (const auto& entry : project.function_index()) {
      functions_.push_back(&entry);
    }
    const size_t slots = functions_.size();
    // Slot s's parameter i is entry param_base[s] + i of the flat tables.
    std::vector<size_t> param_base(slots + 1, 0);
    for (size_t slot = 0; slot < slots; ++slot) {
      param_base[slot + 1] = param_base[slot] + Arity(slot);
    }

    // Which values the universe shows unused: parameters, by (function
    // slot, position), and assigned call results. A call site's result is
    // unused when it is ignored at the call or when the variable it was
    // assigned to is itself an unused definition; the store and the call
    // share a line but not a column, so assigned-but-unused results are
    // matched to call sites by (callee slot, file, line).
    std::vector<size_t> peer_slot(universe.size(), kNoSlot);
    ParallelFor(jobs, universe.size(), [&](size_t i) {
      const UnusedDefCandidate& cand = universe[i];
      if (cand.checker != "unused-def") {
        return;  // peer statistics are defined over unused definitions only
      }
      if (cand.is_param && cand.var != nullptr) {
        peer_slot[i] = SlotOf(cand.function);
      } else if (!cand.callee_name.empty() && !cand.is_synthetic) {
        peer_slot[i] = SlotOf(cand.callee_name);
      }
    });
    std::vector<std::tuple<size_t, FileId, int>> unused_assigned;
    std::vector<bool> unused_param(param_base.back(), false);
    for (size_t i = 0; i < universe.size(); ++i) {
      const size_t slot = peer_slot[i];
      if (slot == kNoSlot) {
        continue;
      }
      const UnusedDefCandidate& cand = universe[i];
      if (cand.is_param && cand.var != nullptr) {
        const size_t param = static_cast<size_t>(cand.var->param_index);
        if (param < Arity(slot)) {
          unused_param[param_base[slot] + param] = true;
        }
      } else {
        unused_assigned.emplace_back(slot, cand.def_loc.file, cand.def_loc.line);
      }
    }
    std::sort(unused_assigned.begin(), unused_assigned.end());

    auto over_threshold = [&options](int total, int unused) {
      return total > options.peer_min_occurrences &&
             static_cast<double>(unused) > options.peer_unused_fraction * total;
    };

    // Per slot: the return-value verdict (every call site of the name is an
    // occurrence) and, for a defined function, its signature and the hash
    // that groups it.
    retval_ignored_.resize(slots);
    std::vector<std::string> signature(slots);
    std::vector<size_t> signature_hash(slots);
    ParallelFor(jobs, slots, [&](size_t slot) {
      auto by_slot = [](const auto& key, size_t s) { return std::get<0>(key) < s; };
      auto first = std::lower_bound(unused_assigned.begin(), unused_assigned.end(), slot, by_slot);
      auto last = std::lower_bound(first, unused_assigned.end(), slot + 1, by_slot);
      const FunctionInfo& info = functions_[slot]->second;
      int unused = 0;
      for (const CallSite& site : info.call_sites) {
        if (!site.result_assigned ||
            std::binary_search(first, last, std::make_tuple(slot, site.loc.file, site.loc.line))) {
          ++unused;
        }
      }
      retval_ignored_[slot] = over_threshold(static_cast<int>(info.call_sites.size()), unused);
      if (info.def_decl != nullptr) {
        signature[slot] = SignatureOf(info.def_decl);
        signature_hash[slot] = std::hash<std::string>()(signature[slot]);
      }
    });

    // Parameters: peers are the same position of functions with identical
    // signatures. Sorting by (hash, slot) lines each signature's functions
    // up in index order; a group's positions are those of its first one.
    std::vector<size_t> defined;
    for (size_t slot = 0; slot < slots; ++slot) {
      if (functions_[slot]->second.def_decl != nullptr) {
        defined.push_back(slot);
      }
    }
    std::sort(defined.begin(), defined.end(), [&](size_t a, size_t b) {
      return std::tie(signature_hash[a], a) < std::tie(signature_hash[b], b);
    });
    param_group_.assign(slots, {0, 0});
    for (size_t begin = 0, end = 0; begin < defined.size(); begin = end) {
      const size_t hash = signature_hash[defined[begin]];
      auto hash_end = std::find_if(defined.begin() + begin, defined.end(),
                                   [&](size_t slot) { return signature_hash[slot] != hash; });
      // Another signature with the same hash would share the run: move this
      // signature's functions to its front, keeping index order on both sides.
      auto same = [&](size_t slot) { return signature[slot] == signature[defined[begin]]; };
      end = std::stable_partition(defined.begin() + begin + 1, hash_end, same) - defined.begin();

      const std::pair<size_t, size_t> group{param_ignored_.size(), Arity(defined[begin])};
      for (size_t param = 0; param < group.second; ++param) {
        int total = 0;
        int unused = 0;
        for (size_t i = begin; i < end; ++i) {
          if (param < Arity(defined[i])) {
            ++total;
            unused += unused_param[param_base[defined[i]] + param] ? 1 : 0;
          }
        }
        param_ignored_.push_back(over_threshold(total, unused));
      }
      for (size_t i = begin; i < end; ++i) {
        param_group_[defined[i]] = group;
      }
    }
  }

  bool Matches(const UnusedDefCandidate& cand) const {
    if (cand.is_param && cand.var != nullptr) {
      const size_t slot = SlotOf(cand.function);
      if (slot == kNoSlot || functions_[slot]->second.def_decl == nullptr) {
        return false;
      }
      const auto [first, count] = param_group_[slot];
      const size_t param = static_cast<size_t>(cand.var->param_index);
      return param < count && param_ignored_[first + param];
    }
    if (!cand.callee_name.empty()) {
      const size_t slot = SlotOf(cand.callee_name);
      return slot != kNoSlot && retval_ignored_[slot];
    }
    return false;
  }

 private:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  // The slot of the function called `name`, or kNoSlot.
  size_t SlotOf(const std::string& name) const {
    auto it = std::lower_bound(
        functions_.begin(), functions_.end(), name,
        [](const FunctionEntry* entry, const std::string& key) { return entry->first < key; });
    return it != functions_.end() && (*it)->first == name
               ? static_cast<size_t>(it - functions_.begin())
               : kNoSlot;
  }

  // Parameter count of a defined function; 0 for one known only by calls.
  size_t Arity(size_t slot) const {
    const FunctionDecl* decl = functions_[slot]->second.def_decl;
    return decl != nullptr ? decl->params.size() : 0;
  }

  using FunctionEntry = std::pair<const std::string, FunctionInfo>;
  std::vector<const FunctionEntry*> functions_;  // by slot
  std::vector<char> retval_ignored_;             // by slot
  // By slot (defined functions): the signature group's first entry in
  // param_ignored_ and its parameter count.
  std::vector<std::pair<size_t, size_t>> param_group_;
  std::vector<bool> param_ignored_;
};

// --- The pipeline -------------------------------------------------------------

// Runs patterns 1-4 in pipeline order on one candidate and returns the first
// that matches, counting each test in `counts`.
PruneReason MatchPatterns(const Project& project, const UnusedDefCandidate& cand,
                          const PruneOptions& options, CursorMatcher& cursor,
                          const PeerMatcher* peers, PruneStats& counts) {
  if (options.config_dependency) {
    ++counts.config_tested;
    if (MatchesConfigDependency(project, cand)) {
      ++counts.config_dependency;
      return PruneReason::kConfigDependency;
    }
  }
  if (options.cursor) {
    ++counts.cursor_tested;
    if (cursor.Matches(cand)) {
      ++counts.cursor;
      return PruneReason::kCursor;
    }
  }
  if (options.unused_hints) {
    ++counts.hints_tested;
    if (MatchesUnusedHint(project, cand)) {
      ++counts.unused_hints;
      return PruneReason::kUnusedHint;
    }
  }
  if (options.peer_definition) {
    ++counts.peer_tested;
    if (peers->Matches(cand)) {
      ++counts.peer_definition;
      return PruneReason::kPeerDefinition;
    }
  }
  return PruneReason::kNone;
}

// The §5 patterns model intentional *unused definitions* (cursor loops,
// config-guarded uses, customarily-ignored values); other checkers' findings
// pass through unpruned — keeping a checker's findings identical whether it
// runs alone or alongside others. Already-pruned candidates are not retried.
bool Prunable(const UnusedDefCandidate& cand) {
  return cand.pruned_by == PruneReason::kNone && cand.checker == "unused-def";
}

}  // namespace

PruneStats RunPruning(const Project& project, std::vector<UnusedDefCandidate>& candidates,
                      const std::vector<size_t>& targets,
                      const std::vector<UnusedDefCandidate>& peer_universe,
                      const PruneOptions& options, const Repository* repo, int jobs) {
  PruneStats stats;
  stats.original = static_cast<int>(targets.size());

  std::unique_ptr<PeerMatcher> peers;
  if (options.peer_definition) {
    TraceSpan span("prune.peer_stats", "pipeline");
    peers = std::make_unique<PeerMatcher>(project, peer_universe, options, jobs);
  }

  // Verdicts land here and reach the candidates only after every pattern
  // ran, so a stage that throws marks nothing.
  std::vector<PruneReason> reasons(targets.size(), PruneReason::kNone);
  {
    TraceSpan span("prune.match", "pipeline");
    span.Arg("candidates", static_cast<int64_t>(targets.size()));
    // Contiguous chunks, each with its own cursor-graph cache (candidates
    // of one function are adjacent, so a function's graphs are built about
    // once) and its own counters, summed in chunk order afterwards.
    const size_t chunks =
        std::min(targets.size(), static_cast<size_t>(ResolveJobs(jobs)) * 4);
    std::vector<PruneStats> counts(chunks);
    ParallelFor(jobs, chunks, [&](size_t chunk) {
      CursorMatcher cursor;
      const size_t end = targets.size() * (chunk + 1) / chunks;
      for (size_t k = targets.size() * chunk / chunks; k < end; ++k) {
        const UnusedDefCandidate& cand = candidates[targets[k]];
        if (Prunable(cand)) {
          reasons[k] = MatchPatterns(project, cand, options, cursor, peers.get(), counts[chunk]);
        }
      }
    });
    for (const PruneStats& chunk : counts) {
      stats.config_dependency += chunk.config_dependency;
      stats.cursor += chunk.cursor;
      stats.unused_hints += chunk.unused_hints;
      stats.peer_definition += chunk.peer_definition;
      stats.config_tested += chunk.config_tested;
      stats.cursor_tested += chunk.cursor_tested;
      stats.hints_tested += chunk.hints_tested;
      stats.peer_tested += chunk.peer_tested;
    }
  }

  // The stale-code extension reads Repository::Blame, which is not safe to
  // call concurrently, so it runs serially. Being the last pattern, it sees
  // exactly the candidates the in-order pipeline would hand it.
  if (options.stale_code) {
    TraceSpan span("prune.stale_code", "pipeline");
    StaleCodeMatcher stale(project, repo, options);
    for (size_t k = 0; k < targets.size(); ++k) {
      const UnusedDefCandidate& cand = candidates[targets[k]];
      if (reasons[k] != PruneReason::kNone || !Prunable(cand)) {
        continue;
      }
      ++stats.stale_tested;
      if (stale.Matches(cand)) {
        reasons[k] = PruneReason::kStaleCode;
        ++stats.stale_code;
      }
    }
  }

  for (size_t k = 0; k < targets.size(); ++k) {
    if (reasons[k] != PruneReason::kNone) {
      candidates[targets[k]].pruned_by = reasons[k];
    }
  }
  stats.remaining = stats.original - stats.TotalPruned();

  if (MetricsEnabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    struct {
      const char* name;
      int tested;
      int matched;
    } patterns[] = {
        {"config_dependency", stats.config_tested, stats.config_dependency},
        {"cursor", stats.cursor_tested, stats.cursor},
        {"unused_hints", stats.hints_tested, stats.unused_hints},
        {"peer_definition", stats.peer_tested, stats.peer_definition},
        {"stale_code", stats.stale_tested, stats.stale_code},
    };
    for (const auto& pattern : patterns) {
      registry.GetCounter(std::string("prune.") + pattern.name + ".tested")
          .Add(static_cast<uint64_t>(pattern.tested));
      registry.GetCounter(std::string("prune.") + pattern.name + ".pruned")
          .Add(static_cast<uint64_t>(pattern.matched));
    }
  }
  return stats;
}

PruneStats RunPruning(const Project& project, std::vector<UnusedDefCandidate>& candidates,
                      const PruneOptions& options,
                      const std::vector<UnusedDefCandidate>* peer_universe,
                      const Repository* repo, int jobs) {
  std::vector<size_t> all(candidates.size());
  std::iota(all.begin(), all.end(), 0);
  return RunPruning(project, candidates, all,
                    peer_universe != nullptr ? *peer_universe : candidates, options, repo, jobs);
}

}  // namespace vc
