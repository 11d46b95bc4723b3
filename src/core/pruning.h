// False-positive pruning (§5, Table 1). Four patterns, applied as a pipeline
// in the paper's order; a candidate is charged to the first pattern that
// matches (matching the paper's note that prune counts reflect pipeline
// order):
//
//   1. Configuration dependency — a use of the variable exists in the raw
//      source inside an #if/#ifdef region of the same function (it may be
//      compiled in under another configuration).
//   2. Cursor — the definition is `v = v ± c` and the variable is incremented
//      repeatedly by the same constant (the "moving cursor" idiom).
//   3. Unused hints — the developer marked intent: an unused attribute on the
//      declaration, or the keyword "unused" on the definition/declaration
//      line (comments included).
//   4. Peer definitions — most other call sites of the same callee (or the
//      same parameter position of same-signature functions) also leave the
//      value unused; with > 10 occurrences and > half unused, the value is
//      evidently one developers do not care about (printf's return value).
//      The verdicts come from PeerStats, which the incremental engine keeps
//      warm across commits.

#ifndef VALUECHECK_SRC_CORE_PRUNING_H_
#define VALUECHECK_SRC_CORE_PRUNING_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/project.h"
#include "src/core/unused_def.h"

namespace vc {

struct PruneOptions {
  bool config_dependency = true;
  bool cursor = true;
  bool unused_hints = true;
  bool peer_definition = true;
  // Peer-definition thresholds (§5.4): report only when occurrences are over
  // `peer_min_occurrences` and more than `peer_unused_fraction` are unused.
  int peer_min_occurrences = 10;
  double peer_unused_fraction = 0.5;
  // Extension (§9.1): prune candidates whose defining commit message marks
  // them as debugging/deprecated/legacy code, or that sit in functions
  // untouched for `stale_days` with a debug marker on the definition line.
  // The paper describes but does not enable this (overhead concerns); it is
  // off by default here too.
  bool stale_code = false;
  int stale_days = 730;
  // Reference timestamp for staleness; 0 = the repository's newest commit.
  int64_t now_timestamp = 0;
};

// The five patterns, named once, in pipeline order: the JSON prune_patterns
// block, the --metrics rows, the ledger record, the published
// prune.<pattern>.tested/pruned counters and RunPruning's tested counts all
// loop over this table.
struct PrunePattern {
  const char* name;  // "config_dependency", "cursor", ...
  bool PruneOptions::*enabled;
  int PruneStats::*tested;
  int PruneStats::*pruned;
};
inline constexpr PrunePattern kPrunePatterns[] = {
    {"config_dependency", &PruneOptions::config_dependency, &PruneStats::config_tested,
     &PruneStats::config_dependency},
    {"cursor", &PruneOptions::cursor, &PruneStats::cursor_tested, &PruneStats::cursor},
    {"unused_hints", &PruneOptions::unused_hints, &PruneStats::hints_tested,
     &PruneStats::unused_hints},
    {"peer_definition", &PruneOptions::peer_definition, &PruneStats::peer_tested,
     &PruneStats::peer_definition},
    {"stale_code", &PruneOptions::stale_code, &PruneStats::stale_tested, &PruneStats::stale_code},
};

// Peer-definition statistics (pattern 4), assembled from per-file
// contributions. A file contributes, for each name it calls, its call sites
// and how many of them leave the result unused — not assigned, or assigned to
// an unused-def candidate on the site's line — and, for each function it
// defines, the positions of its unused-parameter candidates. A name's return
// value is customarily ignored when its sites summed over every file pass the
// thresholds. A parameter position is customarily ignored when enough of the
// functions whose index definitions share one signature leave it unused; a
// duplicate name counts once, with the definition the index chose (the last
// in path order) and the marks of every file that defines it.
//
// Names are the project's name ids. Update() replaces the contributions of
// the files it is given and re-decides only the names they list and those
// names' signature groups, so a warm instance that follows every project
// update decides exactly what a fresh one built over every file decides,
// provided every file whose index share or candidates changed is among those
// replaced. It records which verdicts flipped.
class PeerStats {
 public:
  explicit PeerStats(const PruneOptions& options = PruneOptions());
  // Names point into the group table, which a copy would not share.
  PeerStats(const PeerStats&) = delete;
  PeerStats& operator=(const PeerStats&) = delete;
  PeerStats(PeerStats&&) = default;
  PeerStats& operator=(PeerStats&&) = default;

  // Replaces the contribution of each of `files`: a live file's is recomputed
  // from its index share and the unused-def candidates among `candidates`
  // that lie in it, a tombstoned file's is taken out. Then re-decides every
  // name a replaced contribution listed, old or new, and the signature
  // groups those names leave or join. The per-file work runs across up to
  // `jobs` lanes.
  void Update(const Project& project, std::span<const UnusedDefCandidate* const> candidates,
              const std::vector<FileId>& files, int jobs);

  // Pattern 4 on one candidate of `project` (the project of the last
  // Update()): its callee's return value, or its parameter's position in its
  // signature group, is customarily ignored.
  bool Matches(const Project& project, const UnusedDefCandidate& cand) const;
  // True for a parameter candidate whose signature group's verdict flipped
  // in the last Update().
  bool GroupFlipped(const Project& project, const UnusedDefCandidate& cand) const;

  // Verdicts the last Update() flipped.
  int retval_flips() const { return retval_flips_; }
  int group_flips() const { return group_flips_; }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const { return std::hash<std::string_view>()(name); }
  };
  // A signature group, keyed by the signature.
  struct Group {
    int members = 0;
    std::vector<int> unused;    // per position: members leaving it unused
    std::vector<char> ignored;  // per position: the verdict
    bool dirty = false;
    uint64_t flipped = 0;       // the Update() that last flipped a verdict
  };
  using GroupMap = std::unordered_map<std::string, Group, Hash, std::equal_to<>>;
  // One name's sums over the contributions, and its verdicts; by name id.
  struct NameStats {
    int refs = 0;  // contribution entries naming it
    int sites = 0;
    int unused_sites = 0;
    bool dirty = false;
    bool retval_ignored = false;
    std::vector<int> unused_params;         // per position: contributions marking it
    GroupMap::value_type* group = nullptr;  // of the name's index definition
    std::vector<char> counted;              // per position: counted in `group`
  };
  // One file's contribution, by name id: per name of its index share, its
  // call sites and how many leave the result unused; and its unused
  // parameter positions.
  struct Contribution {
    struct Callee {
      uint32_t id;
      uint32_t sites;
      uint32_t unused;
    };
    std::vector<Callee> names;
    std::vector<std::pair<uint32_t, uint32_t>> params;
  };

  bool Over(int64_t total, int64_t unused) const;
  static Contribution Compute(const Project& project, FileId file,
                              const UnusedDefCandidate* const* first,
                              const UnusedDefCandidate* const* last);
  const NameStats* Find(const Project& project, const std::string& name) const;
  void Add(const Contribution& contribution, int sign);
  void Touch(uint32_t id);
  void Touch(GroupMap::value_type& group);
  void Leave(NameStats& name);
  void Decide(const Project& project, int jobs);

  int min_occurrences_;
  double unused_fraction_;
  std::vector<NameStats> names_;       // by name id
  GroupMap groups_;
  std::vector<Contribution> files_;    // by FileId
  std::vector<uint32_t> dirty_;        // name ids
  std::vector<GroupMap::value_type*> dirty_groups_;
  uint64_t update_ = 0;
  int retval_flips_ = 0;
  int group_flips_ = 0;
};

// The §5 patterns model intentional *unused definitions* (cursor loops,
// config-guarded uses, customarily-ignored values): only unused-def
// candidates are tested, and other checkers' findings pass through
// unpruned — keeping a checker's findings identical whether it runs alone or
// alongside others.
bool IsPruneTarget(const UnusedDefCandidate& cand);

// The prune pool: what the cross-scope filter keeps, every candidate when
// the filter is off (`cross_scope_only` false).
inline bool InPrunePool(const UnusedDefCandidate& cand, bool cross_scope_only) {
  return !cross_scope_only || cand.cross_scope;
}

// Runs patterns 1-4 (and stale code when enabled) on each of `targets` in
// pipeline order and records the first that matched in its `pruned_by`
// (kNone when none did). `peers` must be up to date for this project
// (PeerStats::Update). The patterns run across up to `jobs` lanes, so the
// reasons are the same at any `jobs`; they reach the candidates only after
// every pattern ran, so a call that throws marks nothing. `repo` is only
// needed when options.stale_code is enabled.
void MatchPruning(const Project& project, std::span<UnusedDefCandidate* const> targets,
                  const PeerStats& peers, const PruneOptions& options, const Repository* repo,
                  int jobs);

// Finishes a slice whose pool (InPrunePool; `kept` of its candidates) holds
// its final reasons: counts its prune statistics, where each unused-def pool
// member was tested by the enabled patterns in pipeline order up to the one
// that pruned it, and lists its survivors.
void CountPruned(CandidateSlice& slice, bool cross_scope_only, const PruneOptions& options);

// Prunes every unused-def candidate of the list not already pruned, with
// peer statistics built from `peer_universe` (the complete pre-filter
// candidate set: a value may be "usually unused" even when most of those
// unused sites are same-author) when given, otherwise from `candidates`
// itself. The statistics count the list as the pool.
PruneStats RunPruning(const Project& project, std::vector<UnusedDefCandidate>& candidates,
                      const PruneOptions& options = PruneOptions(),
                      const std::vector<UnusedDefCandidate>* peer_universe = nullptr,
                      const Repository* repo = nullptr, int jobs = 1);

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_PRUNING_H_
