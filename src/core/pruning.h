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

#ifndef VALUECHECK_SRC_CORE_PRUNING_H_
#define VALUECHECK_SRC_CORE_PRUNING_H_

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

struct PruneStats {
  int original = 0;
  int config_dependency = 0;
  int cursor = 0;
  int unused_hints = 0;
  int peer_definition = 0;
  int stale_code = 0;
  int remaining = 0;

  // Observability: candidates each pattern examined (a candidate charged to
  // an earlier pattern is never tested by later ones, matching pipeline
  // order). rejected = tested - matched, where matched is the count above.
  int config_tested = 0;
  int cursor_tested = 0;
  int hints_tested = 0;
  int peer_tested = 0;
  int stale_tested = 0;

  int TotalPruned() const {
    return config_dependency + cursor + unused_hints + peer_definition + stale_code;
  }
};

// Prunes candidates[i] for every i in `targets`, in place: a pruned
// candidate's `pruned_by` records the pattern that matched, and the others
// are left untouched. Peer-definition usage statistics come from
// `peer_universe` (the complete pre-filter candidate set: a value may be
// "usually unused" even when most of those unused sites are same-author); it
// may be `candidates` itself. Patterns 1-4 run across up to `jobs` lanes; the
// marks and the statistics are the same at any `jobs`. `repo` is only needed
// when options.stale_code is enabled.
PruneStats RunPruning(const Project& project, std::vector<UnusedDefCandidate>& candidates,
                      const std::vector<size_t>& targets,
                      const std::vector<UnusedDefCandidate>& peer_universe,
                      const PruneOptions& options, const Repository* repo, int jobs);

// The same over every candidate of the list. Peer statistics are computed
// over `peer_universe` when given, otherwise over `candidates` itself.
PruneStats RunPruning(const Project& project, std::vector<UnusedDefCandidate>& candidates,
                      const PruneOptions& options = PruneOptions(),
                      const std::vector<UnusedDefCandidate>* peer_universe = nullptr,
                      const Repository* repo = nullptr, int jobs = 1);

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_PRUNING_H_
