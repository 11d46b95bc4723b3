// Seeded multi-commit history synthesizer for the incremental engine's
// differential battery and the per-commit replay bench.
//
// A history is a set of "modules" — independently generated Mini-C programs
// (testgen.h) with per-module identifier/path prefixes so they always
// combine into one project — plus one `glue.c` whose functions call a
// stable `modN_entry` export of every live module. Commits then apply the
// edit shapes a real repository produces, which are exactly the cases the
// incremental engine has to survive:
//
//   * rewrite   — a module's whole body changes (new generator version);
//                 its entry body changes too, so glue callers are
//                 callee-affected;
//   * touch     — whitespace-only append (content hash changes, semantics
//                 do not);
//   * add       — a new module appears and glue grows a caller (file add);
//   * remove    — a module and its glue caller disappear (file delete);
//   * rename    — the module's file moves, content byte-identical
//                 (delete + write at the new path);
//   * signature — `modN_entry` flips between 1- and 2-parameter forms and
//                 glue is rewritten to match (cross-file signature change);
//   * peer      — a module ignores one more (or one fewer) result of the
//                 library call every module makes four times, which can
//                 flip that callee's peer verdict at the call sites of
//                 modules the commit does not touch.
//
// Every third module (mod2, mod5, ...) is quiet: it makes its four calls to
// a helper of its own instead of the library call, so it shares no name
// with any other module. An edit of one kind of module then leaves the
// other kind's finished results for the engine to carry past detection.
//
// Determinism contract: the same HistoryGenOptions yields a byte-identical
// Repository on every platform (vc::Rng only, no unordered iteration).
// Authors rotate and timestamps strictly increase so authorship, blame, and
// familiarity ranking all see realistic inputs.

#ifndef VALUECHECK_SRC_TESTING_HISTORY_GEN_H_
#define VALUECHECK_SRC_TESTING_HISTORY_GEN_H_

#include <cstdint>

#include "src/testing/testgen.h"
#include "src/vcs/repository.h"

namespace vc {
namespace testing {

struct HistoryGenOptions {
  uint64_t seed = 1;
  int commits = 50;          // total commits, including the initial one
  int initial_modules = 4;   // modules created by commit 0
  int max_modules = 64;      // adds stop here; removes stop at 1 live module
  int authors = 4;           // rotating author pool ("dev0".."devN")
  // Shape of each module's generated body (min/max_files forced to 1).
  GenOptions per_module;
};

// Synthesizes the full history into a fresh Repository. The result has
// exactly `options.commits` commits (commit 0 creates the initial modules
// and glue.c).
Repository GenerateHistory(const HistoryGenOptions& options);

}  // namespace testing
}  // namespace vc

#endif  // VALUECHECK_SRC_TESTING_HISTORY_GEN_H_
