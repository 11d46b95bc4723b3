// The pluggable checker interface: many bug classes over one analysis
// substrate.
//
// The paper's detector is one bug class (unused definitions), but its real
// contribution is the substrate — CFG, liveness, DefineSets, points-to — that
// many narrow checkers can share. A `Checker` is one such bug class: a named,
// per-function detection pass that reads the shared analyses from a
// `CheckerContext` (computed once, memoized, metered) and returns candidates
// in the same `UnusedDefCandidate` shape the rest of the pipeline
// (authorship, pruning, ranking, fingerprinting, reports) already speaks.
//
// Contract:
//  * Check() must be deterministic and a pure function of (project, function)
//    — the driver merges per-function results in serial visit order, so any
//    hidden state would break byte-identical output across --jobs values.
//  * Check() runs under the per-function BudgetMeter; long loops should
//    charge it (the shared analyses already do) and may see
//    BudgetExceededError propagate.
//  * fingerprint_namespace() prefixes the fingerprint content key, keeping
//    checkers' findings in disjoint identity spaces. The unused-definition
//    checker returns "" so pre-framework fingerprints survive byte-identical.
//  * Unsupported() gates whole-project applicability (Table 5's "tool cannot
//    analyze this codebase" cells); the driver quarantines the checker with
//    the returned reason instead of running it.

#ifndef VALUECHECK_SRC_CHECKERS_CHECKER_H_
#define VALUECHECK_SRC_CHECKERS_CHECKER_H_

#include <string>
#include <vector>

#include "src/checkers/checker_context.h"
#include "src/core/project.h"
#include "src/core/unused_def.h"

namespace vc {

class Checker {
 public:
  virtual ~Checker() = default;

  // Stable CLI/report identity ("unused-def", "double-overwrite", ...).
  virtual std::string name() const = 0;

  // One-line description for --list-checkers and SARIF rule metadata.
  virtual std::string description() const = 0;

  // Prefix of the fingerprint content key. Defaults to the checker name;
  // the unused-definition checker overrides this to "" (migration gate:
  // byte-identical fingerprints vs the pre-framework detector).
  virtual std::string fingerprint_namespace() const { return name(); }

  // Baseline reimplementations of the §8.4 comparison tools are tagged so
  // default runs exclude them (they exist for the corpus benchmark).
  virtual bool is_baseline() const { return false; }

  // Non-empty when the checker cannot analyze this project at all (e.g. the
  // Smatch baseline on C++-heavy codebases). The driver records a
  // checker-stage quarantine with the returned reason and skips the checker.
  virtual std::string Unsupported(const Project& project, const ProjectTraits& traits) const {
    (void)project;
    (void)traits;
    return "";
  }

  // True when Check() reads only the context's own function and file — the
  // default contract. The incremental engine may then carry a function's
  // cached results across commits that did not touch its dependency slice.
  // Checkers that walk project-global state (the baseline tools iterate the
  // whole function index) return false, which forces the engine to re-run
  // every function on every commit instead of trusting the cache.
  virtual bool function_local() const { return true; }

  // Detects this checker's candidates in the context's function. Runs once
  // per (checker, function) pair under the driver's isolation boundary.
  virtual std::vector<UnusedDefCandidate> Check(CheckerContext& ctx) const = 0;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CHECKERS_CHECKER_H_
