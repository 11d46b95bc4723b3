// Differential oracles over the vc::Analysis pipeline.
//
// Each oracle states an invariant the analyzer promises for *any* input
// program; the fuzzer generates programs and this runner checks every enabled
// invariant on each one:
//
//   clean_frontend    — generated programs parse with zero diagnostics errors
//   jobs_determinism  — findings/raw candidates/prune stats/diagnostics are
//                       byte-identical at --jobs 1, 2, 8
//   metrics_parity    — collect_metrics on vs. off does not change findings
//   json_round_trip   — ReportToJson output parses back through json_reader
//                       with every finding field intact
//   metamorphic       — the (checker, fingerprint) set is stable under every
//                       semantics-preserving transform in mutator.h
//   degraded_run      — under deterministic fault injection the pipeline
//                       still completes, reports degraded, and the surviving
//                       fingerprints are a subset of the clean run's; the
//                       quarantine list and findings are identical at every
//                       job count
//   incremental_equivalence — replaying the program as a commit-per-file
//                       history (two alternating authors, plus a final
//                       edit) through the incremental
//                       engine yields, at every commit, exactly the findings
//                       and raw candidates a full run over the truncated
//                       repository yields; the same states as snapshots
//                       equal sources-mode runs; and one Project mutated
//                       through the states keeps a function index equal to
//                       a fresh build's at each
//   alias_soundness   — in every function, each slot Andersen's points-to
//                       admits as a pointee lies in the address-taken set
//                       the detector's alias rule suppresses (otherwise an
//                       indirect read could reach a store reported dead)
//
// OracleOptions::parallel_fault is the harness's own test hook: a corruption
// applied to parallel (jobs > 1) reports before comparison, simulating a
// detector merge bug. It exists so the test suite can prove the oracle +
// minimizer actually catch and shrink an injected defect (vc_fuzz
// --inject-bug demos the same end to end).

#ifndef VALUECHECK_SRC_TESTING_ORACLE_H_
#define VALUECHECK_SRC_TESTING_ORACLE_H_

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/testing/mutator.h"
#include "src/testing/testgen.h"

namespace vc {
namespace testing {

enum class OracleKind {
  kCleanFrontend,
  kJobsDeterminism,
  kMetricsParity,
  kJsonRoundTrip,
  kMetamorphic,
  kDegradedRun,
  kIncrementalEquivalence,
  kAliasSoundness,
};

const char* OracleKindName(OracleKind kind);
std::optional<OracleKind> OracleKindFromName(const std::string& name);
std::vector<OracleKind> AllOracles();

struct OracleFailure {
  OracleKind oracle = OracleKind::kCleanFrontend;
  std::string transform;  // metamorphic failures name the transform
  std::string detail;
};

struct OracleVerdict {
  std::vector<OracleFailure> failures;

  bool Passed() const { return failures.empty(); }
  bool Failed(OracleKind kind) const;
};

struct OracleOptions {
  // Checkers the analyzed runs enable (AnalysisOptions::checkers); empty
  // means the registry's default set. Every oracle then covers the whole
  // multi-checker surface: fingerprints are compared checker-qualified.
  std::vector<std::string> checkers;
  // Job counts the determinism oracle compares; the first entry is the
  // serial baseline the others must match byte for byte.
  std::vector<int> jobs = {1, 2, 8};
  // Empty = run every oracle.
  std::set<OracleKind> enabled;
  // Seed for the metamorphic transforms (so a whole campaign iteration is
  // reproducible from one number).
  uint64_t mutation_seed = 0;
  // Per-site fault probability the degraded_run oracle injects. High enough
  // that most programs quarantine something, low enough that some units
  // survive to exercise the subset check.
  double fault_rate = 0.2;
  // Test hook; see file comment.
  std::function<void(AnalysisReport&)> parallel_fault;
};

class OracleRunner {
 public:
  OracleRunner() = default;
  explicit OracleRunner(OracleOptions options);

  const OracleOptions& options() const { return options_; }

  OracleVerdict Check(const TestProgram& program) const;

  // Runs the pipeline on the program with the harness's fixed analysis
  // configuration (cross_scope_only off — source-mode analysis has no
  // authorship), applying the parallel fault hook when jobs > 1.
  AnalysisReport Analyze(const TestProgram& program, int jobs, bool collect_metrics) const;

  // Deterministic serialization of everything the determinism contract
  // covers: findings (with fingerprints), raw candidates (with kind,
  // cross-scope bit, both authors and prune reason), prune statistics, the
  // non-cross-scope count, diagnostics counts. Timings and pool stats are
  // deliberately excluded.
  static std::string SerializeFindings(const AnalysisReport& report);

  // Deterministic one-line-per-unit rendering of the quarantine list.
  static std::string SerializeQuarantine(const AnalysisReport& report);

  // The checker-qualified fingerprint set ("checker:fingerprint") the
  // metamorphic oracle compares (ordinal suffixes make duplicates distinct,
  // so a set is lossless).
  static std::set<std::string> FingerprintSet(const AnalysisReport& report);

 private:
  bool Enabled(OracleKind kind) const {
    return options_.enabled.empty() || options_.enabled.count(kind) > 0;
  }

  OracleOptions options_;
};

// Canned parallel fault: parallel runs lose every overwritten-definition
// finding — the shape of a real slot-merge bug. Used by --inject-bug and the
// harness self-tests.
std::function<void(AnalysisReport&)> DropOverwrittenFindingsFault();

// The slots of `func` that Andersen's points-to admits as pointees but the
// address-taken set (ComputeAddressTaken, the detector's alias rule) leaves
// out, in slot order. Empty when the solve hit its iteration ceiling: that
// top state admits every slot and so claims nothing.
std::vector<SlotId> PointeesOutsideAddressTaken(const IrFunction& func);

// Canonical text of a project's function index: per name, in name order, the
// definition's path, line and column and its IR function's name, then each
// call site's path, line, column, caller and whether its result is assigned.
// An incrementally updated project and a fresh build over the same live
// files dump the same text exactly when their indexes agree.
std::string DumpFunctionIndex(const Project& project);

}  // namespace testing
}  // namespace vc

#endif  // VALUECHECK_SRC_TESTING_ORACLE_H_
