// The unit of work flowing through ValueCheck's pipeline: one unused
// definition candidate, from detection (locations only), through authorship
// classification (cross-scope or not), pruning (reason recorded), to ranking
// (familiarity score attached).

#ifndef VALUECHECK_SRC_CORE_UNUSED_DEF_H_
#define VALUECHECK_SRC_CORE_UNUSED_DEF_H_

#include <string>
#include <vector>

#include "src/ir/ir.h"
#include "src/support/source_location.h"
#include "src/vcs/repository.h"

namespace vc {

// The cross-scope scenarios of §3.1 plus the non-cross-scope leftover.
enum class CandidateKind {
  kOverwrittenDef,    // scenario 3: definition overwritten by other authors
  kUnusedRetVal,      // scenario 1: ignored/overwritten function return value
  kUnusedParam,       // scenario 2: argument value never used in the callee
  kOverwrittenParam,  // scenario 2 variant: argument overwritten in the callee
  kPlainUnused,       // unused, but not one of the cross-scope shapes
  // Kinds owned by the non-unused-def checkers (src/checkers/). Appended so
  // the original five keep their serialized names and ordinals.
  kDoubleOverwrite,   // store killed by a second store, no read between
  kDeadGlobalStore,   // global store locally killed before any read or call
  kOutParamUnused,    // out-parameter filled by a call, never read after
  kStaleCopy,         // copy read after its source was modified
};

const char* CandidateKindName(CandidateKind kind);

enum class PruneReason {
  kNone,
  kConfigDependency,
  kCursor,
  kUnusedHint,
  kPeerDefinition,
  // Extension (paper §9.1 future work): legacy/debugging code identified
  // from commit history. Off by default.
  kStaleCode,
};

const char* PruneReasonName(PruneReason reason);

struct UnusedDefCandidate {
  // --- Filled by the detector ---
  std::string function;   // containing function name
  std::string slot_name;  // "v", "v#2", "_tmp0"
  std::string file;       // path of the containing file
  SourceLoc def_loc;      // the unused store (or the parameter declaration)
  const IrFunction* ir_func = nullptr;
  SlotId slot = kInvalidSlot;
  const VarDecl* var = nullptr;  // null for synthetic temps

  bool is_param = false;      // unused parameter (checked at function entry)
  bool is_synthetic = false;  // ignored call result
  bool is_field_slot = false;
  bool overwritten = false;   // a later definition kills this one on all paths
  std::vector<SourceLoc> overwriter_locs;

  // Set when the stored value came straight from a call: the callee's
  // project-wide name (its definition may live in another file). A copy, not
  // a pointer, because reports outlive the AST.
  std::string callee_name;

  // Cursor-shape info for pruning.
  bool is_increment = false;
  long long increment_amount = 0;

  // --- Filled by the authorship phase ---
  bool cross_scope = false;
  CandidateKind kind = CandidateKind::kPlainUnused;
  AuthorId def_author = kInvalidAuthor;
  // The developer on the ignoring/overwriting side of the boundary — whose
  // familiarity the ranking stage scores (§6).
  AuthorId responsible_author = kInvalidAuthor;

  // --- Filled by pruning ---
  PruneReason pruned_by = PruneReason::kNone;

  // --- Filled by ranking ---
  double familiarity = 0.0;

  // --- Filled by the checker driver (src/checkers/driver.cc) ---
  // Which checker produced this candidate. The unused-definition detector —
  // the paper's tool — is "unused-def"; its fingerprint namespace is empty so
  // pre-framework fingerprints survive the migration byte-identical.
  std::string checker = "unused-def";
  // Position of `checker` in the run's runnable checker list, which the
  // per-checker tallies count by.
  int checker_index = 0;
  std::string fingerprint_ns;  // prefixes the fingerprint content key
  bool from_baseline = false;  // produced by a §8.4 baseline checker
  // Free-text detail for checkers whose findings don't fit the kind taxonomy
  // (the baseline tools' original description strings live here).
  std::string note;

  // --- Filled at report assembly (src/core/fingerprint.h) ---
  // Stable content-based identity, line-shift-robust; what the run ledger
  // diffs on. 16 hex chars; empty until AssignFingerprints runs.
  std::string fingerprint;

  // Cache-restored candidates (incremental engine disk tier) carry only the
  // name, and downstream stages resolve the callee through the live function
  // index by name anyway.
  bool FromCall() const { return !callee_name.empty() || is_synthetic; }
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_UNUSED_DEF_H_
