// The unit of work flowing through ValueCheck's pipeline: one unused
// definition candidate, from detection (locations only), through authorship
// classification (cross-scope or not), pruning (reason recorded), to ranking
// (familiarity score attached). A run holds its candidates as one slice per
// file (CandidateSlice), each with its own tallies.

#ifndef VALUECHECK_SRC_CORE_UNUSED_DEF_H_
#define VALUECHECK_SRC_CORE_UNUSED_DEF_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/ir.h"
#include "src/support/fault.h"
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
  // Every field counts candidates, so the statistics of a candidate set are
  // the sum of its parts'.
  PruneStats& operator+=(const PruneStats& other);
};

// One file's raw candidates, in detect order, with the file's detect-stage
// quarantine records and its tallies. The detect stage fills it, the stages
// after detection finish it, and it is then published as
// std::shared_ptr<const CandidateSlice> and never written again: reports and
// the incremental engine's cache entries share it, so an analysis copies,
// scans and frees only the files it re-runs.
struct CandidateSlice {
  std::vector<UnusedDefCandidate> candidates;
  std::vector<QuarantinedUnit> quarantined;
  // Per function of the file's module, in module order: where its candidates
  // and its quarantine records end.
  struct FunctionEnd {
    uint32_t candidates = 0;
    uint32_t quarantined = 0;
  };
  std::vector<FunctionEnd> functions;

  // --- Detect tallies (CountDetect) ---
  std::vector<uint32_t> per_checker;  // candidates per checker_index
  std::vector<uint32_t> params;       // positions of parameter candidates

  // --- Set when the stages after detection finish the slice ---
  uint32_t kept = 0;     // candidates the cross-scope filter kept: the prune pool
  uint32_t dropped = 0;  // and those it dropped
  PruneStats prune;      // over the pool
  std::vector<uint32_t> survivors;  // positions of pool members no pattern pruned

  // Appends one function's detect output (its candidates and records, in
  // detect order) as the slice's next function. The function's own buffers
  // are freed on return, so a slice built function by function holds the
  // detect output about once.
  void AddFunction(std::vector<UnusedDefCandidate> found, std::vector<QuarantinedUnit> records);
  // Recounts the detect tallies from the candidates.
  void CountDetect();
};

// A run's raw candidates: one shared slice per live file, in unit order.
// Iteration flattens them into the detect-order candidate sequence.
class CandidateSlices {
 public:
  using Slice = std::shared_ptr<const CandidateSlice>;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = UnusedDefCandidate;
    using difference_type = std::ptrdiff_t;
    using pointer = const UnusedDefCandidate*;
    using reference = const UnusedDefCandidate&;

    const_iterator() = default;
    reference operator*() const { return (*slice_)->candidates[index_]; }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      if (++index_ == (*slice_)->candidates.size()) {
        ++slice_;
        index_ = 0;
        SkipEmpty();
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const const_iterator& other) const = default;

   private:
    friend class CandidateSlices;
    const_iterator(const Slice* slice, const Slice* end) : slice_(slice), end_(end) { SkipEmpty(); }
    void SkipEmpty() {
      while (slice_ != end_ && (*slice_)->candidates.empty()) {
        ++slice_;
      }
    }
    const Slice* slice_ = nullptr;
    const Slice* end_ = nullptr;
    size_t index_ = 0;
  };

  const_iterator begin() const { return {slices_.data(), slices_.data() + slices_.size()}; }
  const_iterator end() const {
    return {slices_.data() + slices_.size(), slices_.data() + slices_.size()};
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::vector<Slice>& slices() const { return slices_; }

  void push_back(Slice slice) {
    size_ += slice->candidates.size();
    slices_.push_back(std::move(slice));
  }

 private:
  std::vector<Slice> slices_;
  size_t size_ = 0;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_UNUSED_DEF_H_
