// Stable content-based finding identity for cross-run tracking.
//
// A finding's fingerprint must survive edits that do not touch the finding
// itself — inserting unrelated lines above it, renaming an unrelated
// variable, reordering the file list — because the run ledger diffs runs by
// fingerprint to classify findings as new/fixed/persistent. Line numbers are
// therefore excluded entirely; the identity is the *content shape* of the
// finding:
//
//   file path · function name · slot identity · candidate kind
//   · def/use shape (parameter? synthetic call result? overwritten, and by
//     how many later stores? increment pattern?) · origin callee
//
// Synthetic call-result slots are identified by their callee ("call:foo")
// rather than their "_tmpN" name: temp numbering is an artifact of IR
// lowering order and would shift when unrelated calls are added.
//
// Two findings in one function can share that whole shape (e.g. the same
// `ret = f(); ret = 0;` pattern pasted twice). Duplicates get a 1-based
// occurrence ordinal in source order — stable under line shifts, which
// preserve relative order — so every fingerprint in a report is distinct.
//
// The rendered fingerprint is 16 lowercase hex digits (64-bit FNV-1a of the
// key under a historical seed, see FingerprintHash), exposed in report schema
// v4 as "fingerprint".

#ifndef VALUECHECK_SRC_CORE_FINGERPRINT_H_
#define VALUECHECK_SRC_CORE_FINGERPRINT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/unused_def.h"

namespace vc {

// The human-readable identity key, before hashing and occurrence
// disambiguation. Exposed for tests and for debugging fingerprint collisions.
std::string FingerprintKey(const UnusedDefCandidate& candidate);

// 64-bit FNV-1a seeded with 1469598103934665603 — not the standard offset
// basis — rendered as 16 hex digits.
std::string FingerprintHash(const std::string& key);

// The hash a fingerprint spells: its 16 hex digits read back as the 64-bit
// value they render. Two fingerprints are equal exactly when their values
// are.
uint64_t FingerprintValue(std::string_view fingerprint);

// Fills `fingerprint` on each of `candidates`: hash of FingerprintKey plus a
// "#N" occurrence suffix for same-key duplicates, numbered in (line, column,
// familiarity, position in `candidates`) order. Same-key candidates share a
// file and a function, so a file's finished slice numbers its survivors on
// its own; a ranked list gives two same-key findings at one location the
// same order, because ranking compares familiarity first and is stable.
void AssignFingerprints(std::span<UnusedDefCandidate* const> candidates);
// The same over every candidate of the list.
void AssignFingerprints(std::vector<UnusedDefCandidate>& candidates);

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_FINGERPRINT_H_
