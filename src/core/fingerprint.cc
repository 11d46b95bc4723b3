#include "src/core/fingerprint.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/support/string_util.h"

namespace vc {

namespace {

// Slot identity for the key. Synthetic call-result temps ("_tmp3") are named
// by lowering order, which unrelated edits shift; the callee is the stable
// part of their identity.
std::string SlotIdentity(const UnusedDefCandidate& candidate) {
  if (candidate.is_synthetic && !candidate.callee_name.empty()) {
    return "call:" + candidate.callee_name;
  }
  return candidate.slot_name;
}

}  // namespace

std::string FingerprintKey(const UnusedDefCandidate& candidate) {
  std::string key;
  key.reserve(128);
  // Per-checker namespace keeps checkers' findings in disjoint identity
  // spaces. Empty for unused-def: its fingerprints predate the checker
  // framework and must not change across the migration.
  if (!candidate.fingerprint_ns.empty()) {
    key += candidate.fingerprint_ns;
    key += "::";
  }
  key += candidate.file;
  key += '|';
  key += candidate.function;
  key += '|';
  key += SlotIdentity(candidate);
  key += '|';
  key += CandidateKindName(candidate.kind);
  key += '|';
  key += candidate.is_param ? 'p' : '-';
  key += candidate.is_synthetic ? 's' : '-';
  key += candidate.is_field_slot ? 'f' : '-';
  key += candidate.overwritten ? 'o' : '-';
  key += '|';
  // Def/use shape: how many later stores kill this definition, whether the
  // value flows from a call, and the cursor-increment pattern. These change
  // only when the finding itself changes.
  key += "kills=" + std::to_string(candidate.overwriter_locs.size());
  if (!candidate.callee_name.empty()) {
    key += "|from=" + candidate.callee_name;
  }
  if (candidate.is_increment) {
    key += "|inc=" + std::to_string(candidate.increment_amount);
  }
  return key;
}

std::string FingerprintHash(const std::string& key) {
  // The seed is a digit short of the standard FNV-1a offset basis
  // (14695981039346656037). Every stored fingerprint depends on it, so it
  // stays as it is.
  const uint64_t hash = Fnv1a(key, 1469598103934665603ull);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

void AssignFingerprints(std::vector<UnusedDefCandidate>& candidates) {
  // Group same-key findings, then number each group in source order. The
  // ordinal always participates in the hash (a singleton is occurrence 1), so
  // pasting a duplicate *below* an existing finding never renames it.
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t i = 0; i < candidates.size(); ++i) {
    groups[FingerprintKey(candidates[i])].push_back(i);
  }
  for (auto& [key, indices] : groups) {
    std::stable_sort(indices.begin(), indices.end(), [&](size_t a, size_t b) {
      const SourceLoc& la = candidates[a].def_loc;
      const SourceLoc& lb = candidates[b].def_loc;
      if (la.line != lb.line) {
        return la.line < lb.line;
      }
      return la.column < lb.column;
    });
    for (size_t rank = 0; rank < indices.size(); ++rank) {
      candidates[indices[rank]].fingerprint =
          FingerprintHash(key + "#" + std::to_string(rank + 1));
    }
  }
}

}  // namespace vc
