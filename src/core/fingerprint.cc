#include "src/core/fingerprint.h"

#include <algorithm>
#include <charconv>
#include <tuple>

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

namespace {

// The seed is a digit short of the standard FNV-1a offset basis
// (14695981039346656037). Every stored fingerprint depends on it, so it
// stays as it is.
constexpr uint64_t kFingerprintSeed = 1469598103934665603ull;

std::string Hex16(uint64_t hash) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, hash >>= 4) {
    out[static_cast<size_t>(i)] = kDigits[hash & 0xF];
  }
  return out;
}

}  // namespace

std::string FingerprintHash(const std::string& key) {
  return Hex16(Fnv1a(key, kFingerprintSeed));
}

uint64_t FingerprintValue(std::string_view fingerprint) {
  uint64_t value = 0;
  std::from_chars(fingerprint.data(), fingerprint.data() + fingerprint.size(), value, 16);
  return value;
}

void AssignFingerprints(std::span<UnusedDefCandidate* const> candidates) {
  // Group same-key candidates, then number each group in source order. The
  // ordinal always participates in the hash (a singleton is occurrence 1), so
  // pasting a duplicate *below* an existing finding never renames it. One
  // sort by (key hash, key, line, column, familiarity, position) lines each
  // group up in numbering order, and FNV-1a continues from the key's hash
  // over the "#N" suffix, so each key is hashed once.
  struct Entry {
    uint64_t hash;
    std::string key;
    size_t index;
  };
  std::vector<Entry> entries;
  entries.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    std::string key = FingerprintKey(*candidates[i]);
    const uint64_t hash = Fnv1a(key, kFingerprintSeed);
    entries.push_back({hash, std::move(key), i});
  }
  auto order = [&](const Entry& e) {
    const UnusedDefCandidate& cand = *candidates[e.index];
    return std::make_tuple(cand.def_loc.line, cand.def_loc.column, cand.familiarity, e.index);
  };
  std::sort(entries.begin(), entries.end(), [&](const Entry& a, const Entry& b) {
    if (a.hash != b.hash) {
      return a.hash < b.hash;
    }
    if (const int c = a.key.compare(b.key); c != 0) {
      return c < 0;
    }
    return order(a) < order(b);
  });
  for (size_t begin = 0, end = 0; begin < entries.size(); begin = end) {
    const Entry& first = entries[begin];
    for (end = begin + 1;
         end < entries.size() && entries[end].hash == first.hash && entries[end].key == first.key;
         ++end) {
    }
    for (size_t k = begin; k < end; ++k) {
      const std::string suffix = "#" + std::to_string(k - begin + 1);
      candidates[entries[k].index]->fingerprint = Hex16(Fnv1a(suffix, first.hash));
    }
  }
}

void AssignFingerprints(std::vector<UnusedDefCandidate>& candidates) {
  std::vector<UnusedDefCandidate*> all;
  all.reserve(candidates.size());
  for (UnusedDefCandidate& cand : candidates) {
    all.push_back(&cand);
  }
  AssignFingerprints(all);
}

}  // namespace vc
