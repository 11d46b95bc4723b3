// Small string helpers shared by the lexer, pruning passes, and report
// writers, and the one FNV-1a byte hash. Everything operates on
// std::string_view and allocates only when returning owned strings.

#ifndef VALUECHECK_SRC_SUPPORT_STRING_UTIL_H_
#define VALUECHECK_SRC_SUPPORT_STRING_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace vc {

// Splits on a single-character separator; empty fields are preserved.
std::vector<std::string_view> Split(std::string_view text, char sep);

// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// True if `text` contains `word` delimited by non-identifier characters on
// both sides. Identifier characters are [A-Za-z0-9_]. Used by source-level
// pruning to find variable uses in raw lines (including disabled #if regions).
bool ContainsWord(std::string_view text, std::string_view word);

// Case-insensitive substring search (ASCII). The unused-hints pruning pattern
// matches the keyword "unused" regardless of case.
bool ContainsIgnoreCase(std::string_view text, std::string_view needle);

// True if the character can appear in a Mini-C identifier.
bool IsIdentChar(char c);

// ASCII lowercase copy (used for case-insensitive flag/keyword parsing).
std::string ToLower(std::string_view text);

// Hash for std::string-keyed unordered containers that are searched by
// std::string_view without a copy (pair it with std::equal_to<>).
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view text) const { return std::hash<std::string_view>()(text); }
};

// The standard 64-bit FNV-1a offset basis.
inline constexpr uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;

// 64-bit FNV-1a of `bytes`, starting from `seed`. Pass a previous result as
// the seed to fold several strings into one hash. Stable across runs and
// platforms: content hashes, fingerprints and fault decisions depend on it.
inline uint64_t Fnv1a(std::string_view bytes, uint64_t seed = kFnv1aOffsetBasis) {
  for (unsigned char c : bytes) {
    seed ^= c;
    seed *= 1099511628211ull;
  }
  return seed;
}

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_STRING_UTIL_H_
