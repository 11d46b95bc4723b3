// Fingerprint stability: the content-based finding identity must survive the
// edits that shift line numbers or reorder inputs without touching the finding
// itself. These are the invariants the run ledger's new/fixed classification
// rests on — if any of them breaks, every unrelated edit shows up in
// `valuecheck diff` as one "fixed" plus one "new" finding.

#include "src/core/fingerprint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/core/analysis.h"

namespace vc {
namespace {

// Analyze in-memory sources with the same fallback the CLI uses when no
// history is given: all scopes, unranked.
std::vector<UnusedDefCandidate> Findings(
    const std::vector<std::pair<std::string, std::string>>& files) {
  AnalysisOptions options;
  options.cross_scope_only = false;
  options.ranking.enabled = false;
  const AnalysisReport report = Analysis(options).RunOnSources(files);
  return {report.findings.begin(), report.findings.end()};
}

const UnusedDefCandidate* FindBySlot(const std::vector<UnusedDefCandidate>& findings,
                                     const std::string& slot) {
  for (const UnusedDefCandidate& cand : findings) {
    if (cand.slot_name == slot) {
      return &cand;
    }
  }
  return nullptr;
}

constexpr const char* kBuggy =
    "int get_status(int entry) {\n"
    "  return entry + 1;\n"
    "}\n"
    "int handle(int entry, int mode) {\n"
    "  int ret = get_status(entry);\n"
    "  ret = mode * 2;\n"
    "  return ret;\n"
    "}\n";

bool IsHex16(const std::string& s) {
  return s.size() == 16 &&
         std::all_of(s.begin(), s.end(), [](char c) {
           return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
         });
}

TEST(Fingerprint, HashIsSixteenLowercaseHexDigits) {
  EXPECT_TRUE(IsHex16(FingerprintHash("some key")));
  EXPECT_NE(FingerprintHash("a"), FingerprintHash("b"));
  // FNV-1a is deterministic: same key, same hash, across runs and platforms.
  EXPECT_EQ(FingerprintHash("x"), FingerprintHash("x"));
}

TEST(Fingerprint, EveryFindingGetsAWellFormedFingerprint) {
  std::vector<UnusedDefCandidate> findings = Findings({{"a.c", kBuggy}});
  ASSERT_FALSE(findings.empty());
  for (const UnusedDefCandidate& cand : findings) {
    EXPECT_TRUE(IsHex16(cand.fingerprint)) << cand.fingerprint;
  }
}

TEST(Fingerprint, KeyCarriesNoLineNumbers) {
  std::vector<UnusedDefCandidate> findings = Findings({{"a.c", kBuggy}});
  ASSERT_FALSE(findings.empty());
  const UnusedDefCandidate& cand = findings.front();
  ASSERT_GT(cand.def_loc.line, 0);
  std::string key = FingerprintKey(cand);
  EXPECT_EQ(key.find(std::to_string(cand.def_loc.line)), std::string::npos)
      << "line number leaked into key: " << key;
}

TEST(Fingerprint, StableUnderUnrelatedLinesInsertedAbove) {
  std::vector<UnusedDefCandidate> base = Findings({{"a.c", kBuggy}});
  // Push the finding 5 lines down with an unrelated helper above it.
  std::string shifted =
      "int helper_a(int x) {\n"
      "  return x * 3;\n"
      "}\n"
      "int helper_b(int x) {\n"
      "  return helper_a(x) - 1;\n"
      "}\n" +
      std::string(kBuggy);
  std::vector<UnusedDefCandidate> moved = Findings({{"a.c", shifted}});

  const UnusedDefCandidate* before = FindBySlot(base, "ret");
  const UnusedDefCandidate* after = FindBySlot(moved, "ret");
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  ASSERT_NE(before->def_loc.line, after->def_loc.line) << "edit did not shift lines";
  EXPECT_EQ(before->fingerprint, after->fingerprint);
}

TEST(Fingerprint, StableUnderUnrelatedVariableRename) {
  std::string renamed =
      "int get_status(int entry) {\n"
      "  return entry + 1;\n"
      "}\n"
      "int handle(int entry, int selected_mode) {\n"  // mode -> selected_mode
      "  int ret = get_status(entry);\n"
      "  ret = selected_mode * 2;\n"
      "  return ret;\n"
      "}\n";
  std::vector<UnusedDefCandidate> base = Findings({{"a.c", kBuggy}});
  std::vector<UnusedDefCandidate> edited = Findings({{"a.c", renamed}});
  const UnusedDefCandidate* before = FindBySlot(base, "ret");
  const UnusedDefCandidate* after = FindBySlot(edited, "ret");
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(before->fingerprint, after->fingerprint);
}

TEST(Fingerprint, StableUnderInputFileReordering) {
  std::string other =
      "int probe(int x) {\n"
      "  return x + 7;\n"
      "}\n"
      "int drive(int x, int y) {\n"
      "  int got = probe(x);\n"
      "  got = y;\n"
      "  return got;\n"
      "}\n";
  std::vector<UnusedDefCandidate> ab = Findings({{"a.c", kBuggy}, {"b.c", other}});
  std::vector<UnusedDefCandidate> ba = Findings({{"b.c", other}, {"a.c", kBuggy}});

  std::set<std::string> prints_ab;
  std::set<std::string> prints_ba;
  for (const UnusedDefCandidate& cand : ab) {
    prints_ab.insert(cand.fingerprint);
  }
  for (const UnusedDefCandidate& cand : ba) {
    prints_ba.insert(cand.fingerprint);
  }
  ASSERT_GE(prints_ab.size(), 2u);
  EXPECT_EQ(prints_ab, prints_ba);
}

TEST(Fingerprint, RenamingTheVariableItselfChangesIdentity) {
  // Control: the fingerprint is content-based, so renaming the *finding's own*
  // variable is a different finding.
  std::string renamed =
      "int get_status(int entry) {\n"
      "  return entry + 1;\n"
      "}\n"
      "int handle(int entry, int mode) {\n"
      "  int status = get_status(entry);\n"
      "  status = mode * 2;\n"
      "  return status;\n"
      "}\n";
  std::vector<UnusedDefCandidate> base = Findings({{"a.c", kBuggy}});
  std::vector<UnusedDefCandidate> edited = Findings({{"a.c", renamed}});
  const UnusedDefCandidate* before = FindBySlot(base, "ret");
  const UnusedDefCandidate* after = FindBySlot(edited, "status");
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  EXPECT_NE(before->fingerprint, after->fingerprint);
}

// --- Duplicate disambiguation: exercised directly on candidates so the
// occurrence-ordinal logic is pinned down independent of detector shapes. ---

UnusedDefCandidate MakeCandidate(int line) {
  UnusedDefCandidate cand;
  cand.function = "handle";
  cand.slot_name = "ret";
  cand.file = "a.c";
  cand.def_loc.file = 0;
  cand.def_loc.line = line;
  cand.def_loc.column = 3;
  cand.overwritten = true;
  cand.overwriter_locs.push_back({0, line + 1, 3});
  cand.kind = CandidateKind::kOverwrittenDef;
  return cand;
}

TEST(Fingerprint, DuplicatesInSameFunctionGetDistinctFingerprints) {
  std::vector<UnusedDefCandidate> cands = {MakeCandidate(5), MakeCandidate(9)};
  ASSERT_EQ(FingerprintKey(cands[0]), FingerprintKey(cands[1]))
      << "fixture should produce identical keys";
  AssignFingerprints(cands);
  EXPECT_TRUE(IsHex16(cands[0].fingerprint));
  EXPECT_TRUE(IsHex16(cands[1].fingerprint));
  EXPECT_NE(cands[0].fingerprint, cands[1].fingerprint);
}

TEST(Fingerprint, OccurrenceOrdinalFollowsSourceOrderNotListOrder) {
  std::vector<UnusedDefCandidate> forward = {MakeCandidate(5), MakeCandidate(9)};
  std::vector<UnusedDefCandidate> reversed = {MakeCandidate(9), MakeCandidate(5)};
  AssignFingerprints(forward);
  AssignFingerprints(reversed);
  // Same source positions -> same fingerprints, regardless of list order.
  EXPECT_EQ(forward[0].fingerprint, reversed[1].fingerprint);
  EXPECT_EQ(forward[1].fingerprint, reversed[0].fingerprint);
}

TEST(Fingerprint, AppendingADuplicateBelowKeepsTheFirstFingerprint) {
  // A singleton is hashed as occurrence #1, so pasting a duplicate *below* it
  // later must not rename the existing finding.
  std::vector<UnusedDefCandidate> alone = {MakeCandidate(5)};
  AssignFingerprints(alone);
  std::vector<UnusedDefCandidate> with_dup = {MakeCandidate(5), MakeCandidate(20)};
  AssignFingerprints(with_dup);
  EXPECT_EQ(alone[0].fingerprint, with_dup[0].fingerprint);
  EXPECT_NE(with_dup[0].fingerprint, with_dup[1].fingerprint);
}

TEST(Fingerprint, DuplicateOrdinalSurvivesLineShifts) {
  // Both occurrences move down; relative order is what matters.
  std::vector<UnusedDefCandidate> before = {MakeCandidate(5), MakeCandidate(9)};
  std::vector<UnusedDefCandidate> after = {MakeCandidate(12), MakeCandidate(31)};
  AssignFingerprints(before);
  AssignFingerprints(after);
  EXPECT_EQ(before[0].fingerprint, after[0].fingerprint);
  EXPECT_EQ(before[1].fingerprint, after[1].fingerprint);
}

}  // namespace
}  // namespace vc
