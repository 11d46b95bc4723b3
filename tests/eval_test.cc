// Unit tests for the evaluation plumbing: ground-truth ledger matching,
// location scoring, and the synthetic-file/commit assembly that the corpus
// generator builds on.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/corpus/eval.h"
#include "src/corpus/ground_truth.h"
#include "src/corpus/synthetic_file.h"

namespace vc {
namespace {

// --- GroundTruth ---------------------------------------------------------------

// Gives `report` the hand-built `findings`, in order: the survivors of one
// more slice its raw candidates hold.
void SetFindings(AnalysisReport& report, std::vector<UnusedDefCandidate> findings) {
  auto slice = std::make_shared<CandidateSlice>();
  slice->candidates = std::move(findings);
  for (const UnusedDefCandidate& cand : slice->candidates) {
    report.findings.positions().push_back(&cand);
  }
  report.raw_candidates.push_back(std::move(slice));
}

GtSite MakeSite(const std::string& file, int line, bool real, int alt = -1) {
  GtSite site;
  site.file = file;
  site.line = line;
  site.alt_line = alt;
  site.is_real_bug = real;
  return site;
}

TEST(GroundTruth, MatchByPrimaryAndAltLine) {
  GroundTruth truth;
  truth.Add(MakeSite("a.c", 10, true, 14));
  truth.Add(MakeSite("a.c", 20, false));
  EXPECT_NE(truth.Match("a.c", 10), nullptr);
  EXPECT_NE(truth.Match("a.c", 14), nullptr);
  EXPECT_EQ(truth.Match("a.c", 14)->line, 10);  // alt maps to the same site
  EXPECT_NE(truth.Match("a.c", 20), nullptr);
  EXPECT_EQ(truth.Match("a.c", 11), nullptr);
  EXPECT_EQ(truth.Match("b.c", 10), nullptr);
}

TEST(GroundTruth, IdsAreStableAndCountsWork) {
  GroundTruth truth;
  int id0 = truth.Add(MakeSite("a.c", 1, true));
  int id1 = truth.Add(MakeSite("a.c", 2, false));
  EXPECT_EQ(id0, 0);
  EXPECT_EQ(id1, 1);
  EXPECT_EQ(truth.CountRealBugs(), 1);
  GtSite cursor = MakeSite("a.c", 3, false);
  cursor.category = SiteCategory::kBenignCursor;
  truth.Add(cursor);
  EXPECT_EQ(truth.CountCategory(SiteCategory::kBenignCursor), 1);
}

TEST(GroundTruth, CategoryNamesAreUnique) {
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(SiteCategory::kRealStaleCopy); ++i) {
    names.insert(SiteCategoryName(static_cast<SiteCategory>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(SiteCategory::kRealStaleCopy) + 1);
}

// --- EvaluateLocations -----------------------------------------------------------

TEST(Eval, CountsRealAndFalsePositives) {
  GroundTruth truth;
  truth.Add(MakeSite("a.c", 10, true));
  truth.Add(MakeSite("a.c", 20, false));
  std::vector<std::pair<std::string, int>> locs = {{"a.c", 10}, {"a.c", 20}};
  ToolEval eval = EvaluateLocations(truth, "t", locs);
  EXPECT_EQ(eval.found, 2);
  EXPECT_EQ(eval.real, 1);
  EXPECT_EQ(eval.unmatched, 0);
  EXPECT_DOUBLE_EQ(eval.FpRate(), 0.5);
}

TEST(Eval, DeduplicatesReportsOnTheSameSite) {
  GroundTruth truth;
  truth.Add(MakeSite("a.c", 10, true, 12));
  // Three reports, all hitting the one site (primary twice + alt once).
  std::vector<std::pair<std::string, int>> locs = {{"a.c", 10}, {"a.c", 10}, {"a.c", 12}};
  ToolEval eval = EvaluateLocations(truth, "t", locs);
  EXPECT_EQ(eval.found, 1);
  EXPECT_EQ(eval.real, 1);
}

TEST(Eval, UnmatchedReportsCountAsFound) {
  GroundTruth truth;
  truth.Add(MakeSite("a.c", 10, true));
  std::vector<std::pair<std::string, int>> locs = {{"a.c", 10}, {"a.c", 99}};
  ToolEval eval = EvaluateLocations(truth, "t", locs);
  EXPECT_EQ(eval.found, 2);
  EXPECT_EQ(eval.unmatched, 1);
  EXPECT_EQ(eval.real, 1);
}

TEST(Eval, EmptyReportHasZeroFpRate) {
  GroundTruth truth;
  ToolEval eval = EvaluateLocations(truth, "t", {});
  EXPECT_EQ(eval.found, 0);
  EXPECT_DOUBLE_EQ(eval.FpRate(), 0.0);
}

TEST(Eval, CheckerQuarantinePropagatesAsError) {
  GroundTruth truth;
  truth.Add(MakeSite("a.c", 10, true));
  AnalysisReport report;
  UnusedDefCandidate cand;
  cand.file = "a.c";
  cand.def_loc.line = 10;
  cand.checker = "baseline-smatch";
  SetFindings(report, {cand});
  report.quarantined.push_back({"", "", "checker", "boom", "baseline-smatch"});
  ToolEval eval = EvaluateChecker(truth, "t", report, "baseline-smatch");
  EXPECT_FALSE(eval.ok);
  EXPECT_EQ(eval.error, "boom");
  EXPECT_EQ(eval.found, 0);
}

TEST(Eval, CheckerSliceScoresOnlyItsOwnFindings) {
  GroundTruth truth;
  truth.Add(MakeSite("a.c", 10, true));
  truth.Add(MakeSite("a.c", 20, false));
  AnalysisReport report;
  UnusedDefCandidate mine;
  mine.file = "a.c";
  mine.def_loc.line = 10;
  mine.checker = "double-overwrite";
  UnusedDefCandidate other;
  other.file = "a.c";
  other.def_loc.line = 20;
  other.checker = "unused-def";
  SetFindings(report, {mine, other});
  ToolEval eval = EvaluateChecker(truth, "t", report, "double-overwrite");
  EXPECT_TRUE(eval.ok);
  EXPECT_EQ(eval.found, 1);
  EXPECT_EQ(eval.real, 1);
}

// --- SyntheticFile -----------------------------------------------------------------

TEST(SyntheticFile, RoundsBecomeCommits) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");

  SyntheticFile file("m.c");
  int r0 = file.AddRound(alice, 100, "create");
  int r1 = file.AddRound(bob, 200, "extend");
  int l1 = file.AddLine(r0, "int alpha_line;");
  int l2 = file.AddLine(r1, "int beta_line;");
  int l3 = file.AddLine(r0, "int gamma_line;");
  EXPECT_EQ(l1, 1);
  EXPECT_EQ(l2, 2);
  EXPECT_EQ(l3, 3);
  file.CommitTo(repo);

  EXPECT_EQ(repo.NumCommits(), 2);
  // Round 0's version lacks the bob line.
  EXPECT_EQ(repo.FileAt("m.c", 0).value(), "int alpha_line;\nint gamma_line;\n");
  EXPECT_EQ(repo.Head("m.c").value(), "int alpha_line;\nint beta_line;\nint gamma_line;\n");
  // Blame matches the round plan exactly.
  const auto& blame = repo.Blame("m.c");
  ASSERT_EQ(blame.size(), 3u);
  EXPECT_EQ(blame[0].author, alice);
  EXPECT_EQ(blame[1].author, bob);
  EXPECT_EQ(blame[2].author, alice);
}

TEST(SyntheticFile, EmptyRoundsSkipped) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  SyntheticFile file("m.c");
  int r0 = file.AddRound(alice, 100, "create");
  file.AddRound(alice, 200, "noop");  // no lines
  file.AddLine(r0, "int x;");
  file.CommitTo(repo);
  EXPECT_EQ(repo.NumCommits(), 1);
}

TEST(SyntheticFile, LineNumbersAreHeadPositions) {
  SyntheticFile file("m.c");
  int r0 = file.AddRound(0, 1, "r0");
  for (int i = 1; i <= 5; ++i) {
    EXPECT_EQ(file.AddLine(r0, "line " + std::to_string(i)), i);
  }
  EXPECT_EQ(file.NumLines(), 5);
  EXPECT_EQ(file.NumRounds(), 1);
}

}  // namespace
}  // namespace vc
