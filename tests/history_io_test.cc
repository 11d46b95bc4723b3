// Tests for the vchist history serialization: parsing, error reporting, and
// save/load round-trips (including through the full pipeline).

#include <gtest/gtest.h>

#include "src/core/analysis.h"
#include "src/vcs/history_io.h"

namespace vc {
namespace {

TEST(HistoryIo, ParsesMinimalHistory) {
  std::string text =
      "# a comment\n"
      "commit\n"
      "author alice\n"
      "time 1000\n"
      "message first\n"
      "write a.c\n"
      "<<<\n"
      "int f(int x) {\n"
      "  return x;\n"
      "}\n"
      ">>>\n"
      "end\n";
  std::string error;
  std::optional<Repository> repo = LoadHistory(text, &error);
  ASSERT_TRUE(repo.has_value()) << error;
  EXPECT_EQ(repo->NumCommits(), 1);
  EXPECT_EQ(repo->NumAuthors(), 1);
  EXPECT_EQ(repo->Head("a.c").value(), "int f(int x) {\n  return x;\n}\n");
  const Commit& commit = repo->GetCommit(0);
  EXPECT_EQ(commit.timestamp, 1000);
  EXPECT_EQ(commit.message, "first");
}

TEST(HistoryIo, AuthorsInternedAcrossCommits) {
  std::string text =
      "commit\nauthor dev\ntime 1\nmessage a\nwrite x.c\n<<<\n1\n>>>\nend\n"
      "commit\nauthor dev\ntime 2\nmessage b\nwrite x.c\n<<<\n1\n2\n>>>\nend\n"
      "commit\nauthor other\ntime 3\nmessage c\ndelete x.c\nend\n";
  std::string error;
  std::optional<Repository> repo = LoadHistory(text, &error);
  ASSERT_TRUE(repo.has_value()) << error;
  EXPECT_EQ(repo->NumAuthors(), 2);
  EXPECT_EQ(repo->NumCommits(), 3);
  EXPECT_FALSE(repo->Head("x.c").has_value());  // deleted
}

TEST(HistoryIo, ErrorsCarryLineNumbers) {
  std::string error;
  EXPECT_FALSE(LoadHistory("bogus\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);

  EXPECT_FALSE(LoadHistory("commit\nauthor a\nwrite f.c\nno-marker\n", &error).has_value());
  EXPECT_NE(error.find("'<<<'"), std::string::npos);

  EXPECT_FALSE(
      LoadHistory("commit\nauthor a\nwrite f.c\n<<<\nnever closed\n", &error).has_value());
  EXPECT_NE(error.find("unterminated"), std::string::npos);

  EXPECT_FALSE(LoadHistory("commit\nauthor a\ntime 1\nmessage m\n", &error).has_value());
  EXPECT_NE(error.find("missing 'end'"), std::string::npos);

  EXPECT_FALSE(LoadHistory("commit\ntime 1\nend\n", &error).has_value());
  EXPECT_NE(error.find("missing 'author'"), std::string::npos);
}

TEST(HistoryIo, RejectsNonIntegerTime) {
  std::string error;
  EXPECT_FALSE(LoadHistory("commit\nauthor a\ntime soon\nend\n", &error).has_value());
  EXPECT_NE(error.find("line 3: time 'soon' is not an integer"), std::string::npos) << error;

  EXPECT_FALSE(LoadHistory("commit\nauthor a\nend\ncommit\nauthor a\ntime 12x\nend\n", &error)
                   .has_value());
  EXPECT_NE(error.find("line 6: time '12x' is not an integer"), std::string::npos) << error;

  EXPECT_FALSE(LoadHistory("commit\nauthor a\ntime 99999999999999999999\nend\n", &error)
                   .has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;

  std::optional<Repository> repo = LoadHistory("commit\nauthor a\ntime -42\nend\n", &error);
  ASSERT_TRUE(repo.has_value()) << error;
  EXPECT_EQ(repo->GetCommit(0).timestamp, -42);
}

TEST(HistoryIo, RejectsPathNamedTwiceInOneCommit) {
  const std::string write_a = "write a.c\n<<<\nint x;\n>>>\n";
  std::string error;
  EXPECT_FALSE(
      LoadHistory("commit\nauthor a\n" + write_a + "delete a.c\nend\n", &error).has_value());
  EXPECT_NE(error.find("line 7: 'a.c' named twice in one commit"), std::string::npos) << error;

  EXPECT_FALSE(LoadHistory("commit\nauthor a\n" + write_a + write_a + "end\n", &error).has_value());
  EXPECT_NE(error.find("line 7: 'a.c' named twice"), std::string::npos) << error;

  EXPECT_FALSE(
      LoadHistory("commit\nauthor a\ndelete a.c\ndelete a.c\nend\n", &error).has_value());
  EXPECT_NE(error.find("line 4: 'a.c' named twice"), std::string::npos) << error;

  // Once per commit is fine, across any number of commits.
  std::optional<Repository> repo = LoadHistory(
      "commit\nauthor a\n" + write_a + "end\ncommit\nauthor b\ndelete a.c\nend\n", &error);
  ASSERT_TRUE(repo.has_value()) << error;
  EXPECT_EQ(repo->LogOf("a.c").size(), 2u);
}

TEST(HistoryIo, EmptyInputIsEmptyRepo) {
  std::string error;
  std::optional<Repository> repo = LoadHistory("", &error);
  ASSERT_TRUE(repo.has_value());
  EXPECT_EQ(repo->NumCommits(), 0);
}

TEST(HistoryIo, SaveLoadRoundTrip) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  repo.AddCommit(alice, 100, "create module", {{"a.c", "line1\nline2\n"}});
  repo.AddCommit(bob, 200, "edit and add", {{"a.c", "line1\nnew\n"}, {"b.c", "other\n"}});
  repo.AddCommit(alice, 300, "remove b", {}, {"b.c"});

  std::string error;
  std::optional<Repository> loaded = LoadHistory(SaveHistory(repo), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->NumCommits(), repo.NumCommits());
  EXPECT_EQ(loaded->Head("a.c"), repo.Head("a.c"));
  EXPECT_EQ(loaded->Head("b.c").has_value(), false);
  // Blame survives the round trip.
  const auto& blame = loaded->Blame("a.c");
  ASSERT_EQ(blame.size(), 2u);
  EXPECT_EQ(loaded->GetAuthor(blame[0].author).name, "alice");
  EXPECT_EQ(loaded->GetAuthor(blame[1].author).name, "bob");
}

TEST(HistoryIo, PipelineOverLoadedHistoryFindsCrossScopeBug) {
  std::string text =
      "commit\n"
      "author alice\n"
      "time 1\n"
      "message add work\n"
      "write w.c\n"
      "<<<\n"
      "int helper(int x) {\n"
      "  return x + 1;\n"
      "}\n"
      "int work(int x) {\n"
      "  int ret = helper(x);\n"
      "  return ret;\n"
      "}\n"
      ">>>\n"
      "end\n"
      "commit\n"
      "author bob\n"
      "time 2\n"
      "message tweak work\n"
      "write w.c\n"
      "<<<\n"
      "int helper(int x) {\n"
      "  return x + 1;\n"
      "}\n"
      "int work(int x) {\n"
      "  int ret = helper(x);\n"
      "  ret = helper(x + 2);\n"
      "  return ret;\n"
      "}\n"
      ">>>\n"
      "end\n";
  std::string error;
  std::optional<Repository> repo = LoadHistory(text, &error);
  ASSERT_TRUE(repo.has_value()) << error;
  AnalysisReport report = Analysis().RunOnRepository(*repo);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, CandidateKind::kOverwrittenDef);
  EXPECT_EQ(repo->GetAuthor(report.findings[0].responsible_author).name, "bob");
}

}  // namespace
}  // namespace vc
