// Incremental (per-commit) engine tests: each analyzed commit yields the
// COMPLETE finding set as of that commit (equal to a full run over the
// repository truncated there), re-parsing only touched files and re-running
// checkers only on the functions of files whose content changed. The exhaustive differential
// battery lives in incremental_equivalence_test.cc; these cover the engine's
// API semantics and work accounting.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/core/analysis.h"
#include "src/core/incremental.h"

namespace vc {
namespace {

TEST(Incremental, CompleteReportMatchesFullRunAtCommit) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  std::string v1 =
      "int helper(int x) {\n"
      "  return x + 1;\n"
      "}\n"
      "int work(int x) {\n"
      "  int ret = helper(x);\n"
      "  return ret;\n"
      "}\n"
      "int other(int y) {\n"
      "  int t = y * 2;\n"
      "  return t;\n"
      "}\n";
  repo.AddCommit(alice, 1, "create", {{"a.c", v1}});
  std::string v2 = v1;
  v2.replace(v2.find("  return ret;"), 13, "  ret = helper(x + 2);\n  return ret;");
  CommitId c2 = repo.AddCommit(bob, 2, "tweak work", {{"a.c", v2}});

  IncrementalEngine engine{AnalysisOptions{}};
  IncrementalResult at_c1 = engine.AnalyzeCommit(repo, 0);
  EXPECT_TRUE(at_c1.findings().empty());
  IncrementalResult result = engine.AnalyzeCommit(repo, c2);

  ASSERT_EQ(result.findings().size(), 1u);
  EXPECT_EQ(result.findings()[0].function, "work");
  EXPECT_TRUE(result.findings()[0].cross_scope);
  EXPECT_GT(result.seconds, 0.0);

  AnalysisReport full = Analysis().RunOnRepository(repo.PrefixCopy(c2));
  EXPECT_EQ(result.report.ToCsv(), full.ToCsv());
  ASSERT_EQ(result.findings().size(), full.findings.size());
  EXPECT_EQ(result.findings()[0].fingerprint, full.findings[0].fingerprint);
}

TEST(Incremental, UsesBlameAtTheCommitNotHead) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  std::string v1 =
      "int helper(int x) {\n"
      "  return x + 1;\n"
      "}\n"
      "int work(int x) {\n"
      "  int ret = helper(x);\n"
      "  return ret;\n"
      "}\n";
  repo.AddCommit(alice, 1, "create", {{"a.c", v1}});
  std::string v2 = v1;
  v2.replace(v2.find("  return ret;"), 13, "  ret = helper(x + 2);\n  return ret;");
  CommitId c2 = repo.AddCommit(bob, 2, "tweak", {{"a.c", v2}});
  // A later commit rewrites everything under a new author; analyzing c2 must
  // still see alice/bob authorship (the engine's replica stops at c2).
  repo.AddCommit(repo.AddAuthor("carol"), 3, "rewrite",
                 {{"a.c", "int unrelated(int q) {\n  return q;\n}\n"}});

  IncrementalResult result = Analysis().RunOnCommit(repo, c2);
  ASSERT_EQ(result.findings().size(), 1u);
  EXPECT_EQ(result.findings()[0].def_author, repo.FindAuthor("alice"));
  EXPECT_EQ(result.findings()[0].responsible_author, repo.FindAuthor("bob"));
}

TEST(Incremental, CleanCommitKeepsFindingsEmpty) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  std::string v1 = "int f(int x) {\n  return x + 1;\n}\n";
  repo.AddCommit(alice, 1, "create", {{"a.c", v1}});
  std::string v2 = v1 + "int g(int y) {\n  return y * 2;\n}\n";
  CommitId c2 = repo.AddCommit(alice, 2, "add g", {{"a.c", v2}});

  IncrementalResult result = Analysis().RunOnCommit(repo, c2);
  EXPECT_TRUE(result.findings().empty());
  EXPECT_EQ(result.functions_total, 2);
}

TEST(Incremental, MultiFileCommitReportsWholeProject) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  std::string a1 = "int fa(int x) {\n  return x;\n}\n";
  std::string b1 = "int fb(int x) {\n  return x;\n}\n";
  repo.AddCommit(alice, 1, "create", {{"a.c", a1}, {"b.c", b1}});
  std::string a2 = a1 + "int ga(int y) {\n  ext_log(y);\n  return y;\n}\n";
  std::string b2 = b1 + "int gb(int y) {\n  int t = y;\n  return t;\n}\n";
  CommitId c2 = repo.AddCommit(bob, 2, "extend both", {{"a.c", a2}, {"b.c", b2}});

  IncrementalResult result = Analysis().RunOnCommit(repo, c2);
  EXPECT_EQ(result.files_changed, 2);
  EXPECT_EQ(result.files_reparsed, 2);
  EXPECT_EQ(result.functions_total, 4);
  // ga ignores a library return value: one cross-scope finding, and the
  // report covers the whole project, not just the commit's files.
  ASSERT_EQ(result.findings().size(), 1u);
  EXPECT_EQ(result.findings()[0].function, "ga");
}

TEST(Incremental, DirtySliceScopedToTheChangedFile) {
  // 40 files, none calling across files: a one-file commit re-parses that
  // file alone and re-runs checkers only on its functions.
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  std::map<std::string, std::string> files;
  for (int i = 0; i < 40; ++i) {
    std::string body;
    for (int j = 0; j < 40; ++j) {
      std::string t = std::to_string(i) + "_" + std::to_string(j);
      body += "int fn_" + t + "(int a, int b) {\n  int s_" + t + " = a + b;\n  return s_" + t +
              ";\n}\n";
    }
    files["f" + std::to_string(i) + ".c"] = body;
  }
  repo.AddCommit(alice, 1, "create all", files);
  std::string patched = files["f0.c"] + "int extra(int z) {\n  return z;\n}\n";
  CommitId c2 = repo.AddCommit(alice, 2, "small change", {{"f0.c", patched}});

  IncrementalEngine engine{AnalysisOptions{}};
  IncrementalResult warm = engine.AnalyzeCommit(repo, 0);
  EXPECT_EQ(warm.functions_dirty, warm.functions_total);  // cold start runs all

  IncrementalResult inc = engine.AnalyzeCommit(repo, c2);
  EXPECT_EQ(inc.files_changed, 1);
  EXPECT_EQ(inc.files_reparsed, 1);
  EXPECT_EQ(inc.functions_total, 40 * 40 + 1);
  EXPECT_EQ(inc.functions_dirty, 41);  // f0.c's functions only
  EXPECT_EQ(inc.cache.detect_carried, static_cast<uint64_t>(40 * 40 - 40));
  EXPECT_GT(inc.cache.DetectHitRate(), 0.0);
}

TEST(Incremental, CarriesCallersOfAnEditedFile) {
  // b.c calls fa, c.c calls through a function pointer, d.c takes a
  // function's address. Each file lowers on its own, so editing fa's body
  // re-runs a.c alone: its callers, the indirect caller and the
  // address-taken function all carry.
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  const std::string a1 =
      "int fa(int x) {\n"
      "  int t = x + 1;\n"
      "  return t;\n"
      "}\n"
      "int fa_twice(int y) {\n"
      "  int u = y * 2;\n"
      "  return u;\n"
      "}\n";
  std::map<std::string, std::string> files = {
      {"a.c", a1},
      {"b.c",
       "int fb(int x) {\n"
       "  int r = fa(x);\n"
       "  r = fa(x + 1);\n"
       "  return r;\n"
       "}\n"},
      {"c.c",
       "int fc(void *op, int x) {\n"
       "  int r = op(x);\n"
       "  r = op(x + 1);\n"
       "  return r;\n"
       "}\n"},
      {"d.c",
       "int fd_target(int x) {\n"
       "  int v = x - 1;\n"
       "  v = x - 2;\n"
       "  return v;\n"
       "}\n"
       "int fd_register(int c) {\n"
       "  void *fp = fd_target;\n"
       "  reg_hook(fp);\n"
       "  return c;\n"
       "}\n"},
  };
  repo.AddCommit(alice, 1, "create", files);
  std::string a2 = a1;
  a2.replace(a2.find("x + 1"), 5, "x + 7");
  CommitId c2 = repo.AddCommit(bob, 2, "edit fa", {{"a.c", a2}});

  AnalysisOptions options;
  options.cross_scope_only = false;  // keep every surviving candidate visible
  IncrementalEngine engine{options};
  engine.AnalyzeCommit(repo, 0);
  IncrementalResult inc = engine.AnalyzeCommit(repo, c2);
  EXPECT_EQ(inc.files_reparsed, 1);
  EXPECT_EQ(inc.functions_total, 6);
  EXPECT_EQ(inc.functions_dirty, 2);  // fa and fa_twice
  EXPECT_EQ(inc.cache.detect_carried, 4u);

  AnalysisReport full = Analysis(options).RunOnRepository(repo.PrefixCopy(c2));
  ASSERT_FALSE(full.findings.empty());
  EXPECT_EQ(inc.report.ToCsv(), full.ToCsv());
}

TEST(Incremental, FacadeReusesWarmEngineAcrossSequentialCommits) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  std::map<std::string, std::string> files;
  for (int i = 0; i < 5; ++i) {
    files["f" + std::to_string(i) + ".c"] =
        "int fn_" + std::to_string(i) + "(int a) {\n  return a;\n}\n";
  }
  repo.AddCommit(alice, 1, "create", files);
  CommitId c2 = repo.AddCommit(alice, 2, "touch one",
                               {{"f0.c", "int fn_0(int a) {\n  return a + 1;\n}\n"}});

  Analysis analysis;
  IncrementalResult first = analysis.RunOnCommit(repo, 0);
  EXPECT_EQ(first.files_reparsed, 5);
  IncrementalResult second = analysis.RunOnCommit(repo, c2);
  // The warm engine re-parses only the touched file and carries the rest.
  EXPECT_EQ(second.files_reparsed, 1);
  EXPECT_EQ(second.functions_total, 5);
  EXPECT_EQ(second.functions_dirty, 1);
  EXPECT_EQ(second.cache.detect_carried, 4u);
}

}  // namespace
}  // namespace vc
