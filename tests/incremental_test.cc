// Incremental (per-commit) engine tests: each analyzed commit yields the
// COMPLETE finding set as of that commit (equal to a full run over the
// repository truncated there), re-parsing only touched files and re-running
// checkers only on the functions of files whose content changed. The exhaustive differential
// battery lives in incremental_equivalence_test.cc; these cover the engine's
// API semantics and work accounting.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

  IncrementalResult result = IncrementalEngine(AnalysisOptions{}).AnalyzeCommit(repo, c2);
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

  IncrementalResult result = IncrementalEngine(AnalysisOptions{}).AnalyzeCommit(repo, c2);
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

  IncrementalResult result = IncrementalEngine(AnalysisOptions{}).AnalyzeCommit(repo, c2);
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

TEST(Incremental, EngineReusesWarmStateAcrossSequentialCommits) {
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

  IncrementalEngine engine{AnalysisOptions{}};
  IncrementalResult first = engine.AnalyzeCommit(repo, 0);
  EXPECT_EQ(first.files_reparsed, 5);
  IncrementalResult second = engine.AnalyzeCommit(repo, c2);
  // The warm engine re-parses only the touched file and carries the rest.
  EXPECT_EQ(second.files_reparsed, 1);
  EXPECT_EQ(second.functions_total, 5);
  EXPECT_EQ(second.functions_dirty, 1);
  EXPECT_EQ(second.cache.detect_carried, 4u);
}

// Renders the quarantine list one unit per line, for byte comparison.
std::string Quarantine(const AnalysisReport& report) {
  std::string out;
  for (const QuarantinedUnit& unit : report.quarantined) {
    out += unit.path + "|" + unit.function + "|" + unit.stage + "|" + unit.reason + "|" +
           unit.checker + "\n";
  }
  return out;
}

TEST(Incremental, SnapshotStepsMatchSourcesRunAtEveryStep) {
  auto unit = [](const std::string& name) {
    return "int " + name + "_helper(int x) {\n  return x + 1;\n}\n"
           "int " + name + "_work(int x) {\n  int ret = " + name + "_helper(x);\n"
           "  ret = " + name + "_helper(x + 2);\n  return ret;\n}\n";
  };
  // Each step's snapshot and the paths it adds, edits or deletes.
  std::map<std::string, std::string> files = {
      {"a.c", unit("a")}, {"b.c", unit("b")}, {"c.c", unit("c")}};
  std::vector<std::pair<std::map<std::string, std::string>, int>> steps = {{files, 3}};
  files["a.c"] += "int a_more(int y) {\n  int t = y;\n  t = y * 2;\n  return t;\n}\n";
  steps.emplace_back(files, 1);  // edit a
  files["d.c"] = unit("d");
  steps.emplace_back(files, 1);  // add d
  files.erase("b.c");
  steps.emplace_back(files, 1);  // delete b
  files["e.c"] = files["c.c"];
  files.erase("c.c");
  steps.emplace_back(files, 2);  // rename c to e, same content
  const std::string edited_a = files["a.c"];
  files["a.c"] += "\n";
  steps.emplace_back(files, 1);  // whitespace-touch a
  files["a.c"] = edited_a;
  steps.emplace_back(files, 1);  // undo the touch
  steps.emplace_back(files, 0);  // resend the same snapshot

  for (int jobs : {1, 4}) {
    AnalysisOptions options;  // batch sources mode, with some units faulted
    options.cross_scope_only = false;
    options.ranking.enabled = false;
    options.jobs = jobs;
    options.fault = FaultInjector(3, 0.2);
    IncrementalEngine engine(options);
    bool any_findings = false;
    bool any_quarantined = false;
    for (size_t i = 0; i < steps.size(); ++i) {
      const std::vector<std::pair<std::string, std::string>> snapshot(steps[i].first.begin(),
                                                                       steps[i].first.end());
      IncrementalResult result = engine.AnalyzeSnapshot(snapshot);
      AnalysisReport full = Analysis(options).RunOnSources(snapshot);
      EXPECT_EQ(result.files_changed, steps[i].second) << "step " << i << " jobs " << jobs;
      EXPECT_EQ(result.report.ToCsv(), full.ToCsv()) << "step " << i << " jobs " << jobs;
      EXPECT_EQ(Quarantine(result.report), Quarantine(full)) << "step " << i << " jobs " << jobs;
      any_findings = any_findings || !full.findings.empty();
      any_quarantined = any_quarantined || !full.quarantined.empty();
    }
    EXPECT_TRUE(any_findings);
    EXPECT_TRUE(any_quarantined);
  }
}

TEST(Incremental, EngineRejectsInputsItCannotAnswerFor) {
  const std::string f = "int f(void) {\n  return 1;\n}\n";
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  repo.AddCommit(alice, 1, "create", {{"a.c", f}});
  repo.AddCommit(alice, 2, "add", {{"b.c", f}});
  // An engine past commit 1 cannot go back to commit 0, and an engine fed a
  // snapshot has no replica for commits to extend.
  IncrementalEngine replay{AnalysisOptions{}};
  replay.AnalyzeCommit(repo, 1);
  EXPECT_THROW(replay.AnalyzeCommit(repo, 0), std::out_of_range);
  IncrementalEngine snapshots{AnalysisOptions{}};
  snapshots.AnalyzeSnapshot({{"a.c", f}});
  EXPECT_THROW(snapshots.AnalyzeCommit(repo, 0), std::logic_error);
}

}  // namespace
}  // namespace vc
