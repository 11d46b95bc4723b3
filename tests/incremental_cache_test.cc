// Cache-correctness battery for the incremental engine: content hashing must
// catch edits line-count and length cannot, and the configuration key must
// change with any configuration or checker-set change. Also covers fault
// injection through the incremental path (quarantine records thread through
// IncrementalResult).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/incremental.h"

namespace vc {
namespace {

Repository TwoCommitRepo(const std::string& v1, const std::string& v2) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  repo.AddCommit(alice, 100, "create", {{"a.c", v1}});
  repo.AddCommit(alice, 200, "edit", {{"a.c", v2}});
  return repo;
}

TEST(IncrementalCacheTest, LengthPreservingEditInvalidates) {
  // Same byte length, same line count — only the content hash can tell.
  // v1 overwrites `a` before use (one finding); v2's second store reads `a`,
  // so the finding disappears.
  std::string v1 =
      "int f(int x) {\n"
      "  int a = x + 1;\n"
      "  a = x + 5;\n"
      "  return a;\n"
      "}\n";
  std::string v2 =
      "int f(int x) {\n"
      "  int a = x + 1;\n"
      "  a = a + 5;\n"
      "  return a;\n"
      "}\n";
  ASSERT_EQ(v1.size(), v2.size());
  ASSERT_NE(HashContent(v1), HashContent(v2));

  Repository repo = TwoCommitRepo(v1, v2);
  // Single-author history: keep non-cross-scope findings so the overwrite
  // in v1 is visible at all.
  AnalysisOptions options;
  options.cross_scope_only = false;
  IncrementalEngine engine{options};
  IncrementalResult first = engine.AnalyzeCommit(repo, 0);
  EXPECT_EQ(first.findings().size(), 1u);
  IncrementalResult second = engine.AnalyzeCommit(repo, 1);
  EXPECT_EQ(second.files_reparsed, 1);
  // The carried cache must not leak v1's finding into the v2 report.
  AnalysisReport full = Analysis(options).RunOnRepository(repo.PrefixCopy(1));
  EXPECT_EQ(second.report.ToCsv(), full.ToCsv());
  EXPECT_NE(second.report.ToCsv(), first.report.ToCsv());
}

TEST(IncrementalCacheTest, WhitespaceOnlyEditReparsesWithoutChurn) {
  std::string v1 =
      "int f(int x) {\n"
      "  int a = x + 1;\n"
      "  a = x + 5;\n"
      "  return a;\n"
      "}\n";
  Repository repo = TwoCommitRepo(v1, v1 + "\n");
  IncrementalEngine engine{AnalysisOptions{}};
  IncrementalResult first = engine.AnalyzeCommit(repo, 0);
  IncrementalResult second = engine.AnalyzeCommit(repo, 1);
  // The hash can't know the edit was whitespace, so the file re-parses —
  // but every finding carries (same fingerprint), nothing is new or fixed.
  EXPECT_EQ(second.files_reparsed, 1);
  EXPECT_EQ(second.findings_new, 0);
  EXPECT_EQ(second.findings_fixed, 0);
  EXPECT_EQ(second.findings_carried, static_cast<int>(first.findings().size()));
  EXPECT_EQ(second.report.ToCsv(), first.report.ToCsv());
}

TEST(IncrementalCacheKey, CoversConfigCheckersTraitsBudgetAndFault) {
  AnalysisOptions base;
  std::string base_key = MakeCacheConfigKey(base);

  AnalysisOptions with_macro = base;
  with_macro.config.Define("DEBUG", 1);
  EXPECT_NE(MakeCacheConfigKey(with_macro), base_key);

  AnalysisOptions with_checkers = base;
  with_checkers.checkers = {"unused-def"};
  // The key folds the RESOLVED list, so explicitly naming the full default
  // set may match; naming a strict subset must not.
  if (MakeCacheConfigKey(with_checkers) == base_key) {
    ADD_FAILURE() << "subset checker list produced the default cache key";
  }

  AnalysisOptions with_budget = base;
  with_budget.budget.detect_step_limit = 12345;
  EXPECT_NE(MakeCacheConfigKey(with_budget), base_key);

  AnalysisOptions with_fault = base;
  with_fault.fault = *FaultInjector::Parse("42:0.25", nullptr);
  EXPECT_NE(MakeCacheConfigKey(with_fault), base_key);
}

TEST(IncrementalFault, InjectionMatchesFullRunAndThreadsQuarantine) {
  // Under deterministic fault injection, the incremental replay must still
  // match a full run exactly — surviving findings AND quarantine records.
  AnalysisOptions options;
  options.fault = *FaultInjector::Parse("7:0.5", nullptr);

  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  std::map<std::string, std::string> files;
  for (int i = 0; i < 6; ++i) {
    std::string t = std::to_string(i);
    files["f" + t + ".c"] = "int fn_" + t + "(int x) {\n  int a_" + t +
                            " = x + 1;\n  a_" + t + " = x + 2;\n  return a_" + t + ";\n}\n";
  }
  repo.AddCommit(alice, 100, "create", files);
  repo.AddCommit(alice, 200, "edit",
                 {{"f0.c", "int fn_0(int x) {\n  int a_0 = x + 9;\n  a_0 = x + 2;\n"
                           "  return a_0;\n}\n"}});

  IncrementalEngine engine(options);
  Analysis full(options);
  for (CommitId commit = 0; commit < repo.NumCommits(); ++commit) {
    IncrementalResult result = engine.AnalyzeCommit(repo, commit);
    AnalysisReport fresh = full.RunOnRepository(repo.PrefixCopy(commit));
    ASSERT_EQ(result.report.ToCsv(), fresh.ToCsv()) << "fault divergence at commit " << commit;
    ASSERT_EQ(result.report.quarantined.size(), fresh.quarantined.size())
        << "quarantine divergence at commit " << commit;
    for (size_t i = 0; i < fresh.quarantined.size(); ++i) {
      EXPECT_EQ(result.report.quarantined[i].path, fresh.quarantined[i].path);
      EXPECT_EQ(result.report.quarantined[i].function, fresh.quarantined[i].function);
      EXPECT_EQ(result.report.quarantined[i].stage, fresh.quarantined[i].stage);
      EXPECT_EQ(result.report.quarantined[i].reason, fresh.quarantined[i].reason);
    }
    EXPECT_EQ(result.report.degraded, fresh.degraded);
  }
}

}  // namespace
}  // namespace vc
