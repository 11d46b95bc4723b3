// Project and authorship-layer tests: function index across files, snapshot
// construction, line counting, and the AuthorshipAnalyzer in isolation.

#include <gtest/gtest.h>

#include "src/core/authorship.h"
#include "src/core/detector.h"
#include "src/core/project.h"
#include "src/core/analysis.h"

namespace vc {
namespace {

TEST(Project, FunctionIndexLinksCrossFileCalls) {
  Project project = Project::FromSources({
      {"lib.c", "int dev_status(int a) {\n  return a + 1;\n}\n"},
      {"user.c", "void use(int v) {\n  dev_status(v);\n}\n"},
  });
  const FunctionInfo* info = project.FindFunction("dev_status");
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->InProject());
  EXPECT_EQ(project.sources().Path(info->def_file), "lib.c");
  ASSERT_EQ(info->call_sites.size(), 1u);
  EXPECT_EQ(project.sources().Path(info->call_sites[0].loc.file), "user.c");
  EXPECT_FALSE(info->call_sites[0].result_assigned);
}

TEST(Project, ExternCalleesIndexedWithoutDefinition) {
  Project project = Project::FromSources({
      {"a.c", "void f(int v) {\n  ext_log(v);\n}\n"},
      {"b.c", "void g(int v) {\n  ext_log(v + 1);\n}\n"},
  });
  const FunctionInfo* info = project.FindFunction("ext_log");
  ASSERT_NE(info, nullptr);
  EXPECT_FALSE(info->InProject());
  EXPECT_EQ(info->call_sites.size(), 2u);
}

TEST(Project, FromRepositoryUsesHead) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  repo.AddCommit(a, 1, "v1", {{"f.c", "int one(void) {\n  return 1;\n}\n"}});
  repo.AddCommit(a, 2, "v2", {{"f.c", "int two(void) {\n  return 2;\n}\n"}});
  Project project = Project::FromRepository(repo);
  EXPECT_EQ(project.FindFunction("one"), nullptr);
  EXPECT_NE(project.FindFunction("two"), nullptr);
}

TEST(Project, FromRepositoryAtHistoricalCommit) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  CommitId c1 = repo.AddCommit(a, 1, "v1", {{"f.c", "int one(void) {\n  return 1;\n}\n"}});
  repo.AddCommit(a, 2, "v2", {{"f.c", "int two(void) {\n  return 2;\n}\n"}});
  Project project = Project::FromRepositoryAt(repo, c1);
  EXPECT_NE(project.FindFunction("one"), nullptr);
  EXPECT_EQ(project.FindFunction("two"), nullptr);
}

TEST(Project, TotalLinesSkipsBlank) {
  Project project = Project::FromSources({{"a.c", "int g_x;\n\n\nint g_y;\n"}});
  EXPECT_EQ(project.TotalLines(), 2);
}

TEST(Project, PreprocessingResultsStored) {
  Project project = Project::FromSources(
      {{"a.c", "int g_x;\n#if FEATURE\nint g_y;\n#endif\n"}});
  const PreprocessResult& pp = project.preprocessing(0);
  ASSERT_EQ(pp.regions.size(), 1u);
  EXPECT_EQ(pp.regions[0].condition, "FEATURE");
}

TEST(Project, PreprocessorErrorReportedOnce) {
  Project project = Project::FromSources({{"a.c", "int g_x;\n#if FEATURE\nint g_y;\n"}});
  EXPECT_EQ(project.diags().ErrorCount(), 1);
  const std::string rendered = project.diags().Render(project.sources());
  const std::string message = "preprocessor: line 2: unterminated conditional";
  const size_t first = rendered.find(message);
  ASSERT_NE(first, std::string::npos) << rendered;
  EXPECT_EQ(rendered.find(message, first + 1), std::string::npos) << rendered;
}

// Recompiling a file replaces its footprint and removing one drops it, so an
// incrementally mutated project holds exactly what a fresh build over the
// same live files holds.
TEST(Project, MemoryTotalTracksLiveFiles) {
  const std::string v1 = "int f(int x) {\n  int t = x;\n  return t;\n}\n";
  const std::string v2 = "int f(int x) {\n  int t = x * 2;\n  t = t + 1;\n  return t;\n}\n";
  const std::string other = "int g(int y) {\n  return y + 1;\n}\n";
  auto equal = [](const Project::FileMemory& a, const Project::FileMemory& b) {
    return a.ast.bytes == b.ast.bytes && a.ast.objects == b.ast.objects &&
           a.ir.bytes == b.ir.bytes && a.ir.objects == b.ir.objects &&
           a.strings.bytes == b.strings.bytes && a.strings.objects == b.strings.objects;
  };
  MemoryTracker::Global().Enable();
  Project project;
  project.UpsertFile("a.c", v1, Config());
  project.UpsertFile("b.c", other, Config());
  project.FinishUpdate();
  const Project::FileMemory both =
      Project::FromSources({{"a.c", v1}, {"b.c", other}}).ParseMemoryTotal();
  EXPECT_GT(both.ast.bytes, 0u);
  EXPECT_TRUE(equal(project.ParseMemoryTotal(), both));

  project.UpsertFile("a.c", v2, Config());
  project.FinishUpdate();
  EXPECT_TRUE(equal(project.ParseMemoryTotal(),
                    Project::FromSources({{"a.c", v2}, {"b.c", other}}).ParseMemoryTotal()));

  ASSERT_TRUE(project.RemoveFile("b.c"));
  project.FinishUpdate();
  EXPECT_TRUE(
      equal(project.ParseMemoryTotal(), Project::FromSources({{"a.c", v2}}).ParseMemoryTotal()));
  MemoryTracker::Global().Disable();
}

TEST(Project, ConfigControlsCompilation) {
  std::vector<std::pair<std::string, std::string>> sources = {
      {"a.c",
       "int g(int);\n"
       "int f(int x) {\n"
       "  int host = g(x);\n"
       "  int n = 0;\n"
       "#if USE_FEATURE\n"
       "  n = host + 1;\n"
       "#endif\n"
       "  return n;\n"
       "}\n"}};
  // Feature off: host's use is not compiled; one candidate.
  Project off = Project::FromSources(sources);
  EXPECT_EQ(DetectAll(off).size(), 1u);
  // Feature on: host is used; the candidate shifts to the now-overwritten
  // n = 0 initializer.
  Config config;
  config.Define("USE_FEATURE");
  Project on = Project::FromSources(sources, config);
  std::vector<UnusedDefCandidate> candidates = DetectAll(on);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].slot_name, "n");
}

// --- AuthorshipAnalyzer ------------------------------------------------------

TEST(Authorship, AuthorOfLocUsesBlame) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  repo.AddCommit(alice, 1, "v1", {{"f.c", "int g_a;\nint g_b;\n"}});
  repo.AddCommit(bob, 2, "v2", {{"f.c", "int g_a;\nint g_mid;\nint g_b;\n"}});
  Project project = Project::FromRepository(repo);
  AuthorshipAnalyzer analyzer(project, &repo);
  FileId file = project.sources().FindByPath("f.c");
  EXPECT_EQ(analyzer.AuthorOfLoc({file, 1, 1}), alice);
  EXPECT_EQ(analyzer.AuthorOfLoc({file, 2, 1}), bob);
  EXPECT_EQ(analyzer.AuthorOfLoc({file, 3, 1}), alice);
  EXPECT_EQ(analyzer.AuthorOfLoc({file, 99, 1}), kInvalidAuthor);
  EXPECT_EQ(analyzer.AuthorOfLoc(SourceLoc{}), kInvalidAuthor);
}

TEST(Authorship, NullRepoMeansUnknownAuthors) {
  Project project = Project::FromSources(
      {{"a.c", "int g(int);\nint f(int m) {\n  int r = g(m);\n  r = g(m + 1);\n  return r;\n}\n"}});
  AuthorshipAnalyzer analyzer(project, nullptr);
  std::vector<UnusedDefCandidate> candidates = DetectAll(project);
  analyzer.ClassifyAll(candidates);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_FALSE(candidates[0].cross_scope);
  EXPECT_EQ(candidates[0].def_author, kInvalidAuthor);
}

TEST(Authorship, MixedOverwritersNotCrossScope) {
  // Two overwriters on different paths, one by the original author: the
  // "all successor paths by other developers" rule fails.
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  std::string v1 =
      "int g(int q) {\n"
      "  return q + 1;\n"
      "}\n"
      "int f(int m, int c) {\n"
      "  int r = g(m);\n"
      "  if (c) {\n"
      "    r = 1;\n"
      "  } else {\n"
      "    r = 2;\n"
      "  }\n"
      "  return r;\n"
      "}\n";
  // Alice wrote everything including the then-branch overwrite; bob rewrote
  // only the else-branch line.
  std::string v2 = v1;
  v2.replace(v2.find("    r = 2;"), 10, "    r = 2 + c;");
  repo.AddCommit(alice, 1, "v1", {{"f.c", v1}});
  repo.AddCommit(bob, 2, "v2", {{"f.c", v2}});
  AnalysisReport report = Analysis().RunOnRepository(repo);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.non_cross_scope, 1);
}

}  // namespace
}  // namespace vc
