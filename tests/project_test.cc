// Project and authorship-layer tests: function index across files (fresh,
// incrementally updated, and at any job count), snapshot construction, line
// counting, releasing a project across lanes, and the AuthorshipAnalyzer in
// isolation.

#include <gtest/gtest.h>

#include <map>

#include "src/core/authorship.h"
#include "src/core/detector.h"
#include "src/core/project.h"
#include "src/core/analysis.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"
#include "src/testing/corpusgen.h"
#include "src/testing/oracle.h"

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

TEST(Project, FromRepositoryAtKeepsFilesDeletedLater) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  repo.AddCommit(a, 1, "base", {{"keep.c", "int kept(void) {\n  return 0;\n}\n"}});
  CommitId c1 = repo.AddCommit(a, 2, "add", {{"gone.c", "int gone(void) {\n  return 1;\n}\n"}});
  CommitId c2 = repo.AddCommit(a, 3, "delete", {}, {"gone.c"});
  Project then = Project::FromRepositoryAt(repo, c1);
  EXPECT_NE(then.FindFunction("gone"), nullptr);
  EXPECT_NE(then.FindFunction("kept"), nullptr);
  EXPECT_EQ(then.sources().NumFiles(), 2);
  Project now = Project::FromRepositoryAt(repo, c2);
  EXPECT_EQ(now.FindFunction("gone"), nullptr);
  EXPECT_EQ(now.sources().NumFiles(), 1);
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

std::vector<std::pair<std::string, std::string>> CorpusFiles(int files) {
  testing::CorpusProfile profile;
  EXPECT_TRUE(testing::MakeCorpusProfile("linux-like", "small", 1, &profile));
  profile.files = files;
  return testing::GenerateCorpusSources(profile);
}

// Builds at any job count hold the same index, and every indexed name's
// entry is the one its id leads to.
TEST(Project, IndexIsTheSameAtAnyJobs) {
  const std::vector<std::pair<std::string, std::string>> files = CorpusFiles(100);
  const std::string serial = testing::DumpFunctionIndex(Project::FromSources(files, Config(), 1));
  for (int jobs : {2, 8}) {
    EXPECT_EQ(testing::DumpFunctionIndex(Project::FromSources(files, Config(), jobs)), serial)
        << "jobs " << jobs;
  }
  Project project = Project::FromSources(files, Config(), 8);
  size_t names = 0;
  for (uint32_t id = 0; id < project.NameIdBound(); ++id) {
    const FunctionInfo* entry = project.IndexEntry(id);
    if (entry == nullptr) {
      continue;
    }
    ++names;
    EXPECT_EQ(project.NameId(entry->name), id) << entry->name;
    EXPECT_EQ(project.FindFunction(entry->name), project.IndexEntry(project.NameId(entry->name)))
        << entry->name;
  }
  EXPECT_GT(names, 100u);
  EXPECT_EQ(project.FindFunction("no_such_function"), nullptr);
}

// Counts the `teardown` spans `body` records.
template <typename Body>
size_t TeardownSpans(Body body) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Clear();
  collector.Enable();
  body();
  collector.Disable();
  size_t spans = 0;
  for (const TraceEvent& event : collector.SnapshotEvents()) {
    spans += event.name == "teardown" ? 1 : 0;
  }
  collector.Clear();
  return spans;
}

// A project built at jobs 4 releases its files across lanes when destroyed
// directly, once after a move (the moved-from project holds no files), and
// inline inside a ParallelFor body, where nested loops run on the lane.
TEST(Project, ReleasesAcrossLanesDirectlyAfterMoveAndNested) {
  const std::vector<std::pair<std::string, std::string>> files = CorpusFiles(40);
  const std::string index = testing::DumpFunctionIndex(Project::FromSources(files));

  EXPECT_EQ(TeardownSpans([&] { Project project = Project::FromSources(files, Config(), 4); }),
            1u);

  EXPECT_EQ(TeardownSpans([&] {
              Project built = Project::FromSources(files, Config(), 4);
              Project moved(std::move(built));
              EXPECT_EQ(testing::DumpFunctionIndex(moved), index);
              Project assigned;
              assigned = std::move(moved);
              EXPECT_EQ(testing::DumpFunctionIndex(assigned), index);
            }),
            1u);

  EXPECT_EQ(TeardownSpans([&] {
              std::vector<std::string> dumps(4);
              ParallelFor(4, dumps.size(), [&](size_t i) {
                Project project = Project::FromSources(files, Config(), 4);
                dumps[i] = testing::DumpFunctionIndex(project);
              });
              for (const std::string& dump : dumps) {
                EXPECT_EQ(dump, index);
              }
            }),
            4u);

  // An updated project releases across the lanes of its last update.
  EXPECT_EQ(TeardownSpans([&] {
              Project project;
              project.UpsertFiles(files, Config(), 4);
              project.FinishUpdate();
              EXPECT_EQ(testing::DumpFunctionIndex(project), index);
            }),
            1u);
}

// The warm function index: one Project driven through UpsertFiles /
// RemoveFile / FinishUpdate steps holds, after every step, the index a fresh
// build over the same live files (in path order) holds, at any job count.
void CheckIncrementalIndexEqualsFreshBuild(int jobs) {
  auto defines = [](const std::string& name, int bias) {
    return "int " + name + "(int v) {\n  return v + " + std::to_string(bias) + ";\n}\n";
  };
  auto calls = [](const std::string& caller, const std::string& callee) {
    return "int " + caller + "(int v) {\n  int r = " + callee + "(v);\n  " + callee +
           "(v + 1);\n  return r;\n}\n";
  };
  // A seed under which the injector's parse site faults q.c alone.
  FaultInjector fault;
  for (uint64_t seed = 1; !fault.enabled(); ++seed) {
    FaultInjector candidate(seed, 0.5);
    bool only_q = candidate.ShouldFault(fault_sites::kParseFile, "q.c");
    for (const char* path : {"a.c", "b.c", "c.c", "z.c"}) {
      only_q = only_q && !candidate.ShouldFault(fault_sites::kParseFile, path);
    }
    if (only_q) {
      fault = candidate;
    }
  }

  Project project;
  std::map<std::string, std::string> live;
  auto upsert = [&](const std::string& path, const std::string& content) {
    live[path] = content;
    project.UpsertFiles({{path, content}}, Config(), jobs, &fault);
  };
  auto remove = [&](const std::string& path) {
    live.erase(path);
    EXPECT_TRUE(project.RemoveFile(path)) << path;
  };
  auto definer = [&](const std::string& name) {
    const FunctionInfo* info = project.FindFunction(name);
    return info == nullptr || !info->InProject() ? std::string("-")
                                                 : project.sources().Path(info->def_file);
  };
  auto step = [&](const std::string& what) {
    project.FinishUpdate();
    std::vector<std::pair<std::string, std::string>> files(live.begin(), live.end());
    Project fresh = Project::FromSources(files, Config(), jobs, &fault);
    EXPECT_EQ(testing::DumpFunctionIndex(project), testing::DumpFunctionIndex(fresh)) << what;
  };

  // dup is defined in a.c and b.c: the later path wins.
  upsert("a.c", defines("dup", 1) + calls("a_user", "ext_log"));
  upsert("b.c", defines("dup", 2) + calls("b_user", "dup"));
  upsert("c.c", calls("c_user", "dup") + calls("c_other", "ext_only"));
  step("dup defined in two files");
  EXPECT_EQ(definer("dup"), "b.c");

  remove("b.c");
  step("winning definer removed");
  EXPECT_EQ(definer("dup"), "a.c");

  upsert("b.c", defines("dup", 2) + calls("b_user", "dup"));
  step("winning definer re-added");
  EXPECT_EQ(definer("dup"), "b.c");

  upsert("a.c", calls("a_first", "dup") + defines("dup", 3) + calls("a_user", "ext_log"));
  step("losing definer edited");
  EXPECT_EQ(definer("dup"), "b.c");

  remove("c.c");
  step("only caller of an extern removed");
  EXPECT_EQ(project.FindFunction("ext_only"), nullptr);

  upsert("c.c", calls("c_user", "dup") + calls("c_other", "ext_only"));
  step("tombstoned path revived");
  EXPECT_NE(project.FindFunction("ext_only"), nullptr);

  const std::string moved = live["a.c"];
  remove("a.c");
  upsert("z.c", moved);
  step("a.c renamed to z.c");
  EXPECT_EQ(definer("dup"), "z.c");

  upsert("q.c", defines("dup", 4) + calls("q_user", "ext_only"));
  step("quarantined file");
  ASSERT_EQ(project.quarantined().size(), 1u);
  EXPECT_EQ(project.quarantined()[0].path, "q.c");
  EXPECT_EQ(definer("dup"), "z.c");
}

TEST(Project, IncrementalIndexEqualsFreshBuild) {
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    CheckIncrementalIndexEqualsFreshBuild(jobs);
  }
}

// A name keeps its id while it stays indexed, also across an update that
// recompiles or removes the file whose tree its entry's name views (the
// entry then views another sharer's name, or a parked copy); a name that
// leaves gives its id up to a later update.
TEST(Project, NameIdsSurviveRecompilingTheirSharers) {
  const std::string solo = "int solo(int v) {\n  return v;\n}\n";
  const std::string shared = "int shared(int v) {\n  return v;\n}\n";
  Project project = Project::FromSources({{"a.c", solo + shared}, {"b.c", shared}});
  const uint32_t solo_id = project.NameId("solo");
  const uint32_t shared_id = project.NameId("shared");
  ASSERT_NE(solo_id, Project::kNoName);
  ASSERT_NE(shared_id, Project::kNoName);

  project.UpsertFile("a.c", "int other(int v) {\n  return v;\n}\n" + solo + shared, Config());
  project.FinishUpdate();
  EXPECT_EQ(project.NameId("solo"), solo_id);
  EXPECT_EQ(project.NameId("shared"), shared_id);
  EXPECT_EQ(project.IndexEntry(solo_id)->name, "solo");

  ASSERT_TRUE(project.RemoveFile("a.c"));
  project.FinishUpdate();
  EXPECT_EQ(project.NameId("solo"), Project::kNoName);
  EXPECT_EQ(project.IndexEntry(solo_id), nullptr);
  EXPECT_EQ(project.NameId("shared"), shared_id);
  EXPECT_EQ(project.IndexEntry(shared_id)->name, "shared");
  EXPECT_EQ(project.sources().Path(project.FindFunction("shared")->def_file), "b.c");
}

// A project first built in another order than by path adopts path order at
// its first update, and its index follows.
TEST(Project, IndexFollowsPathOrderAfterUnsortedBuild) {
  const std::string b = "int dup(int v) {\n  return v + 2;\n}\n";
  const std::string a =
      "int dup(int v) {\n  return v + 1;\n}\nint a_user(int v) {\n  dup(v);\n  return v;\n}\n";
  const std::string c = "int other(int v) {\n  dup(v);\n  return v;\n}\n";
  Project project = Project::FromSources({{"b.c", b}, {"a.c", a}});
  EXPECT_EQ(project.sources().Path(project.FindFunction("dup")->def_file), "a.c");
  project.UpsertFile("c.c", c, Config());
  project.FinishUpdate();
  EXPECT_EQ(testing::DumpFunctionIndex(project),
            testing::DumpFunctionIndex(Project::FromSources({{"a.c", a}, {"b.c", b}, {"c.c", c}})));
  EXPECT_EQ(project.sources().Path(project.FindFunction("dup")->def_file), "b.c");
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
