// Incremental (per-commit) engine tests: each analyzed commit yields the
// COMPLETE finding set as of that commit (equal to a full run over the
// repository truncated there), re-parsing only touched files and re-running
// checkers only on the functions of files whose content changed. The exhaustive differential
// battery lives in incremental_equivalence_test.cc; these cover the engine's
// API semantics and work accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/incremental.h"
#include "src/testing/oracle.h"

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

// A history whose commits exercise every way a slice is made anew: a
// recompiled file (util.c), a carried file whose tail re-runs because it
// calls a name the commit touched (caller.c), a return-value verdict flip
// reaching an untouched file (log_it's sites in quiet.c), and a signature
// group flip reaching an untouched file (the unused `b` of pquiet.c).
Repository SliceShapesHistory() {
  auto ignores = [](const std::string& name) {
    return "int " + name + "(int x) {\n  log_it(x);\n  return x;\n}\n";
  };
  auto uses = [](const std::string& name) {
    return "int " + name + "(int x) {\n  int r = log_it(x);\n  return r;\n}\n";
  };
  auto drops_b = [](const std::string& name) {
    return "int " + name + "(int a, int b) {\n  return a;\n}\n";
  };
  auto uses_b = [](const std::string& name) {
    return "int " + name + "(int a, int b) {\n  return a + b;\n}\n";
  };
  std::string quiet, loud, pquiet, ploud;
  for (int i = 0; i < 6; ++i) {
    quiet += ignores("quiet_" + std::to_string(i));
    loud += uses("loud_" + std::to_string(i));
    pquiet += drops_b("pquiet_" + std::to_string(i));
    ploud += uses_b("ploud_" + std::to_string(i));
  }
  const std::string tipped = ignores("loud_0") + loud.substr(uses("loud_0").size());
  const std::string ptipped = drops_b("ploud_0") + ploud.substr(uses_b("ploud_0").size());
  const std::string util = "int util_compute(int x) {\n  int t = x * 2;\n  return t;\n}\n";
  const std::string util2 =
      "int util_compute(int x) {\n  int t = x * 2;\n  t = x * 3;\n  return t;\n}\n";
  const std::string caller =
      "int caller_run(int x) {\n  int r = util_compute(x);\n  r = util_compute(x + 1);\n"
      "  return r;\n}\n";
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  repo.AddCommit(alice, 100, "create",
                 {{"helper.c", "int log_it(int v) {\n  return v + 1;\n}\n"},
                  {"quiet.c", quiet},
                  {"loud.c", loud},
                  {"pquiet.c", pquiet},
                  {"ploud.c", ploud},
                  {"util.c", util},
                  {"caller.c", caller}});
  repo.AddCommit(bob, 200, "rework util", {{"util.c", util2}});
  repo.AddCommit(bob, 300, "ignore one more result", {{"loud.c", tipped}});
  repo.AddCommit(bob, 400, "leave one more b unused", {{"ploud.c", ptipped}});
  repo.AddCommit(bob, 500, "use the result again", {{"loud.c", loud}});
  repo.AddCommit(bob, 600, "use b again", {{"ploud.c", ploud}});
  return repo;
}

// Everything a reader of a report sees of its candidates and tallies.
std::string SerializeReport(const AnalysisReport& report) {
  std::string out = testing::OracleRunner::SerializeFindings(report) +
                    testing::OracleRunner::SerializeQuarantine(report);
  for (const AnalysisReport::CheckerStat& stat : report.checker_stats) {
    out += stat.name + "|" + std::to_string(stat.candidates) + "|" +
           std::to_string(stat.findings) + "\n";
  }
  return out;
}

// Findings in `path`, parameters only when `params`.
int FindingsIn(const AnalysisReport& report, const std::string& path, bool params) {
  int count = 0;
  for (const UnusedDefCandidate& cand : report.findings) {
    count += cand.file == path && (!params || cand.is_param) ? 1 : 0;
  }
  return count;
}

AnalysisOptions SliceShapesOptions(int jobs) {
  AnalysisOptions options;
  options.cross_scope_only = false;  // keep every unpruned candidate visible
  options.jobs = jobs;
  return options;
}

TEST(IncrementalSlices, PublishedReportNeverChanges) {
  const Repository repo = SliceShapesHistory();
  for (int jobs : {1, 4}) {
    IncrementalEngine engine(SliceShapesOptions(jobs));
    const AnalysisReport first = engine.AnalyzeCommit(repo, 0).report;
    const std::string before = SerializeReport(first);
    ASSERT_EQ(FindingsIn(first, "quiet.c", false), 6);
    ASSERT_EQ(FindingsIn(first, "pquiet.c", true), 6);
    std::vector<AnalysisReport> later;
    for (CommitId commit = 1; commit < repo.NumCommits(); ++commit) {
      later.push_back(engine.AnalyzeCommit(repo, commit).report);
    }
    // The commits did what the history says: both verdicts flipped in the
    // untouched files, and flipped back.
    EXPECT_EQ(FindingsIn(later[1], "quiet.c", false), 0) << "jobs=" << jobs;
    EXPECT_EQ(FindingsIn(later[2], "pquiet.c", true), 0) << "jobs=" << jobs;
    EXPECT_EQ(FindingsIn(later[4], "quiet.c", false), 6) << "jobs=" << jobs;
    EXPECT_EQ(FindingsIn(later[4], "pquiet.c", true), 6) << "jobs=" << jobs;
    EXPECT_EQ(SerializeReport(first), before) << "jobs=" << jobs;
  }
}

// The slice of `path` in the engine's cache, and whether `report` holds that
// very object.
const CandidateSlice* EntrySlice(const IncrementalEngine& engine, const std::string& path) {
  const FileCacheEntry* entry = engine.cache().Find(path);
  return entry != nullptr ? entry->slice.get() : nullptr;
}
bool Holds(const AnalysisReport& report, const CandidateSlice* slice) {
  for (const CandidateSlices::Slice& held : report.raw_candidates.slices()) {
    if (held.get() == slice) {
      return true;
    }
  }
  return false;
}

TEST(IncrementalSlices, UntouchedFilesShareTheirSlices) {
  const Repository repo = SliceShapesHistory();
  IncrementalEngine engine(SliceShapesOptions(2));
  const AnalysisReport first = engine.AnalyzeCommit(repo, 0).report;
  std::map<std::string, const CandidateSlice*> at_first;
  for (const char* path : {"quiet.c", "pquiet.c", "util.c", "caller.c", "loud.c"}) {
    at_first[path] = EntrySlice(engine, path);
    ASSERT_NE(at_first[path], nullptr) << path;
    EXPECT_TRUE(Holds(first, at_first[path])) << path;
  }
  ASSERT_FALSE(at_first["pquiet.c"]->candidates.empty());

  // Commit 1 recompiles util.c; caller.c calls util_compute, so its slice
  // re-runs; the other files are untouched and share theirs, by address.
  const AnalysisReport second = engine.AnalyzeCommit(repo, 1).report;
  for (const char* path : {"quiet.c", "pquiet.c", "loud.c"}) {
    EXPECT_EQ(EntrySlice(engine, path), at_first[path]) << path;
    EXPECT_TRUE(Holds(second, at_first[path])) << path;
  }
  for (const char* path : {"util.c", "caller.c"}) {
    EXPECT_NE(EntrySlice(engine, path), at_first[path]) << path;
    EXPECT_TRUE(Holds(second, EntrySlice(engine, path))) << path;
    EXPECT_FALSE(Holds(second, at_first[path])) << path;
    EXPECT_TRUE(Holds(first, at_first[path])) << path;  // the old report keeps its own
  }

  // Commit 2 flips log_it's verdict: quiet.c's calls are matched again in a
  // copy, and pquiet.c (no call of log_it, no flipped group) still shares.
  const AnalysisReport third = engine.AnalyzeCommit(repo, 2).report;
  EXPECT_EQ(EntrySlice(engine, "pquiet.c"), at_first["pquiet.c"]);
  EXPECT_TRUE(Holds(third, at_first["pquiet.c"]));
  EXPECT_NE(EntrySlice(engine, "quiet.c"), at_first["quiet.c"]);

  // Commit 3 flips the (int, int) group's verdict on `b`: pquiet.c's
  // parameter candidates are matched again, so its slice is copied on write;
  // quiet.c, untouched this time, keeps the slice commit 2 made.
  const CandidateSlice* quiet_at_third = EntrySlice(engine, "quiet.c");
  const AnalysisReport fourth = engine.AnalyzeCommit(repo, 3).report;
  EXPECT_NE(EntrySlice(engine, "pquiet.c"), at_first["pquiet.c"]);
  EXPECT_TRUE(Holds(third, at_first["pquiet.c"]));
  EXPECT_EQ(EntrySlice(engine, "quiet.c"), quiet_at_third);
  EXPECT_TRUE(Holds(fourth, quiet_at_third));
}

// A report is read on one thread while the engine analyzes the next commits
// on another: the engine never writes a slice a report holds. The TSan
// configuration of tools/check.sh runs this test.
TEST(IncrementalSlices, ReportReadableWhileTheEngineMovesOn) {
  const Repository repo = SliceShapesHistory();
  IncrementalEngine engine(SliceShapesOptions(2));
  const AnalysisReport first = engine.AnalyzeCommit(repo, 0).report;
  const std::string expected = SerializeReport(first);
  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::atomic<int> mismatches{0};
  std::thread reader([&] {
    do {
      mismatches += SerializeReport(first) == expected ? 0 : 1;
      ++reads;
    } while (!done.load());
  });
  while (reads.load() == 0) {
    std::this_thread::yield();  // the reader is running before the engine moves on
  }
  for (CommitId commit = 1; commit < repo.NumCommits(); ++commit) {
    engine.AnalyzeCommit(repo, commit);
  }
  done = true;
  reader.join();
  EXPECT_EQ(mismatches.load(), 0);
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
