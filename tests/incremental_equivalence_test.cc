// The incremental engine's differential battery: at EVERY commit of a
// history, the engine's report must be byte-identical (CSV rendering,
// fingerprint sequence, and the whole serialized report: raw candidates with
// their classification and prune reason, prune statistics, the quarantine
// list) to a fresh full analysis of the repository truncated at that commit —
// at jobs 1, 2, and 8,
// across the edit shapes real repositories produce (file adds, deletes,
// renames, signature changes, cross-file callee edits, whitespace touches,
// peer-verdict flips in untouched files, of a callee's return value and of a
// parameter signature group).
//
// The synthesized histories come from src/testing/history_gen.h, which emits
// exactly those shapes by construction; the hand-written history below pins
// each shape individually so a battery failure localizes.

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/incremental.h"
#include "src/core/pruning.h"
#include "src/support/memstats.h"
#include "src/support/metrics.h"
#include "src/testing/history_gen.h"
#include "src/testing/oracle.h"

namespace vc {
namespace {

std::vector<std::string> Fingerprints(const AnalysisReport& report) {
  std::vector<std::string> prints;
  for (const UnusedDefCandidate& cand : report.findings) {
    prints.push_back(cand.fingerprint);
  }
  return prints;
}

// The tallies an incremental report sums from its slices, each defined
// equal to a full run's: the per-checker counts, the candidates each prune
// pattern tested (SerializeFindings covers what each pruned), and the stage
// counts that describe the whole candidate set (detect's function count and
// authorship's count describe the work done, so they differ by design).
std::string Tallies(const AnalysisReport& report) {
  std::string out;
  for (const AnalysisReport::CheckerStat& stat : report.checker_stats) {
    out += stat.name + "|" + std::to_string(stat.candidates) + "|" +
           std::to_string(stat.findings) + "\n";
  }
  for (const PrunePattern& pattern : kPrunePatterns) {
    out += std::string(pattern.name) + ".tested|" +
           std::to_string(report.prune_stats.*pattern.tested) + "\n";
  }
  const StageRecords& stages = report.stages;
  const std::pair<Stage, StageCount> counts[] = {
      {Stage::kDetect, kDetectCandidates},  {Stage::kCrossScopeFilter, kFilterKept},
      {Stage::kCrossScopeFilter, kFilterDropped}, {Stage::kPrune, kPruneSurvivors},
      {Stage::kRank, kRankScored},          {Stage::kRank, kRankUnknown}};
  for (const auto& [stage, index] : counts) {
    out += std::string(StageName(stage)) + "." + StageCountName(stage, index) + "|" +
           std::to_string(stages[stage].counts[index]) + "\n";
  }
  return out;
}

// The whole report, not only what the CSV shows: a wrong carried
// classification or prune verdict on a candidate the filter or pruning drops
// would leave the findings alone, and a wrong slice tally would leave every
// candidate alone.
void ExpectSameReport(const AnalysisReport& report, const AnalysisReport& fresh,
                      CommitId commit) {
  using testing::OracleRunner;
  ASSERT_EQ(OracleRunner::SerializeFindings(report), OracleRunner::SerializeFindings(fresh))
      << "report divergence at commit " << commit << ", jobs=" << report.jobs;
  ASSERT_EQ(OracleRunner::SerializeQuarantine(report), OracleRunner::SerializeQuarantine(fresh))
      << "quarantine divergence at commit " << commit;
  ASSERT_EQ(Tallies(report), Tallies(fresh)) << "tally divergence at commit " << commit;
}

// Whether `report` holds a non-empty slice that `previous` holds too, the
// very object: a file whose finished candidates carried past detect.
bool CarriesASlice(const AnalysisReport& report, const AnalysisReport& previous) {
  std::set<const CandidateSlice*> before;
  for (const CandidateSlices::Slice& slice : previous.raw_candidates.slices()) {
    before.insert(slice.get());
  }
  for (const CandidateSlices::Slice& slice : report.raw_candidates.slices()) {
    if (!slice->candidates.empty() && before.count(slice.get()) != 0) {
      return true;
    }
  }
  return false;
}

// Replays `repo` through one warm engine and diffs every commit against a
// fresh full run truncated there. Returns how many commits carried a
// non-empty slice from the previous report (CarriesASlice).
int ExpectReplayEquivalent(const Repository& repo, const AnalysisOptions& options) {
  IncrementalEngine engine(options);
  Analysis full(options);
  AnalysisReport previous;
  int carrying = 0;
  for (CommitId commit = 0; commit < repo.NumCommits(); ++commit) {
    IncrementalResult result = engine.AnalyzeCommit(repo, commit);
    AnalysisReport fresh = full.RunOnRepository(repo.PrefixCopy(commit));
    EXPECT_EQ(result.report.ToCsv(), fresh.ToCsv())
        << "divergence at commit " << commit << " (" << repo.GetCommit(commit).message
        << "), jobs=" << options.jobs;
    EXPECT_EQ(Fingerprints(result.report), Fingerprints(fresh))
        << "fingerprint divergence at commit " << commit;
    ExpectSameReport(result.report, fresh, commit);
    if (::testing::Test::HasFailure()) {
      return carrying;
    }
    carrying += CarriesASlice(result.report, previous) ? 1 : 0;
    previous = std::move(result.report);
  }
  return carrying;
}

testing::HistoryGenOptions SmallHistory(uint64_t seed, int commits) {
  testing::HistoryGenOptions options;
  options.seed = seed;
  options.commits = commits;
  options.initial_modules = 3;
  options.max_modules = 8;
  options.authors = 3;
  options.per_module.max_functions_per_file = 3;
  options.per_module.max_stmts_per_function = 6;
  return options;
}

TEST(IncrementalEquivalence, GeneratedHistoryAtJobs1) {
  Repository repo = testing::GenerateHistory(SmallHistory(7, 24));
  AnalysisOptions options;
  options.jobs = 1;
  EXPECT_GE(ExpectReplayEquivalent(repo, options), 1) << "no commit carried a finished slice";
}

TEST(IncrementalEquivalence, GeneratedHistoryAtJobs2) {
  Repository repo = testing::GenerateHistory(SmallHistory(7, 24));
  AnalysisOptions options;
  options.jobs = 2;
  EXPECT_GE(ExpectReplayEquivalent(repo, options), 1) << "no commit carried a finished slice";
}

TEST(IncrementalEquivalence, GeneratedHistoryAtJobs8) {
  Repository repo = testing::GenerateHistory(SmallHistory(7, 24));
  AnalysisOptions options;
  options.jobs = 8;
  EXPECT_GE(ExpectReplayEquivalent(repo, options), 1) << "no commit carried a finished slice";
}

TEST(IncrementalEquivalence, SecondSeedShiftsTheOpMixAndStillMatches) {
  Repository repo = testing::GenerateHistory(SmallHistory(1234, 18));
  AnalysisOptions options;
  options.jobs = 2;
  ExpectReplayEquivalent(repo, options);
}

// Hand-written history pinning each edit shape the generator mixes freely.
Repository EditShapesHistory() {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");

  std::string util =
      "int util_compute(int x) {\n"
      "  int t = x * 2;\n"
      "  return t;\n"
      "}\n";
  std::string caller =
      "int caller_run(int x) {\n"
      "  int r = util_compute(x);\n"
      "  return r;\n"
      "}\n";
  repo.AddCommit(alice, 100, "create", {{"util.c", util}, {"caller.c", caller}});

  // File add.
  repo.AddCommit(bob, 200, "add helper",
                 {{"helper.c", "int helper(int y) {\n  return y + 1;\n}\n"}});

  // Cross-file callee edit: util_compute's body changes; caller.c is
  // untouched and its detect results carry.
  std::string util2 =
      "int util_compute(int x) {\n"
      "  int t = x * 2;\n"
      "  t = x * 3;\n"
      "  return t;\n"
      "}\n";
  repo.AddCommit(bob, 300, "rework util", {{"util.c", util2}});

  // Signature change rippling to the caller.
  std::string util3 =
      "int util_compute(int x, int bias) {\n"
      "  int t = x * 3 + bias;\n"
      "  return t;\n"
      "}\n";
  std::string caller2 =
      "int caller_run(int x) {\n"
      "  int r = util_compute(x, 1);\n"
      "  return r;\n"
      "}\n";
  repo.AddCommit(alice, 400, "widen util_compute", {{"util.c", util3}, {"caller.c", caller2}});

  // Rename: same bytes, new path.
  repo.AddCommit(alice, 500, "move helper", {{"support.c", "int helper(int y) {\n  return y + 1;\n}\n"}},
                 {"helper.c"});

  // File delete.
  repo.AddCommit(bob, 600, "drop support", {}, {"support.c"});

  // Whitespace-only touch.
  repo.AddCommit(bob, 700, "tidy caller", {{"caller.c", caller2 + "\n"}});

  // One name defined in two files: the later path (bob's dup_b.c) wins, so
  // alice's ignored result of dup_value is a cross-scope finding exactly
  // while bob's definition is the project's.
  std::string dup_a = "int dup_value(int v) {\n  return v + 1;\n}\n";
  std::string dup_b = "int dup_value(int v) {\n  return v + 2;\n}\n";
  std::string dup_user = "int dup_user(int v) {\n  dup_value(v);\n  return v;\n}\n";
  repo.AddCommit(alice, 800, "add dup_value twice", {{"dup_a.c", dup_a}, {"dup_user.c", dup_user}});
  repo.AddCommit(bob, 810, "define dup_value again", {{"dup_b.c", dup_b}});
  // Removing the winning definer hands the name back to dup_a.c.
  repo.AddCommit(bob, 900, "drop the winning definer", {}, {"dup_b.c"});
  repo.AddCommit(bob, 1000, "restore the winning definer", {{"dup_b.c", dup_b}});
  // Editing only the losing definer leaves dup_b.c the winner.
  repo.AddCommit(alice, 1100, "edit the losing definer",
                 {{"dup_a.c", "int dup_value(int v) {\n  return v + 3;\n}\n"}});

  // A log-only change: a third author rewrites dup_user.c byte for byte. Its
  // candidates and blame stay, but alice's acceptances on the file, and so
  // her finding's familiarity, change.
  AuthorId carol = repo.AddAuthor("carol");
  repo.AddCommit(carol, 1200, "rewrite dup_user unchanged", {{"dup_user.c", dup_user}});

  return repo;
}

TEST(IncrementalEquivalence, HandWrittenEditShapes) {
  Repository repo = EditShapesHistory();
  for (int jobs : {1, 2, 8}) {
    AnalysisOptions options;
    options.jobs = jobs;
    ExpectReplayEquivalent(repo, options);
  }
}

// The byte-for-byte rewrite that closes EditShapesHistory leaves every
// candidate of dup_user.c as it was, but not the familiarity of its finding:
// the engine re-scores it rather than carry the slice.
TEST(IncrementalEquivalence, ByteIdenticalRewriteRescoresItsFindings) {
  Repository repo = EditShapesHistory();
  const CommitId last = repo.NumCommits() - 1;
  IncrementalEngine engine{AnalysisOptions()};
  auto dup_user_finding = [](const AnalysisReport& report) {
    for (const UnusedDefCandidate& finding : report.findings) {
      if (finding.file == "dup_user.c") {
        return finding;
      }
    }
    ADD_FAILURE() << "no finding in dup_user.c";
    return UnusedDefCandidate();
  };
  const UnusedDefCandidate before = dup_user_finding(engine.AnalyzeCommit(repo, last - 1).report);
  const IncrementalResult result = engine.AnalyzeCommit(repo, last);
  const UnusedDefCandidate after = dup_user_finding(result.report);
  EXPECT_EQ(result.files_reparsed, 0);
  EXPECT_EQ(after.fingerprint, before.fingerprint);
  EXPECT_NE(after.familiarity, before.familiarity);
}

// With metrics on, the engine reports the memory its project holds resident.
// At every commit — file adds, recompiles and deletes included — the
// categories equal a full run's, and the published gauge equals the report.
TEST(IncrementalEquivalence, EngineMemoryEqualsFullRun) {
  Repository repo = EditShapesHistory();
  for (int jobs : {1, 4}) {
    AnalysisOptions options;
    options.jobs = jobs;
    options.collect_metrics = true;
    IncrementalEngine engine(options);
    Analysis full(options);
    for (CommitId commit = 0; commit < repo.NumCommits(); ++commit) {
      AnalysisReport report = engine.AnalyzeCommit(repo, commit).report;
      ASSERT_TRUE(report.memory.collected);
      EXPECT_GT(report.memory.TrackedBytes(), 0u) << "commit " << commit;
      EXPECT_EQ(MetricsRegistry::Global().GetGauge("mem.tracked_bytes").value(),
                static_cast<int64_t>(report.memory.TrackedBytes()))
          << "commit " << commit << ", jobs=" << jobs;
      AnalysisReport fresh = full.RunOnRepository(repo.PrefixCopy(commit));
      for (int c = 0; c < kMemCategoryCount; ++c) {
        EXPECT_EQ(report.memory.categories[c].bytes, fresh.memory.categories[c].bytes)
            << "commit " << commit << ", jobs=" << jobs << ", category " << c;
        EXPECT_EQ(report.memory.categories[c].objects, fresh.memory.categories[c].objects)
            << "commit " << commit << ", jobs=" << jobs << ", category " << c;
      }
    }
  }
  MetricsRegistry::Global().Disable();
  MemoryTracker::Global().Disable();
}

// Peer pruning (§5.4) decides per callee over every call site in the
// project. One commit to loud.c tips log_it's share of ignored results past
// half, which flips the verdict at quiet.c's call sites although quiet.c is
// untouched and its detect results carry; the next commit tips it back.
TEST(IncrementalEquivalence, PeerVerdictFlipReachesUntouchedFiles) {
  auto ignores = [](const std::string& name) {
    return "int " + name + "(int x) {\n  log_it(x);\n  return x;\n}\n";
  };
  auto uses = [](const std::string& name) {
    return "int " + name + "(int x) {\n  int r = log_it(x);\n  return r;\n}\n";
  };
  std::string quiet;
  std::string loud;
  for (int i = 0; i < 6; ++i) {
    quiet += ignores("quiet_" + std::to_string(i));
    loud += uses("loud_" + std::to_string(i));
  }
  // 12 call sites, 6 ignored: not more than half, so each ignored result is
  // a finding. 7 ignored is more than half: log_it's result is customarily
  // ignored and every ignored call site is pruned.
  std::string tipped = ignores("loud_0") + loud.substr(uses("loud_0").size());
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  repo.AddCommit(alice, 100, "create",
                 {{"helper.c", "int log_it(int v) {\n  return v + 1;\n}\n"},
                  {"quiet.c", quiet},
                  {"loud.c", loud}});
  repo.AddCommit(bob, 200, "ignore one more result", {{"loud.c", tipped}});
  repo.AddCommit(bob, 300, "use it again", {{"loud.c", loud}});

  AnalysisOptions options;
  options.cross_scope_only = false;  // keep every unpruned call site visible
  auto quiet_findings = [](const AnalysisReport& report) {
    int count = 0;
    for (const UnusedDefCandidate& cand : report.findings) {
      count += cand.file == "quiet.c" ? 1 : 0;
    }
    return count;
  };
  IncrementalEngine engine(options);
  IncrementalResult before = engine.AnalyzeCommit(repo, 0);
  IncrementalResult flipped = engine.AnalyzeCommit(repo, 1);
  IncrementalResult back = engine.AnalyzeCommit(repo, 2);
  EXPECT_EQ(quiet_findings(before.report), 6);
  EXPECT_EQ(quiet_findings(flipped.report), 0);
  EXPECT_GE(flipped.report.prune_stats.peer_definition, 7);
  EXPECT_EQ(quiet_findings(back.report), 6);
  EXPECT_EQ(flipped.functions_dirty, 6);  // loud.c alone; quiet.c carried
  EXPECT_EQ(back.functions_dirty, 6);

  for (int jobs : {1, 4}) {
    options.jobs = jobs;
    ExpectReplayEquivalent(repo, options);
  }
}

// A parameter position's peer verdict is decided over every function with
// the same signature. One commit to loud.c leaves one more `b` unused and
// tips the position past half, which flips the verdict of quiet.c's
// parameters although quiet.c is untouched and shares no name with loud.c:
// its carried verdicts must be matched again. The next commit flips back.
TEST(IncrementalEquivalence, PeerParamGroupFlipReachesUntouchedFiles) {
  auto ignores = [](const std::string& name) {
    return "int " + name + "(int a, int b) {\n  return a;\n}\n";
  };
  auto uses = [](const std::string& name) {
    return "int " + name + "(int a, int b) {\n  return a + b;\n}\n";
  };
  std::string quiet;
  std::string loud;
  for (int i = 0; i < 6; ++i) {
    quiet += ignores("quiet_" + std::to_string(i));
    loud += uses("loud_" + std::to_string(i));
  }
  // 12 functions, 6 leave `b` unused: not more than half, so each unused
  // `b` is a finding. 7 is more than half: every unused `b` is pruned.
  std::string tipped = ignores("loud_0") + loud.substr(uses("loud_0").size());
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  repo.AddCommit(alice, 100, "create", {{"quiet.c", quiet}, {"loud.c", loud}});
  repo.AddCommit(bob, 200, "leave one more b unused", {{"loud.c", tipped}});
  repo.AddCommit(bob, 300, "use it again", {{"loud.c", loud}});

  AnalysisOptions options;
  options.cross_scope_only = false;  // keep every unpruned parameter visible
  auto quiet_findings = [](const AnalysisReport& report) {
    int count = 0;
    for (const UnusedDefCandidate& cand : report.findings) {
      count += cand.file == "quiet.c" && cand.is_param ? 1 : 0;
    }
    return count;
  };
  for (int jobs : {1, 4}) {
    options.jobs = jobs;
    IncrementalEngine engine(options);
    IncrementalResult before = engine.AnalyzeCommit(repo, 0);
    IncrementalResult flipped = engine.AnalyzeCommit(repo, 1);
    IncrementalResult back = engine.AnalyzeCommit(repo, 2);
    EXPECT_EQ(quiet_findings(before.report), 6) << "jobs=" << jobs;
    EXPECT_EQ(quiet_findings(flipped.report), 0) << "jobs=" << jobs;
    EXPECT_EQ(flipped.report.prune_stats.peer_definition, 7) << "jobs=" << jobs;
    EXPECT_EQ(quiet_findings(back.report), 6) << "jobs=" << jobs;
    EXPECT_EQ(flipped.functions_dirty, 6);  // loud.c alone; quiet.c carried
    EXPECT_EQ(back.functions_dirty, 6);
    ExpectReplayEquivalent(repo, options);
  }
}

// A file that no commit touches and that shares no name with the edited one
// carries its finished slice into every report by pointer. Its candidates
// are tested by every prune pattern in turn, so a carried slice's counts
// must still sum to a full run's at every commit.
TEST(IncrementalEquivalence, CarriedSlicesSumToAFullRunsTallies) {
  const std::string solo =
      "int solo_sink(int a, int b) {\n  return a;\n}\n"
      "int solo_calc(int x) {\n  int t = x * 2;\n  t = x * 3;\n  return t;\n}\n"
      "int solo_call(int x) {\n  solo_calc(x);\n  return x;\n}\n";
  auto util = [](int factor) {
    return "int util_compute(int x) {\n  int t = x * 2;\n  t = x * " + std::to_string(factor) +
           ";\n  return t;\n}\n";
  };
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  repo.AddCommit(alice, 100, "create", {{"solo.c", solo}, {"util.c", util(3)}});
  repo.AddCommit(bob, 200, "rework util", {{"util.c", util(4)}});
  repo.AddCommit(bob, 300, "rework util again", {{"util.c", util(5)}});

  AnalysisOptions options;
  options.cross_scope_only = false;  // every candidate is in the prune pool
  auto solo_slice = [](const AnalysisReport& report) -> const CandidateSlice* {
    for (const CandidateSlices::Slice& slice : report.raw_candidates.slices()) {
      if (!slice->candidates.empty() && slice->candidates[0].file == "solo.c") {
        return slice.get();
      }
    }
    return nullptr;
  };
  for (int jobs : {1, 4}) {
    options.jobs = jobs;
    IncrementalEngine engine(options);
    Analysis full(options);
    AnalysisReport previous;
    for (CommitId commit = 0; commit < repo.NumCommits(); ++commit) {
      AnalysisReport report = engine.AnalyzeCommit(repo, commit).report;
      const CandidateSlice* slice = solo_slice(report);
      ASSERT_NE(slice, nullptr);
      for (const PrunePattern& pattern : kPrunePatterns) {
        if (options.prune.*pattern.enabled) {
          EXPECT_GT(slice->prune.*pattern.tested, 0) << pattern.name;
        }
      }
      if (commit > 0) {
        EXPECT_EQ(slice, solo_slice(previous)) << "commit " << commit << ", jobs=" << jobs;
      }
      ExpectSameReport(report, full.RunOnRepository(repo.PrefixCopy(commit)), commit);
      previous = std::move(report);
    }
  }
}

// The generator's peer shape rewrites one module, yet flips peer_log's
// verdict at the call sites of the modules it leaves alone: a peer commit
// that prunes or restores more sites than the module itself has.
TEST(IncrementalEquivalence, GeneratedPeerShapeFlipsUntouchedModules) {
  Repository repo = testing::GenerateHistory(SmallHistory(7, 24));
  IncrementalEngine engine{AnalysisOptions()};
  int previous = 0;
  int flips = 0;
  for (CommitId commit = 0; commit < repo.NumCommits(); ++commit) {
    const int peer = engine.AnalyzeCommit(repo, commit).report.prune_stats.peer_definition;
    if (repo.GetCommit(commit).message.rfind("peer sites of", 0) == 0 &&
        std::abs(peer - previous) > 4) {
      ++flips;
    }
    previous = peer;
  }
  EXPECT_GE(flips, 1);
}

}  // namespace
}  // namespace vc
