// Corpus generator + end-to-end reproduction tests. The full-profile tests
// assert the paper's headline numbers exactly — they are what the bench
// binaries print, locked in as regression tests.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/corpus/eval.h"
#include "src/corpus/generator.h"
#include "src/corpus/profile.h"

namespace vc {
namespace {

struct AppRun {
  GeneratedApp app;
  Project project;
  AnalysisReport report;
};

// The paper-number tests lock in the unused-definition detector alone; the
// checker framework's other bug classes have their own populations (see
// PerCheckerPrecisionRecall) and must not perturb these tables.
AppRun RunApp(const ProjectProfile& profile, AnalysisOptions options = AnalysisOptions()) {
  options.checkers = {"unused-def"};
  AppRun run;
  run.app = GenerateApp(profile);
  run.project = Project::FromRepository(run.app.repo);
  EXPECT_FALSE(run.project.diags().HasErrors())
      << run.project.diags().Render(run.project.sources()).substr(0, 2000);
  run.report = Analysis(options).Run(run.project, &run.app.repo);
  return run;
}

// Runs the §8.4 baseline checkers the way the paper ran the tools: raw
// detection envelopes, no cross-scope filter, no ranking.
AnalysisReport RunBaselines(const Project& project, const ProjectTraits& traits) {
  AnalysisOptions options;
  options.checkers = {"baseline-clang", "baseline-infer", "baseline-smatch",
                      "baseline-coverity"};
  options.traits = traits;
  options.cross_scope_only = false;
  options.ranking.enabled = false;
  return Analysis(options).Run(project);
}

// --- Generator invariants (scaled profiles keep tests fast) --------------------

TEST(CorpusGenerator, DeterministicForSeed) {
  ProjectProfile profile = NfsGaneshaProfile().Scaled(0.1);
  GeneratedApp a = GenerateApp(profile);
  GeneratedApp b = GenerateApp(profile);
  ASSERT_EQ(a.repo.NumCommits(), b.repo.NumCommits());
  for (const std::string& path : a.repo.ListFiles()) {
    EXPECT_EQ(a.repo.Head(path), b.repo.Head(path));
  }
  EXPECT_EQ(a.truth.sites().size(), b.truth.sites().size());
}

TEST(CorpusGenerator, GeneratedCodeParsesCleanly) {
  for (const ProjectProfile& profile : AllProfiles()) {
    GeneratedApp app = GenerateApp(profile.Scaled(0.1));
    Project project = Project::FromRepository(app.repo);
    EXPECT_FALSE(project.diags().HasErrors())
        << profile.name << ": " << project.diags().Render(project.sources()).substr(0, 1500);
  }
}

TEST(CorpusGenerator, EverySiteLineMatchesLedger) {
  GeneratedApp app = GenerateApp(OpensslProfile().Scaled(0.15));
  Project project = Project::FromRepository(app.repo);
  // Every site's recorded line must exist in the generated file.
  for (const GtSite& site : app.truth.sites()) {
    FileId file = project.sources().FindByPath(site.file);
    ASSERT_NE(file, kInvalidFileId) << site.file;
    EXPECT_LE(site.line, project.sources().NumLines(file));
  }
}

TEST(CorpusGenerator, BlameGivesCrossAuthorsForCrossSites) {
  GeneratedApp app = GenerateApp(NfsGaneshaProfile().Scaled(0.15));
  Project project = Project::FromRepository(app.repo);
  AnalysisReport report = Analysis().Run(project, &app.repo);
  // Every reported finding must be cross-scope by construction.
  for (const UnusedDefCandidate& cand : report.findings) {
    EXPECT_TRUE(cand.cross_scope);
    EXPECT_NE(cand.def_author, kInvalidAuthor);
  }
}

TEST(CorpusGenerator, NoUnexpectedFindings) {
  // Every ValueCheck finding (and every candidate, pruned or not) must map to
  // a ledger site: the generator's background code is clean.
  for (const ProjectProfile& profile : AllProfiles()) {
    AppRun run = RunApp(profile.Scaled(0.1));
    ToolEval eval = EvaluateLocations(run.app.truth, "VC", LocationsOf(run.report));
    EXPECT_EQ(eval.unmatched, 0) << profile.name;
  }
}

TEST(CorpusGenerator, ExpectationsHoldPerSite) {
  AppRun run = RunApp(MysqlProfile().Scaled(0.05));
  std::set<std::pair<std::string, int>> reported;
  for (const UnusedDefCandidate& cand : run.report.findings) {
    reported.insert({cand.file, cand.def_loc.line});
  }
  int checked = 0;
  for (const GtSite& site : run.app.truth.sites()) {
    bool is_reported = reported.count({site.file, site.line}) > 0;
    bool expected = site.expect_cross_scope && !site.expect_pruned;
    // Peer-pruned populations can keep marginal groups below threshold at
    // tiny scales; skip them, check every other category strictly.
    if (site.expect_prune_reason == PruneReason::kPeerDefinition) {
      continue;
    }
    EXPECT_EQ(is_reported, expected)
        << SiteCategoryName(site.category) << " at " << site.file << ":" << site.line;
    ++checked;
  }
  EXPECT_GT(checked, 50);
}

// --- Full-profile reproduction (the paper's tables, exactly) --------------------

struct PaperRow {
  const char* name;
  int found;
  int real;
  int orig;
  int config;
  int cursor;
  int hints;
  int peer;
};

constexpr PaperRow kPaperRows[] = {
    {"Linux", 63, 44, 259, 1, 22, 46, 127},
    {"NFS-ganesha", 22, 18, 898, 7, 7, 839, 23},
    {"MySQL", 99, 74, 7743, 37, 83, 3031, 4493},
    {"OpenSSL", 26, 18, 642, 18, 74, 322, 202},
};

TEST(Reproduction, Table2AndTable4PerApplication) {
  auto profiles = AllProfiles();
  for (size_t i = 0; i < profiles.size(); ++i) {
    AppRun run = RunApp(profiles[i]);
    const PaperRow& row = kPaperRows[i];
    EXPECT_EQ(run.app.name, row.name);
    EXPECT_EQ(static_cast<int>(run.report.findings.size()), row.found) << row.name;
    ToolEval eval = EvaluateLocations(run.app.truth, "VC", LocationsOf(run.report));
    EXPECT_EQ(eval.real, row.real) << row.name;
    EXPECT_EQ(eval.unmatched, 0) << row.name;
    EXPECT_EQ(run.report.prune_stats.original, row.orig) << row.name;
    EXPECT_EQ(run.report.prune_stats.config_dependency, row.config) << row.name;
    EXPECT_EQ(run.report.prune_stats.cursor, row.cursor) << row.name;
    EXPECT_EQ(run.report.prune_stats.unused_hints, row.hints) << row.name;
    EXPECT_EQ(run.report.prune_stats.peer_definition, row.peer) << row.name;
  }
}

TEST(Reproduction, Table5ToolComparison) {
  struct Expected {
    const char* app;
    bool infer_ok;
    int infer_found, infer_real;
    bool smatch_ok;
    int smatch_found, smatch_real;
    int cov_found, cov_real;
  };
  const Expected expected[] = {
      {"Linux", false, 0, 0, true, 147, 28, 157, 56},
      {"NFS-ganesha", true, 8, 2, false, 0, 0, 3, 3},
      {"MySQL", true, 45, 9, false, 0, 0, 4, 1},
      {"OpenSSL", true, 13, 3, false, 0, 0, 6, 4},
  };

  auto profiles = AllProfiles();
  for (size_t i = 0; i < profiles.size(); ++i) {
    GeneratedApp app = GenerateApp(profiles[i]);
    Project project = Project::FromRepository(app.repo);
    const Expected& e = expected[i];
    AnalysisReport report = RunBaselines(project, app.traits);

    // Clang finds nothing anywhere (§8.4.1: maintainers already clean its
    // warnings).
    ToolEval clang_eval = EvaluateChecker(app.truth, "Clang", report, "baseline-clang");
    EXPECT_EQ(clang_eval.found, 0) << e.app;

    ToolEval infer_eval = EvaluateChecker(app.truth, "Infer", report, "baseline-infer");
    EXPECT_EQ(infer_eval.ok, e.infer_ok) << e.app << ": " << infer_eval.error;
    if (e.infer_ok) {
      EXPECT_EQ(infer_eval.found, e.infer_found) << e.app;
      EXPECT_EQ(infer_eval.real, e.infer_real) << e.app;
    }

    ToolEval smatch_eval = EvaluateChecker(app.truth, "Smatch", report, "baseline-smatch");
    EXPECT_EQ(smatch_eval.ok, e.smatch_ok) << e.app << ": " << smatch_eval.error;
    if (e.smatch_ok) {
      EXPECT_EQ(smatch_eval.found, e.smatch_found) << e.app;
      EXPECT_EQ(smatch_eval.real, e.smatch_real) << e.app;
    }

    ToolEval cov_eval = EvaluateChecker(app.truth, "Coverity", report, "baseline-coverity");
    EXPECT_EQ(cov_eval.found, e.cov_found) << e.app;
    EXPECT_EQ(cov_eval.real, e.cov_real) << e.app;
  }
}

TEST(Reproduction, TotalsMatchPaperHeadline) {
  // 210 reported, 154 confirmed, 26% false positives; the ablated authorship
  // pool is ~2259 (§8.5.1).
  int found = 0;
  int real = 0;
  for (const ProjectProfile& profile : AllProfiles()) {
    AppRun run = RunApp(profile);
    found += static_cast<int>(run.report.findings.size());
    ToolEval eval = EvaluateLocations(run.app.truth, "VC", LocationsOf(run.report));
    real += eval.real;
  }
  EXPECT_EQ(found, 210);
  EXPECT_EQ(real, 154);
  EXPECT_NEAR(1.0 - static_cast<double>(real) / found, 0.26, 0.01);
}

TEST(Reproduction, WithoutAuthorshipPoolNear2259) {
  int pool = 0;
  for (const ProjectProfile& profile : AllProfiles()) {
    AnalysisOptions options;
    options.cross_scope_only = false;
    AppRun run = RunApp(profile, options);
    pool += static_cast<int>(run.report.findings.size());
  }
  EXPECT_NEAR(pool, 2259, 25);
}

// A report's tallies are sums of its per-file slices' tallies. Recounted
// over the flattened raw candidates, each one matches: per checker, the
// cross-scope filter's, every prune pattern's, and the survivors.
void ExpectTalliesRecount(const AnalysisReport& report, const AnalysisOptions& options,
                          const std::string& app) {
  std::vector<uint64_t> candidates(report.checker_stats.size(), 0);
  std::vector<uint64_t> findings(report.checker_stats.size(), 0);
  int kept = 0;
  int dropped = 0;
  int tested = 0;
  int survivors = 0;
  std::map<PruneReason, int> pruned;
  for (const UnusedDefCandidate& cand : report.raw_candidates) {
    ++candidates.at(static_cast<size_t>(cand.checker_index));
    if (options.cross_scope_only && !cand.cross_scope) {
      ++dropped;
      continue;
    }
    ++kept;
    if (cand.checker == "unused-def") {
      ++tested;
      ++pruned[cand.pruned_by];
    }
    survivors += cand.pruned_by == PruneReason::kNone ? 1 : 0;
  }
  for (const UnusedDefCandidate& finding : report.findings) {
    ++findings.at(static_cast<size_t>(finding.checker_index));
  }
  for (size_t c = 0; c < report.checker_stats.size(); ++c) {
    EXPECT_EQ(report.checker_stats[c].candidates, candidates[c]) << app << " checker " << c;
    EXPECT_EQ(report.checker_stats[c].findings, findings[c]) << app << " checker " << c;
  }
  const StageRecords& stages = report.stages;
  EXPECT_EQ(stages[Stage::kDetect].counts[kDetectCandidates],
            static_cast<int64_t>(report.raw_candidates.size()))
      << app;
  EXPECT_EQ(stages[Stage::kCrossScopeFilter].counts[kFilterKept], kept) << app;
  EXPECT_EQ(stages[Stage::kCrossScopeFilter].counts[kFilterDropped], dropped) << app;
  EXPECT_EQ(report.non_cross_scope, dropped) << app;
  EXPECT_EQ(stages[Stage::kPrune].counts[kPruneSurvivors], survivors) << app;
  EXPECT_EQ(static_cast<int>(report.findings.size()), survivors) << app;

  const PruneStats& stats = report.prune_stats;
  EXPECT_EQ(stats.original, kept) << app;
  EXPECT_EQ(stats.config_dependency, pruned[PruneReason::kConfigDependency]) << app;
  EXPECT_EQ(stats.cursor, pruned[PruneReason::kCursor]) << app;
  EXPECT_EQ(stats.unused_hints, pruned[PruneReason::kUnusedHint]) << app;
  EXPECT_EQ(stats.peer_definition, pruned[PruneReason::kPeerDefinition]) << app;
  EXPECT_EQ(stats.stale_code, 0) << app;
  EXPECT_EQ(stats.remaining, kept - stats.TotalPruned()) << app;
  // Each pattern tests what no earlier one pruned; stale code is off.
  EXPECT_EQ(stats.config_tested, tested) << app;
  EXPECT_EQ(stats.cursor_tested, stats.config_tested - stats.config_dependency) << app;
  EXPECT_EQ(stats.hints_tested, stats.cursor_tested - stats.cursor) << app;
  EXPECT_EQ(stats.peer_tested, stats.hints_tested - stats.unused_hints) << app;
  EXPECT_EQ(stats.stale_tested, 0) << app;
}

TEST(Reproduction, ReportTalliesEqualARecountOfTheRawCandidates) {
  for (const ProjectProfile& profile : AllProfiles()) {
    GeneratedApp app = GenerateApp(profile);
    AnalysisOptions options;  // every default checker
    AnalysisReport report = Analysis(options).RunOnRepository(app.repo);
    ASSERT_GT(report.checker_stats.size(), 1u) << app.name;
    EXPECT_GT(report.prune_stats.TotalPruned(), 0) << app.name;
    EXPECT_GT(report.raw_candidates.slices().size(), 1u) << app.name;
    ExpectTalliesRecount(report, options, app.name);
  }
}

TEST(Reproduction, RecallOnPriorBugs) {
  // §8.3.2: of the 39 known prior bugs, 37 detected; 2 lost to peer pruning.
  int total = 0;
  int detected = 0;
  int missed_by_peer = 0;
  for (const ProjectProfile& profile : AllProfiles()) {
    AppRun run = RunApp(profile);
    std::set<std::pair<std::string, int>> found;
    for (const UnusedDefCandidate& cand : run.report.findings) {
      found.insert({cand.file, cand.def_loc.line});
    }
    for (const GtSite& site : run.app.truth.sites()) {
      if (!site.prior_bug) {
        continue;
      }
      ++total;
      if (found.count({site.file, site.line}) > 0) {
        ++detected;
      } else if (site.expect_prune_reason == PruneReason::kPeerDefinition) {
        ++missed_by_peer;
      }
    }
  }
  EXPECT_EQ(total, 39);
  EXPECT_EQ(detected, 37);
  EXPECT_EQ(missed_by_peer, 2);
}

TEST(Reproduction, Figure9PrecisionAtTop10) {
  // 97.5% of the 40 top-10 findings (10 per application) are confirmed bugs.
  int real = 0;
  int total = 0;
  for (const ProjectProfile& profile : AllProfiles()) {
    AppRun run = RunApp(profile);
    for (const UnusedDefCandidate& cand : run.report.Top(10)) {
      ++total;
      const GtSite* site = run.app.truth.Match(cand.file, cand.def_loc.line);
      real += (site != nullptr && site->is_real_bug) ? 1 : 0;
    }
  }
  EXPECT_EQ(total, 40);
  EXPECT_EQ(real, 39);
}

TEST(Reproduction, RankingAblationsDropBugYield) {
  // Table 6's shape: every ablation finds at most as many top-20 bugs as the
  // full system, and removing authorship hurts the most.
  int full = 0;
  int no_auth = 0;
  int no_fam = 0;
  for (const ProjectProfile& profile : AllProfiles()) {
    auto count_top20 = [](const AppRun& run) {
      int real = 0;
      for (const UnusedDefCandidate& cand : run.report.Top(20)) {
        const GtSite* site = run.app.truth.Match(cand.file, cand.def_loc.line);
        real += (site != nullptr && site->is_real_bug) ? 1 : 0;
      }
      return real;
    };
    full += count_top20(RunApp(profile));
    AnalysisOptions na;
    na.cross_scope_only = false;
    no_auth += count_top20(RunApp(profile, na));
    AnalysisOptions nf;
    nf.ranking.enabled = false;
    no_fam += count_top20(RunApp(profile, nf));
  }
  EXPECT_EQ(full, 73);  // paper: 74
  EXPECT_LT(no_fam, full);
  EXPECT_LT(no_auth, no_fam);
}

TEST(Reproduction, ScaledProfilesPreserveOrdering) {
  // Down-scaled corpora (fast CI mode) keep the qualitative result: VC finds
  // more real bugs than every baseline with a lower FP rate.
  GeneratedApp app = GenerateApp(MysqlProfile().Scaled(0.2));
  Project project = Project::FromRepository(app.repo);
  AnalysisOptions vc_options;
  vc_options.checkers = {"unused-def"};
  AnalysisReport report = Analysis(vc_options).Run(project, &app.repo);
  ToolEval vc_eval = EvaluateLocations(app.truth, "VC", LocationsOf(report));
  ToolEval infer_eval = EvaluateChecker(app.truth, "Infer",
                                        RunBaselines(project, app.traits), "baseline-infer");
  EXPECT_GT(vc_eval.real, infer_eval.real);
  EXPECT_LT(vc_eval.FpRate(), infer_eval.FpRate());
}

// --- Checker-framework bug classes: exact per-checker precision/recall ----------

// A dedicated profile (not one of the paper's four) whose populations target
// the non-unused-def checkers. Because every site is labeled at injection,
// precision and recall per checker are exact, like the paper tables above.
ProjectProfile CheckerEvalProfile() {
  ProjectProfile p;
  p.name = "CheckerEval";
  p.seed = 0xc4ec;
  ProfileCounts& c = p.counts;
  c.double_overwrite = 6;
  c.dead_global_store = 5;
  c.out_param_unused = 4;
  c.stale_copy = 5;
  c.filler_functions = 25;
  c.maintainers = 4;
  c.drive_by = 12;
  return p;
}

TEST(CheckerFramework, PerCheckerPrecisionRecall) {
  GeneratedApp app = GenerateApp(CheckerEvalProfile());
  Project project = Project::FromRepository(app.repo);
  ASSERT_FALSE(project.diags().HasErrors())
      << project.diags().Render(project.sources()).substr(0, 2000);
  // Default checker set (every non-baseline checker), full pipeline.
  AnalysisReport report = Analysis().Run(project, &app.repo);

  struct Expected {
    const char* checker;
    SiteCategory category;
    int count;
  };
  const Expected expected[] = {
      {"double-overwrite", SiteCategory::kRealDoubleOverwrite, 6},
      {"dead-global-store", SiteCategory::kRealDeadGlobalStore, 5},
      {"out-param-unused", SiteCategory::kRealOutParamUnused, 4},
      {"stale-copy", SiteCategory::kRealStaleCopy, 5},
  };
  for (const Expected& e : expected) {
    ASSERT_EQ(app.truth.CountCategory(e.category), e.count) << e.checker;
    ToolEval eval = EvaluateChecker(app.truth, e.checker, report, e.checker);
    EXPECT_TRUE(eval.ok) << e.checker << ": " << eval.error;
    EXPECT_EQ(eval.found, e.count) << e.checker;     // recall: every site reported
    EXPECT_EQ(eval.real, e.count) << e.checker;      // precision: every report real
    EXPECT_EQ(eval.unmatched, 0) << e.checker;       // nothing outside the ledger
  }

  // The populations are invisible to the unused-definition detector: each
  // checker's findings are its own class, not another detector's echo.
  ToolEval unused = EvaluateChecker(app.truth, "unused-def", report, "unused-def");
  EXPECT_EQ(unused.found, 0);

  // Checker attribution on every finding, with disjoint fingerprint spaces.
  std::set<std::string> keys;
  for (const UnusedDefCandidate& cand : report.findings) {
    EXPECT_FALSE(cand.checker.empty());
    EXPECT_TRUE(keys.insert(cand.checker + "\x1f" + cand.fingerprint).second)
        << cand.checker << " " << cand.fingerprint;
  }
  EXPECT_EQ(static_cast<int>(report.findings.size()), 6 + 5 + 4 + 5);
}

}  // namespace
}  // namespace vc
