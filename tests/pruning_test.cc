// Pruning pipeline tests: each of the four patterns (§5, Table 1), threshold
// behavior, pipeline charging order, and the prune-universe semantics.

#include <gtest/gtest.h>

#include "src/core/authorship.h"
#include "src/core/detector.h"
#include "src/core/pruning.h"
#include "src/core/analysis.h"

namespace vc {
namespace {

struct Pruned {
  Project project;
  std::vector<UnusedDefCandidate> candidates;
  PruneStats stats;
};

Pruned RunPrune(const std::string& code, PruneOptions options = PruneOptions()) {
  Pruned p;
  p.project = Project::FromSources({{"test.c", code}});
  EXPECT_FALSE(p.project.diags().HasErrors())
      << p.project.diags().Render(p.project.sources());
  p.candidates = DetectAll(p.project);
  p.stats = RunPruning(p.project, p.candidates, options);
  return p;
}

PruneReason ReasonOf(const Pruned& p, const std::string& slot) {
  for (const UnusedDefCandidate& cand : p.candidates) {
    if (cand.slot_name == slot) {
      return cand.pruned_by;
    }
  }
  return PruneReason::kNone;
}

// --- Configuration dependency -------------------------------------------------

TEST(Pruning, ConfigDependencyMatchesDisabledUse) {
  Pruned p = RunPrune(
      "int mk(int);\n"
      "int f(int x) {\n"
      "  int host = mk(x);\n"
      "  int n = 1;\n"
      "#if USE_ICMP\n"
      "  n = ping(host);\n"
      "#endif\n"
      "  return n;\n"
      "}");
  EXPECT_EQ(ReasonOf(p, "host"), PruneReason::kConfigDependency);
  EXPECT_EQ(p.stats.config_dependency, 1);
}

TEST(Pruning, ConfigDependencyIgnoresOtherFunctions) {
  // The guarded use is in a different function: no prune.
  Pruned p = RunPrune(
      "int mk(int);\n"
      "int f(int x) {\n"
      "  int host = mk(x);\n"
      "  return x;\n"
      "}\n"
      "int g(int host2) {\n"
      "#if USE_ICMP\n"
      "  host2 = host2 + 1;\n"
      "#endif\n"
      "  return host2;\n"
      "}");
  EXPECT_EQ(ReasonOf(p, "host"), PruneReason::kNone);
}

TEST(Pruning, ConfigDependencyRequiresWordMatch) {
  Pruned p = RunPrune(
      "int mk(int);\n"
      "int f(int x) {\n"
      "  int host = mk(x);\n"
      "#if USE_ICMP\n"
      "  ping(hostname);\n"  // 'hostname' is not a use of 'host'
      "#endif\n"
      "  return x;\n"
      "}");
  EXPECT_EQ(ReasonOf(p, "host"), PruneReason::kNone);
}

TEST(Pruning, ConfigDependencyDisabled) {
  PruneOptions options;
  options.config_dependency = false;
  Pruned p = RunPrune(
      "int mk(int);\n"
      "int f(int x) {\n"
      "  int host = mk(x);\n"
      "  int n = 1;\n"
      "#if USE_ICMP\n"
      "  n = ping(host);\n"
      "#endif\n"
      "  return n;\n"
      "}",
      options);
  EXPECT_EQ(ReasonOf(p, "host"), PruneReason::kNone);
}

// --- Cursor ----------------------------------------------------------------------

constexpr const char* kCursorCode =
    "void f(char *o, char *base, int c) {\n"
    "  *o = c;\n"
    "  o = o + 1;\n"
    "  *o = 0;\n"
    "  o = o + 1;\n"
    "  o = base;\n"
    "  *o = 9;\n"
    "}";

TEST(Pruning, CursorPruned) {
  Pruned p = RunPrune(kCursorCode);
  EXPECT_EQ(ReasonOf(p, "o"), PruneReason::kCursor);
  EXPECT_EQ(p.stats.cursor, 1);
}

TEST(Pruning, SingleIncrementIsNotACursor) {
  // Only one increment of the variable: not "incremented repeatedly".
  Pruned p = RunPrune(
      "int g(int);\n"
      "int f(int a) {\n"
      "  int count = g(a);\n"
      "  count = count + 1;\n"  // unused increment, but the only one
      "  return a;\n"
      "}");
  EXPECT_EQ(ReasonOf(p, "count"), PruneReason::kNone);
}

TEST(Pruning, MixedStepIncrementsNotCursor) {
  // Increments by different constants: the repeated-same-constant rule fails.
  Pruned p = RunPrune(
      "void f(char *o, char *base, int c) {\n"
      "  *o = c;\n"
      "  o = o + 2;\n"
      "  *o = 0;\n"
      "  o = o + 1;\n"
      "  o = base;\n"
      "  *o = 9;\n"
      "}");
  EXPECT_EQ(ReasonOf(p, "o"), PruneReason::kNone);
}

TEST(Pruning, CursorDisabled) {
  PruneOptions options;
  options.cursor = false;
  Pruned p = RunPrune(kCursorCode, options);
  EXPECT_EQ(ReasonOf(p, "o"), PruneReason::kNone);
}

// --- Unused hints -------------------------------------------------------------------

TEST(Pruning, AttributeHintPruned) {
  Pruned p = RunPrune("int f(int a, int b [[maybe_unused]]) { return a; }");
  EXPECT_EQ(ReasonOf(p, "b"), PruneReason::kUnusedHint);
}

TEST(Pruning, CommentHintOnDefLinePruned) {
  Pruned p = RunPrune(
      "int g(int);\n"
      "int f(int a) {\n"
      "  int rc = g(a); /* result unused: best effort */\n"
      "  return a;\n"
      "}");
  EXPECT_EQ(ReasonOf(p, "rc"), PruneReason::kUnusedHint);
}

TEST(Pruning, HintIsCaseInsensitive) {
  Pruned p = RunPrune(
      "int g(int);\n"
      "int f(int a) {\n"
      "  int rc = g(a); // UNUSED by design\n"
      "  return a;\n"
      "}");
  EXPECT_EQ(ReasonOf(p, "rc"), PruneReason::kUnusedHint);
}

TEST(Pruning, NoHintNoPrune) {
  Pruned p = RunPrune(
      "int g(int);\n"
      "int f(int a) {\n"
      "  int rc = g(a);\n"
      "  return a;\n"
      "}");
  EXPECT_EQ(ReasonOf(p, "rc"), PruneReason::kNone);
}

// --- Peer definitions ------------------------------------------------------------------

std::string PeerCode(int ignoring_sites, int checking_sites) {
  std::string code = "int klog(int lvl);\n";
  for (int i = 0; i < ignoring_sites; ++i) {
    code += "void ig" + std::to_string(i) + "(int v) { klog(v + " + std::to_string(i) +
            "); }\n";
  }
  for (int i = 0; i < checking_sites; ++i) {
    std::string t = std::to_string(i);
    code += "int ck" + t + "(int v) { int s" + t + " = klog(v); return s" + t + "; }\n";
  }
  return code;
}

TEST(Pruning, PeerPrunesWidelyIgnoredReturn) {
  Pruned p = RunPrune(PeerCode(12, 0));
  EXPECT_EQ(p.stats.peer_definition, 12);
  EXPECT_EQ(p.stats.remaining, 0);
}

TEST(Pruning, PeerRespectsOccurrenceThreshold) {
  // Exactly 10 occurrences: "over ten" not met, nothing pruned.
  Pruned p = RunPrune(PeerCode(10, 0));
  EXPECT_EQ(p.stats.peer_definition, 0);
}

TEST(Pruning, PeerRespectsUnusedFraction) {
  // 6 ignoring vs 6 checking: half unused, not over half.
  Pruned p = RunPrune(PeerCode(6, 6));
  EXPECT_EQ(p.stats.peer_definition, 0);
  // 8 ignoring vs 4 checking: 2/3 unused, pruned.
  p = RunPrune(PeerCode(8, 4));
  EXPECT_EQ(p.stats.peer_definition, 8);
}

TEST(Pruning, PeerCountsAssignedButUnusedAsUnused) {
  // 6 ignored + 6 assigned-but-dead: all 12 peers unused -> prune everything.
  std::string code = "int klog(int lvl);\nint g(int);\n";
  for (int i = 0; i < 6; ++i) {
    code += "void ig" + std::to_string(i) + "(int v) { klog(v + " + std::to_string(i) +
            "); }\n";
  }
  for (int i = 0; i < 6; ++i) {
    std::string t = std::to_string(i);
    code += "int dd" + t + "(int v) { int s" + t + " = klog(v); s" + t + " = g(v); return s" +
            t + "; }\n";
  }
  Pruned p = RunPrune(code);
  // 6 synthetic + 6 assigned-dead, all charged to peer pruning.
  EXPECT_EQ(p.stats.peer_definition, 12);
}

TEST(Pruning, PeerParamGroupsBySignature) {
  // 12 same-signature callbacks all ignoring their second parameter.
  std::string code;
  for (int i = 0; i < 12; ++i) {
    std::string t = std::to_string(i);
    code += "int cb" + t + "(int a, int b" + t + ") { return a + " + t + "; }\n";
  }
  Pruned p = RunPrune(code);
  EXPECT_EQ(p.stats.peer_definition, 12);

  // Same shape but distinct signatures: no group reaches the threshold.
  std::string code2;
  for (int i = 0; i < 12; ++i) {
    std::string t = std::to_string(i);
    // Vary arity to split signatures.
    code2 += "int db" + t + "(int a, int b" + t;
    for (int k = 0; k < i % 3; ++k) {
      code2 += ", int extra" + t + "_" + std::to_string(k);
    }
    code2 += ") { return a";
    for (int k = 0; k < i % 3; ++k) {
      code2 += " + extra" + t + "_" + std::to_string(k);
    }
    code2 += "; }\n";
  }
  Pruned p2 = RunPrune(code2);
  EXPECT_EQ(p2.stats.peer_definition, 0);
}

TEST(Pruning, PeerCountsEveryAssignedSiteOnALineWithADeadResult) {
  // 12 klog sites: 5 ignored, 5 assigned and used, and one line assigning two
  // results of which only `a` is dead. Dead results are matched to call sites
  // by line, so both sites on that line count as unused: 7 of 12, more than
  // half, and every dead klog result is pruned.
  std::string code = PeerCode(5, 5);
  code += "int two(int v) {\n  int a = klog(v); int b = klog(v);\n  return b;\n}\n";
  Pruned p = RunPrune(code);
  EXPECT_EQ(ReasonOf(p, "a"), PruneReason::kPeerDefinition);
  EXPECT_EQ(p.stats.peer_definition, 6);
}

TEST(Pruning, PeerParamGroupCountsADuplicateNameWithEveryDefinersMarks) {
  // 11 same-signature functions, 6 leaving `b` unused, plus `dup`, defined
  // in two files: it is one member of the group, and the losing definer's
  // unused `b` marks it. 7 of 12 is more than half.
  std::string peers;
  for (int i = 0; i < 11; ++i) {
    peers += "int p" + std::to_string(i) + "(int a, int b) { return a" +
             (i < 6 ? "" : " + b") + "; }\n";
  }
  Project project = Project::FromSources({{"a.c", "int dup(int a, int b) { return a; }\n"},
                                          {"b.c", "int dup(int a, int b) { return a + b; }\n"},
                                          {"peers.c", peers}});
  std::vector<UnusedDefCandidate> candidates = DetectAll(project);
  PruneStats stats = RunPruning(project, candidates);
  EXPECT_EQ(stats.peer_definition, 7);
}

TEST(Pruning, PeerUniverseSeparateFromPrunedList) {
  // The cross-scope pool contains one candidate, but the usage universe
  // (all candidates) shows the callee is widely ignored: still pruned.
  Project project = Project::FromSources({{"test.c", PeerCode(12, 0)}});
  std::vector<UnusedDefCandidate> all = DetectAll(project);
  ASSERT_EQ(all.size(), 12u);
  std::vector<UnusedDefCandidate> pool = {all[0]};
  PruneStats stats = RunPruning(project, pool, PruneOptions(), &all);
  EXPECT_EQ(stats.peer_definition, 1);

  // Without the universe, a single call site cannot reach the threshold...
  std::vector<UnusedDefCandidate> pool2 = {all[0]};
  PruneStats stats2 = RunPruning(project, pool2, PruneOptions());
  // ...but occurrences come from the project call-site index, which is
  // unchanged, so the callee still counts 12 occurrences. What changes is the
  // unused fraction: only 1 of 12 known-unused -> below 0.5 -> kept.
  EXPECT_EQ(stats2.peer_definition, 1);  // ignored call sites count regardless
}

TEST(Pruning, MarksAndStatsIdenticalAcrossJobs) {
  // The PeerUniverseSeparateFromPrunedList shape with more patterns in play,
  // pruned across eight lanes and on one: both runs must mark the same
  // candidates with the same reasons and count the same tests.
  std::string code = PeerCode(12, 0);
  code += "void cur(char *o, char *base, int c) {\n"
          "  *o = c;\n"
          "  o = o + 1;\n"
          "  *o = 0;\n"
          "  o = o + 1;\n"
          "  o = base;\n"
          "  *o = 9;\n"
          "}\n";
  code += "int hinted(int a, int b [[maybe_unused]]) { return a; }\n";
  code += "int g(int);\nint kept(int a) {\n  int rc = g(a);\n  return a;\n}\n";
  Project project = Project::FromSources({{"test.c", code}});
  std::vector<UnusedDefCandidate> all = DetectAll(project);
  ASSERT_GT(all.size(), 12u);
  // Two ignored klog results stay out of the pool but count as peers.
  const std::vector<UnusedDefCandidate> base_pool(all.begin() + 2, all.end());

  auto prune = [&](int jobs, PruneStats& stats) {
    std::vector<UnusedDefCandidate> pool = base_pool;
    stats = RunPruning(project, pool, PruneOptions(), &all, nullptr, jobs);
    std::vector<PruneReason> marks;
    for (const UnusedDefCandidate& cand : pool) {
      marks.push_back(cand.pruned_by);
    }
    return marks;
  };
  auto counts = [](const PruneStats& s) {
    return std::vector<int>{s.original,      s.config_dependency, s.cursor,
                            s.unused_hints,  s.peer_definition,   s.stale_code,
                            s.remaining,     s.config_tested,     s.cursor_tested,
                            s.hints_tested,  s.peer_tested,       s.stale_tested};
  };
  PruneStats serial;
  PruneStats parallel;
  std::vector<PruneReason> serial_marks = prune(1, serial);
  std::vector<PruneReason> parallel_marks = prune(8, parallel);
  EXPECT_EQ(parallel_marks, serial_marks);
  EXPECT_EQ(counts(parallel), counts(serial));
  EXPECT_EQ(serial.peer_definition, 10);
  EXPECT_EQ(serial.cursor, 1);
  EXPECT_EQ(serial.unused_hints, 1);
  EXPECT_GE(serial.remaining, 1);
}

// --- Pipeline order -----------------------------------------------------------------------

TEST(Pruning, EarlierPatternGetsTheCharge) {
  // A candidate that is both attribute-hinted and config-guarded: config
  // dependency runs first in the pipeline and takes the charge (the paper
  // notes prune counts reflect pipeline order).
  Pruned p = RunPrune(
      "int mk(int);\n"
      "int f(int x) {\n"
      "  int host [[maybe_unused]] = mk(x);\n"
      "  int n = 1;\n"
      "#if USE_ICMP\n"
      "  n = ping(host);\n"
      "#endif\n"
      "  return n;\n"
      "}");
  EXPECT_EQ(ReasonOf(p, "host"), PruneReason::kConfigDependency);
  EXPECT_EQ(p.stats.config_dependency, 1);
  EXPECT_EQ(p.stats.unused_hints, 0);
}

// --- Stale-code extension (off by default) --------------------------------------

TEST(Pruning, StaleCodeDisabledByDefault) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  AuthorId b = repo.AddAuthor("b");
  std::string v1 =
      "int g(int);\n"
      "int f(int m) {\n"
      "  int probe = g(m);\n"
      "  return m;\n"
      "}\n";
  repo.AddCommit(a, 1000, "add debug probe counters", {{"x.c", v1}});
  repo.AddCommit(b, 2000, "extend", {{"x.c", v1 + "int h(int q) {\n  return q;\n}\n"}});
  AnalysisReport report = Analysis().RunOnRepository(repo);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.prune_stats.stale_code, 0);
}

TEST(Pruning, StaleCodePrunesDebugCommit) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  AuthorId b = repo.AddAuthor("b");
  std::string v1 =
      "int g(int);\n"
      "int f(int m) {\n"
      "  int probe = g(m);\n"
      "  return m;\n"
      "}\n";
  repo.AddCommit(a, 1000, "add debug probe counters", {{"x.c", v1}});
  repo.AddCommit(b, 2000, "extend", {{"x.c", v1 + "int h(int q) {\n  return q;\n}\n"}});
  AnalysisOptions options;
  options.prune.stale_code = true;
  AnalysisReport report = Analysis(options).RunOnRepository(repo);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.prune_stats.stale_code, 1);
}

TEST(Pruning, StaleCodeSparesOrdinaryCommits) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  AuthorId b = repo.AddAuthor("b");
  std::string v1 =
      "int g(int);\n"
      "int f(int m) {\n"
      "  int probe = g(m);\n"
      "  return m;\n"
      "}\n";
  repo.AddCommit(a, 1000, "add status probe", {{"x.c", v1}});
  repo.AddCommit(b, 2000, "extend", {{"x.c", v1 + "int h(int q) {\n  return q;\n}\n"}});
  AnalysisOptions options;
  options.prune.stale_code = true;
  AnalysisReport report = Analysis(options).RunOnRepository(repo);
  EXPECT_EQ(report.findings.size(), 1u);
}

TEST(Pruning, StaleCodeUntouchedFunctionWithDebugLine) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  AuthorId b = repo.AddAuthor("b");
  constexpr int64_t kDay = 86400;
  std::string v1 =
      "int g(int);\n"
      "int f(int m) {\n"
      "  int probe = g(m); /* debug trace */\n"
      "  return m;\n"
      "}\n";
  // Function written long ago and never touched; a recent commit elsewhere
  // sets "now".
  repo.AddCommit(a, 1000, "add tracing path", {{"x.c", v1}});
  repo.AddCommit(b, 1000 + 900 * kDay, "unrelated",
                 {{"x.c", v1 + "int h(int q) {\n  return q;\n}\n"}});
  AnalysisOptions options;
  options.prune.stale_code = true;
  options.prune.stale_days = 730;
  AnalysisReport report = Analysis(options).RunOnRepository(repo);
  // The hint pattern would also match the "debug" comment? No: hints match
  // the literal keyword "unused" only. Stale-code takes it.
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.prune_stats.stale_code, 1);
}

TEST(Pruning, StatsAccounting) {
  Pruned p = RunPrune(PeerCode(12, 0));
  EXPECT_EQ(p.stats.original, 12);
  EXPECT_EQ(p.stats.TotalPruned(), 12);
  EXPECT_EQ(p.stats.remaining, 0);
}

}  // namespace
}  // namespace vc
