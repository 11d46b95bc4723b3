// End-to-end tests of the ValueCheck pipeline on hand-written projects with
// synthesized commit histories, covering the paper's motivating examples:
// Fig. 1a (overwritten definition), Fig. 1b (overwritten parameter),
// Fig. 8 (overwritten return value missed by other tools).

#include "src/core/analysis.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "src/core/authorship.h"
#include "src/core/detector.h"
#include "src/vcs/repository.h"

namespace vc {
namespace {

// Builds a two-author repository in which `alice_code` is committed first and
// then `bob_lines` get inserted (by matching the final content). The final
// content must contain every line of `alice_code` unchanged so blame
// attributes precisely.
class TwoAuthorRepo {
 public:
  TwoAuthorRepo() {
    alice_ = repo_.AddAuthor("alice");
    bob_ = repo_.AddAuthor("bob");
  }

  void Commit(AuthorId who, const std::string& path, const std::string& content,
              const std::string& message = "change") {
    repo_.AddCommit(who, next_time_++, message, {{path, content}});
  }

  Repository repo_;
  AuthorId alice_;
  AuthorId bob_;
  int64_t next_time_ = 1000;
};

TEST(CorePipeline, Fig8OverwrittenRetvalCrossScope) {
  TwoAuthorRepo two;
  // Alice writes the original function where ret is checked.
  std::string v1 =
      "int get_permset(int en) {\n"
      "  return en + 1;\n"
      "}\n"
      "int calc_mask(int m) {\n"
      "  return m * 2;\n"
      "}\n"
      "int fsal_acl_posix(int en, int m) {\n"
      "  int ret = get_permset(en);\n"
      "  if (ret) {\n"
      "    return 0;\n"
      "  }\n"
      "  return 1;\n"
      "}\n";
  // Bob inserts the calc_mask call, making Alice's definition unused.
  std::string v2 =
      "int get_permset(int en) {\n"
      "  return en + 1;\n"
      "}\n"
      "int calc_mask(int m) {\n"
      "  return m * 2;\n"
      "}\n"
      "int fsal_acl_posix(int en, int m) {\n"
      "  int ret = get_permset(en);\n"
      "  ret = calc_mask(m);\n"
      "  if (ret) {\n"
      "    return 0;\n"
      "  }\n"
      "  return 1;\n"
      "}\n";
  two.Commit(two.alice_, "acl.c", v1, "add posix acl support");
  two.Commit(two.bob_, "acl.c", v2, "fix mask calculation");

  AnalysisReport report = Analysis().RunOnRepository(two.repo_);
  ASSERT_EQ(report.findings.size(), 1u);
  const UnusedDefCandidate& cand = report.findings[0];
  EXPECT_EQ(cand.function, "fsal_acl_posix");
  EXPECT_EQ(cand.slot_name, "ret");
  EXPECT_EQ(cand.def_loc.line, 8);
  EXPECT_TRUE(cand.cross_scope);
  EXPECT_EQ(cand.kind, CandidateKind::kOverwrittenDef);
  EXPECT_EQ(cand.def_author, two.alice_);
  EXPECT_EQ(cand.responsible_author, two.bob_);
}

TEST(CorePipeline, SameAuthorOverwriteIsNotCrossScope) {
  TwoAuthorRepo two;
  std::string v1 =
      "int helper(int x) {\n"
      "  return x + 1;\n"
      "}\n"
      "int work(int x) {\n"
      "  int ret = helper(x);\n"
      "  ret = helper(x + 1);\n"
      "  return ret;\n"
      "}\n";
  two.Commit(two.alice_, "work.c", v1);

  AnalysisReport report = Analysis().RunOnRepository(two.repo_);
  EXPECT_TRUE(report.findings.empty());
  // The candidate exists but is same-author.
  ASSERT_EQ(report.non_cross_scope, 1);
}

TEST(CorePipeline, Fig1bOverwrittenParameterCrossScope) {
  TwoAuthorRepo two;
  // Bob implements logfile_mod_open overwriting bufsz; Alice's call site
  // passes a configured size that therefore has no effect.
  std::string v1 =
      "int logfile_mod_open(int path, int bufsz) {\n"
      "  bufsz = 1400;\n"
      "  if (bufsz > path) {\n"
      "    return bufsz;\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  std::string v2 =
      "int logfile_mod_open(int path, int bufsz) {\n"
      "  bufsz = 1400;\n"
      "  if (bufsz > path) {\n"
      "    return bufsz;\n"
      "  }\n"
      "  return 0;\n"
      "}\n"
      "int open_headers_log(int p) {\n"
      "  int h = logfile_mod_open(p, 0);\n"
      "  return h;\n"
      "}\n";
  two.Commit(two.bob_, "logfile.c", v1, "add logfile module");
  two.Commit(two.alice_, "logfile.c", v2, "open headers log");

  AnalysisReport report = Analysis().RunOnRepository(two.repo_);
  ASSERT_EQ(report.findings.size(), 1u);
  const UnusedDefCandidate& cand = report.findings[0];
  EXPECT_EQ(cand.kind, CandidateKind::kOverwrittenParam);
  EXPECT_EQ(cand.slot_name, "bufsz");
  EXPECT_TRUE(cand.is_param);
  EXPECT_TRUE(cand.overwritten);
  EXPECT_EQ(cand.responsible_author, two.bob_);
}

TEST(CorePipeline, LibraryRetvalIgnoredIsCrossScope) {
  TwoAuthorRepo two;
  // write() is not defined in the project: library call, implicitly
  // cross-author. Single call site, so peer pruning cannot fire.
  std::string v1 =
      "int flush(int fd, int n) {\n"
      "  write(fd, n);\n"
      "  return 0;\n"
      "}\n";
  two.Commit(two.alice_, "io.c", v1);

  AnalysisReport report = Analysis().RunOnRepository(two.repo_);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, CandidateKind::kUnusedRetVal);
  EXPECT_TRUE(report.findings[0].is_synthetic);
}

TEST(CorePipeline, CursorPatternIsPruned) {
  TwoAuthorRepo two;
  std::string v1 =
      "void dashes_to_underscores(char *output, int c) {\n"
      "  char *o = output;\n"
      "  if (c == 45) {\n"
      "    *o = 95;\n"
      "    o = o + 1;\n"
      "  }\n"
      "  *o = 0;\n"
      "  o = o + 1;\n"
      "}\n";
  two.Commit(two.alice_, "str.c", v1, "add converter");
  std::string v2 = v1 + "int use_it(char *buf) {\n  dashes_to_underscores(buf, 45);\n  return 0;\n}\n";
  two.Commit(two.bob_, "str.c", v2, "use converter");

  // The trailing increment is not on an authorship boundary, so run without
  // the cross-scope filter to exercise the pruning stage on it.
  AnalysisOptions options;
  options.cross_scope_only = false;
  AnalysisReport report = Analysis(options).RunOnRepository(two.repo_);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_GE(report.prune_stats.cursor, 1);
}

TEST(CorePipeline, UnusedHintIsPruned) {
  TwoAuthorRepo two;
  std::string v1 =
      "int do_flush_info(int force [[maybe_unused]], int x) {\n"
      "  return x;\n"
      "}\n";
  std::string v2 = v1 +
      "int caller(int x) {\n"
      "  return do_flush_info(1, x);\n"
      "}\n";
  two.Commit(two.alice_, "flush.c", v1);
  two.Commit(two.bob_, "flush.c", v2);

  AnalysisReport report = Analysis().RunOnRepository(two.repo_);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.prune_stats.unused_hints, 1);
}

TEST(CorePipeline, ConfigGuardedUseIsPruned) {
  TwoAuthorRepo two;
  // get_addr is a library function, so the unused `host` definition is
  // cross-scope (scenario 1) and reaches the pruning stage.
  std::string v1 =
      "int netdbLookupHost(int h);\n"
      "int probe(int x) {\n"
      "  int host = get_addr(x);\n"
      "  int n = 0;\n"
      "#if USE_ICMP\n"
      "  n = netdbLookupHost(host);\n"
      "#endif\n"
      "  return n;\n"
      "}\n";
  two.Commit(two.alice_, "net.c", v1);
  std::string v2 = v1 + "int c1(int x) {\n  return probe(x);\n}\n";
  two.Commit(two.bob_, "net.c", v2);

  // USE_ICMP is not defined: the use of `host` is not compiled, but the
  // configuration-dependency pruning must find it in the raw region text.
  AnalysisReport report = Analysis().RunOnRepository(two.repo_);
  for (const UnusedDefCandidate& cand : report.findings) {
    EXPECT_NE(cand.slot_name, "host") << "config-guarded use must be pruned";
  }
  EXPECT_GE(report.prune_stats.config_dependency, 1);
}

TEST(CorePipeline, RawCandidatesRecordWhatPrunedThem) {
  TwoAuthorRepo two;
  // Both functions ignore a hinted parameter. Bob calls do_flush_info, so its
  // `force` is cross-scope and the hint prunes it; only Alice calls
  // local_only, so the filter drops `quiet` before pruning ever tests it.
  std::string v1 =
      "int do_flush_info(int force [[maybe_unused]], int x) {\n"
      "  return x;\n"
      "}\n"
      "int local_only(int quiet [[maybe_unused]], int x) {\n"
      "  return x;\n"
      "}\n"
      "int own_caller(int x) {\n"
      "  return local_only(0, x);\n"
      "}\n";
  std::string v2 = v1 +
      "int caller(int x) {\n"
      "  return do_flush_info(1, x);\n"
      "}\n";
  two.Commit(two.alice_, "flush.c", v1);
  two.Commit(two.bob_, "flush.c", v2);

  AnalysisReport report = Analysis().RunOnRepository(two.repo_);
  std::map<PruneReason, int> tally;
  int dropped = 0;
  for (const UnusedDefCandidate& cand : report.raw_candidates) {
    ++tally[cand.pruned_by];
    if (!cand.cross_scope) {
      ++dropped;
      EXPECT_EQ(cand.pruned_by, PruneReason::kNone) << cand.slot_name;
    }
  }
  const PruneStats& stats = report.prune_stats;
  EXPECT_EQ(stats.unused_hints, 1);
  EXPECT_EQ(dropped, report.non_cross_scope);
  EXPECT_GE(dropped, 1);
  EXPECT_EQ(tally[PruneReason::kConfigDependency], stats.config_dependency);
  EXPECT_EQ(tally[PruneReason::kCursor], stats.cursor);
  EXPECT_EQ(tally[PruneReason::kUnusedHint], stats.unused_hints);
  EXPECT_EQ(tally[PruneReason::kPeerDefinition], stats.peer_definition);
  EXPECT_EQ(tally[PruneReason::kStaleCode], stats.stale_code);
  EXPECT_EQ(tally[PruneReason::kNone],
            static_cast<int>(report.raw_candidates.size()) - stats.TotalPruned());
}

TEST(CorePipeline, PeerDefinitionPruningSuppressesPrintfLikeCalls) {
  TwoAuthorRepo two;
  // 12 call sites of log_msg, all ignoring the result: peer pruning drops
  // every one of them (occurrences > 10, unused fraction > 0.5).
  std::string code = "int log_msg(int level);\n";
  for (int i = 0; i < 12; ++i) {
    code += "int op" + std::to_string(i) + "(int x) {\n";
    code += "  log_msg(x);\n";
    code += "  return x + " + std::to_string(i) + ";\n";
    code += "}\n";
  }
  two.Commit(two.alice_, "ops.c", code);

  AnalysisReport report = Analysis().RunOnRepository(two.repo_);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.prune_stats.peer_definition, 12);
}

TEST(CorePipeline, FieldSensitiveDetection) {
  TwoAuthorRepo two;
  std::string v1 =
      "struct ctx { int host; int port; };\n"
      "int assign_host(int h);\n"
      "int setup(int h, int p) {\n"
      "  struct ctx sctx;\n"
      "  sctx.host = h;\n"
      "  sctx.port = p;\n"
      "  return assign_host(sctx.port);\n"
      "}\n";
  two.Commit(two.alice_, "ctx.c", v1, "initial");
  // Bob overwrites the host field without the first value ever being read.
  std::string v2 =
      "struct ctx { int host; int port; };\n"
      "int assign_host(int h);\n"
      "int setup(int h, int p) {\n"
      "  struct ctx sctx;\n"
      "  sctx.host = h;\n"
      "  sctx.host = 0;\n"
      "  sctx.port = p;\n"
      "  return assign_host(sctx.port);\n"
      "}\n";
  two.Commit(two.bob_, "ctx.c", v2, "reset host");

  AnalysisReport report = Analysis().RunOnRepository(two.repo_);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_TRUE(report.findings[0].is_field_slot);
  EXPECT_EQ(report.findings[0].slot_name, "sctx#0");
  EXPECT_EQ(report.findings[0].kind, CandidateKind::kOverwrittenDef);
}

TEST(CorePipeline, AddressTakenSlotIsSuppressed) {
  TwoAuthorRepo two;
  std::string v1 =
      "int fill(int *out);\n"
      "int getval(int x) {\n"
      "  int pset = x;\n"
      "  fill(&pset);\n"
      "  int r = pset;\n"
      "  pset = 0;\n"
      "  return r;\n"
      "}\n";
  two.Commit(two.alice_, "a.c", v1);
  std::string v2 = v1 + "int c2(int x) {\n  return getval(x);\n}\n";
  two.Commit(two.bob_, "a.c", v2);

  AnalysisReport report = Analysis().RunOnRepository(two.repo_);
  for (const UnusedDefCandidate& cand : report.findings) {
    EXPECT_NE(cand.slot_name, "pset");
  }
}

TEST(CorePipeline, RankingOrdersByFamiliarity) {
  Repository repo;
  AuthorId veteran = repo.AddAuthor("veteran");
  AuthorId newcomer = repo.AddAuthor("newcomer");

  // veteran owns f1.c with many commits; newcomer makes a drive-by change
  // introducing an unused def. In f2.c the roles are reversed but the
  // newcomer file has fewer commits.
  std::string f1_base =
      "int helper(int x) {\n"
      "  return x + 1;\n"
      "}\n"
      "int work(int x) {\n"
      "  int ret = helper(x);\n"
      "  return ret;\n"
      "}\n";
  repo.AddCommit(veteran, 1, "create f1", {{"f1.c", f1_base}});
  for (int i = 0; i < 8; ++i) {
    std::string updated = f1_base + "int extra" + std::to_string(i) + "(int v) {\n  return v;\n}\n";
    repo.AddCommit(veteran, 2 + i, "evolve f1 " + std::to_string(i), {{"f1.c", updated}});
    f1_base = updated;
  }
  // Newcomer breaks the dataflow in veteran's file.
  std::string f1_buggy = f1_base;
  f1_buggy.replace(f1_buggy.find("  return ret;"), 13, "  ret = helper(x + 2);\n  return ret;");
  repo.AddCommit(newcomer, 100, "tweak work", {{"f1.c", f1_buggy}});

  // Veteran also leaves an unused def in a file he co-owns heavily... use a
  // second pair where the responsible author is the veteran with high DOK.
  std::string f2 =
      "int helper2(int x) {\n"
      "  return x - 1;\n"
      "}\n"
      "int work2(int x) {\n"
      "  int ret = helper2(x);\n"
      "  return ret;\n"
      "}\n";
  repo.AddCommit(newcomer, 101, "create f2", {{"f2.c", f2}});
  std::string f2_buggy = f2;
  f2_buggy.replace(f2_buggy.find("  return ret;"), 13, "  ret = helper2(x + 2);\n  return ret;");
  repo.AddCommit(veteran, 102, "tweak work2", {{"f2.c", f2_buggy}});
  for (int i = 0; i < 8; ++i) {
    std::string updated =
        f2_buggy + "int pad" + std::to_string(i) + "(int v) {\n  return v;\n}\n";
    repo.AddCommit(veteran, 103 + i, "evolve f2 " + std::to_string(i), {{"f2.c", updated}});
    f2_buggy = updated;
  }

  AnalysisReport report = Analysis().RunOnRepository(repo);
  ASSERT_EQ(report.findings.size(), 2u);
  // The newcomer's finding (low familiarity) ranks first.
  EXPECT_EQ(report.findings[0].responsible_author, newcomer);
  EXPECT_EQ(report.findings[1].responsible_author, veteran);
  EXPECT_LT(report.findings[0].familiarity, report.findings[1].familiarity);
}

// A report's findings point into the slices it shares: a copy or a move of
// the report reads them after the original is gone.
TEST(CorePipeline, ReportCopiesAndMovesKeepTheirFindings) {
  AnalysisOptions options;
  options.cross_scope_only = false;
  options.ranking.enabled = false;
  std::optional<AnalysisReport> original = Analysis(options).RunOnSources(
      {{"a.c", "int f(void) {\n  int x = 1;\n  x = 2;\n  return x;\n}\n"},
       {"b.c", "int g(int y) {\n  int z = y;\n  z = 3;\n  return z;\n}\n"}});
  ASSERT_EQ(original->findings.size(), 2u);
  const std::string csv = original->ToCsv();
  AnalysisReport copy = *original;
  AnalysisReport moved = std::move(*original);
  original.reset();
  EXPECT_EQ(moved.ToCsv(), csv);
  moved = AnalysisReport();
  EXPECT_EQ(copy.ToCsv(), csv);
  EXPECT_EQ(copy.findings[1].file, "b.c");
}

}  // namespace
}  // namespace vc
