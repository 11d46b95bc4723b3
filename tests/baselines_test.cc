// Baseline-checker envelope tests: what each §8.4 comparison tool must and
// must not detect, per the paper's characterization. The baselines run
// through the same checker framework as everything else: one checker per run,
// raw envelope (no cross-scope filter, no ranking), capability gaps surfacing
// as checker-stage quarantine records.

#include <gtest/gtest.h>

#include "src/core/analysis.h"

namespace vc {
namespace {

Project Make(const std::string& code) {
  Project project = Project::FromSources({{"test.c", code}});
  EXPECT_FALSE(project.diags().HasErrors()) << project.diags().Render(project.sources());
  return project;
}

AnalysisReport RunChecker(const Project& project, const std::string& checker,
                          ProjectTraits traits = ProjectTraits()) {
  AnalysisOptions options;
  options.checkers = {checker};
  options.traits = traits;
  options.cross_scope_only = false;
  options.ranking.enabled = false;
  return Analysis(options).Run(project);
}

bool Unsupported(const AnalysisReport& report, const std::string& checker) {
  for (const QuarantinedUnit& unit : report.quarantined) {
    if (unit.stage == "checker" && unit.checker == checker) {
      return true;
    }
  }
  return false;
}

bool Reports(const AnalysisReport& report, const std::string& slot, int line = -1) {
  for (const UnusedDefCandidate& cand : report.findings) {
    if (cand.slot_name == slot && (line < 0 || cand.def_loc.line == line)) {
      return true;
    }
  }
  return false;
}

// The paper's Fig. 8: ret = get_permset() overwritten by another call, with a
// later if (ret) check. ValueCheck finds it; every baseline misses it.
constexpr const char* kFig8 =
    "int get_permset(int en) { return en + 1; }\n"
    "int calc_mask(int m) { return m * 2; }\n"
    "int fsal_acl_posix(int en, int m) {\n"
    "  int ret = get_permset(en);\n"
    "  if (en > 9) {\n"
    "    m = m + en;\n"
    "  }\n"
    "  ret = calc_mask(m);\n"
    "  if (ret) {\n"
    "    return 0;\n"
    "  }\n"
    "  return 1;\n"
    "}\n";

// --- baseline-clang ----------------------------------------------------------

TEST(ClangUnused, ReportsNeverReadVariable) {
  Project project = Make("int g(int);\nint f(int a) { int dead = g(a); return a; }");
  AnalysisReport report = RunChecker(project, "baseline-clang");
  EXPECT_TRUE(Reports(report, "dead"));
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings[0].note, "variable set but never used");
  EXPECT_EQ(report.findings[0].checker, "baseline-clang");
  EXPECT_TRUE(report.findings[0].from_baseline);
}

TEST(ClangUnused, ReportsDeclaredNeverTouched) {
  Project project = Make("int f(int a) { int ghost; return a; }");
  EXPECT_TRUE(Reports(RunChecker(project, "baseline-clang"), "ghost"));
}

TEST(ClangUnused, AnyReadHidesDeadStore) {
  // Flow-insensitive: the read after the overwrite makes the variable "used".
  Project project = Make(kFig8);
  EXPECT_TRUE(RunChecker(project, "baseline-clang").findings.empty());
}

TEST(ClangUnused, AddressTakenNotReported) {
  Project project = Make("void g(int *);\nvoid f(void) { int x = 1; g(&x); }");
  EXPECT_TRUE(RunChecker(project, "baseline-clang").findings.empty());
}

TEST(ClangUnused, AttributeSuppresses) {
  Project project = Make("int g(int);\nint f(int a) { int d [[maybe_unused]] = g(a); return a; }");
  EXPECT_TRUE(RunChecker(project, "baseline-clang").findings.empty());
}

TEST(ClangUnused, ParamsNotReported) {
  Project project = Make("int f(int a, int unused_p) { return a; }");
  EXPECT_TRUE(RunChecker(project, "baseline-clang").findings.empty());
}

// --- baseline-infer ----------------------------------------------------------

TEST(InferUnused, DetectsDeadStoreAcrossBlocks) {
  Project project = Make(kFig8);
  EXPECT_TRUE(Reports(RunChecker(project, "baseline-infer"), "ret", 4));
}

TEST(InferUnused, FailsOnKernelExtensions) {
  Project project = Make("int f(int a) { return a; }");
  ProjectTraits traits;
  traits.uses_kernel_extensions = true;
  AnalysisReport report = RunChecker(project, "baseline-infer", traits);
  EXPECT_TRUE(Unsupported(report, "baseline-infer"));
  EXPECT_TRUE(report.findings.empty());
}

TEST(InferUnused, SkipsZeroInitializer) {
  Project project = Make(
      "int g(int);\n"
      "int f(int a) { int ret = 0; ret = g(a); return ret; }");
  EXPECT_TRUE(RunChecker(project, "baseline-infer").findings.empty());
}

TEST(InferUnused, ReportsNonZeroInitializer) {
  Project project = Make(
      "int g(int);\n"
      "int f(int a) { int ret = a + 1; ret = g(a); return ret; }");
  EXPECT_TRUE(Reports(RunChecker(project, "baseline-infer"), "ret"));
}

TEST(InferUnused, SkipsParamsFieldsAndIgnoredReturns) {
  Project project = Make(
      "struct s { int x; int y; };\n"
      "int g(int);\n"
      "int f(int p, int v) {\n"
      "  p = 1400;\n"             // store to formal
      "  struct s st;\n"
      "  st.x = v;\n"             // dead field store
      "  st.x = 0;\n"
      "  st.y = v;\n"
      "  g(v);\n"                 // ignored return
      "  return p + st.x + st.y;\n"
      "}");
  EXPECT_TRUE(RunChecker(project, "baseline-infer").findings.empty());
}

TEST(InferUnused, ReportsCursors) {
  // No cursor modeling: the trailing increment is a dead store to infer...
  // except on parameters, which its Dead Store check skips; use a local.
  Project project = Make(
      "void f(char *buf, int c) {\n"
      "  char *o = buf;\n"
      "  *o = c;\n"
      "  o = o + 1;\n"
      "  *o = 0;\n"
      "  o = o + 1;\n"
      "}");
  EXPECT_TRUE(Reports(RunChecker(project, "baseline-infer"), "o", 6));
}

// --- baseline-smatch ---------------------------------------------------------

TEST(SmatchUnused, FailsOnCpp) {
  Project project = Make("int f(int a) { return a; }");
  ProjectTraits traits;
  traits.is_pure_c = false;
  EXPECT_TRUE(Unsupported(RunChecker(project, "baseline-smatch", traits), "baseline-smatch"));
}

TEST(SmatchUnused, ReportsAssignedNeverReferencedCallResult) {
  Project project = Make("int g(int);\nint f(int a) { int rc = g(a); return a; }");
  EXPECT_TRUE(Reports(RunChecker(project, "baseline-smatch"), "rc"));
}

TEST(SmatchUnused, MissesFig8DueToFlowInsensitivity) {
  Project project = Make(kFig8);
  EXPECT_FALSE(Reports(RunChecker(project, "baseline-smatch"), "ret"));
}

TEST(SmatchUnused, ReportsBareCallToProjectFunction) {
  Project project = Make(
      "int status(int v) { return v; }\n"
      "void f(int v) { status(v); }");
  EXPECT_TRUE(Reports(RunChecker(project, "baseline-smatch"), "status"));
}

TEST(SmatchUnused, IgnoresBareCallToExtern) {
  // Library functions are whitelisted as ignorable.
  Project project = Make("void f(int v) { printf_like(v); }");
  EXPECT_TRUE(RunChecker(project, "baseline-smatch").findings.empty());
}

TEST(SmatchUnused, IgnoresVoidCalls) {
  Project project = Make("void log_it(int v) { }\nvoid f(int v) { log_it(v); }");
  EXPECT_TRUE(RunChecker(project, "baseline-smatch").findings.empty());
}

// --- baseline-coverity -------------------------------------------------------

TEST(CoverityUnused, DetectsSameBlockOverwrite) {
  Project project = Make(
      "int ga(int);\nint gb(int);\n"
      "int f(int a, int b) {\n"
      "  int st = ga(a);\n"
      "  st = gb(b);\n"
      "  if (st) {\n"
      "    return 1;\n"
      "  }\n"
      "  return 0;\n"
      "}");
  EXPECT_TRUE(Reports(RunChecker(project, "baseline-coverity"), "st", 4));
}

TEST(CoverityUnused, MissesCrossBlockOverwrite) {
  Project project = Make(kFig8);
  EXPECT_FALSE(Reports(RunChecker(project, "baseline-coverity"), "ret"));
}

TEST(CoverityUnused, CheckedReturnNeedsTwoCallSites) {
  // A single call site cannot establish a usage pattern (Fig. 8's second
  // reason): nothing reported.
  Project project = Make(
      "int once(int v) { return v; }\n"
      "void f(int v) { once(v); }");
  EXPECT_TRUE(RunChecker(project, "baseline-coverity").findings.empty());
}

TEST(CoverityUnused, CheckedReturnFlagsMinorityIgnorer) {
  std::string code = "int chk(int v) { return v; }\n";
  for (int i = 0; i < 9; ++i) {
    std::string t = std::to_string(i);
    code += "int u" + t + "(int v) { int s" + t + " = chk(v); return s" + t + "; }\n";
  }
  code += "void ig(int v) { chk(v); }\n";
  Project project = Make(code);
  AnalysisReport report = RunChecker(project, "baseline-coverity");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].slot_name, "chk");
  EXPECT_EQ(report.findings[0].function, "ig");
}

// Findings come in callee-name order, then call order, whichever order the
// function makes its calls in; fingerprint ordinals follow that order.
TEST(CoverityUnused, CheckedReturnOrdersByCalleeThenCall) {
  std::string code = "int zeta(int v) { return v; }\nint alpha(int v) { return v + 1; }\n";
  for (int i = 0; i < 9; ++i) {
    std::string t = std::to_string(i);
    code += "int u" + t + "(int v) { int a" + t + " = alpha(v); int z" + t + " = zeta(v); return a" +
            t + " + z" + t + "; }\n";
  }
  code += "void ig(int v) {\n  zeta(v);\n  alpha(v);\n  zeta(v + 1);\n  alpha(v + 1);\n}\n";
  Project project = Make(code);
  AnalysisReport report = RunChecker(project, "baseline-coverity");
  std::vector<std::pair<std::string, int>> found;
  for (const UnusedDefCandidate& cand : report.findings) {
    found.emplace_back(cand.slot_name, cand.def_loc.line);
  }
  const std::vector<std::pair<std::string, int>> want = {
      {"alpha", 14}, {"alpha", 16}, {"zeta", 13}, {"zeta", 15}};
  EXPECT_EQ(found, want);
}

TEST(CoverityUnused, CheckedReturnRespectsRatio) {
  // 2 checking vs 2 ignoring: 50% < 80%, nothing flagged.
  std::string code = "int chk(int v) { return v; }\n";
  for (int i = 0; i < 2; ++i) {
    std::string t = std::to_string(i);
    code += "int u" + t + "(int v) { int s" + t + " = chk(v); return s" + t + "; }\n";
    code += "void ig" + t + "(int v) { chk(v + " + t + "); }\n";
  }
  Project project = Make(code);
  EXPECT_TRUE(RunChecker(project, "baseline-coverity").findings.empty());
}

TEST(CoverityUnused, SkipsCursorsZeroInitsParamsFields) {
  Project project = Make(
      "struct s { int x; int y; };\n"
      "int g(int);\n"
      "int f(int p, int v) {\n"
      "  int z = 0;\n"           // zero init
      "  z = g(v);\n"
      "  p = 1;\n"               // formal
      "  struct s st;\n"
      "  st.x = v;\n"            // field
      "  st.x = 0;\n"
      "  st.y = v;\n"
      "  return z + p + st.x + st.y;\n"
      "}");
  EXPECT_TRUE(RunChecker(project, "baseline-coverity").findings.empty());
}

// --- framework behavior shared by all baselines ------------------------------

TEST(BaselineCheckers, ExcludedFromDefaultRuns) {
  // A default (no --checkers) run never executes a baseline checker.
  Project project = Make("int g(int);\nint f(int a) { int dead = g(a); return a; }");
  AnalysisOptions options;
  options.cross_scope_only = false;
  options.ranking.enabled = false;
  AnalysisReport report = Analysis(options).Run(project);
  for (const std::string& name : report.checkers) {
    EXPECT_EQ(name.rfind("baseline-", 0), std::string::npos) << name;
  }
  for (const UnusedDefCandidate& cand : report.findings) {
    EXPECT_FALSE(cand.from_baseline) << cand.checker;
  }
}

}  // namespace
}  // namespace vc
