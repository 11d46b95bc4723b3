// Detector unit tests: each unused-definition shape the paper's algorithm
// must find, and each shape it must not report.

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/detector.h"

namespace vc {
namespace {

struct Detected {
  Project project;
  std::vector<UnusedDefCandidate> candidates;
};

Detected Detect(const std::string& code) {
  Detected d;
  d.project = Project::FromSources({{"test.c", code}});
  EXPECT_FALSE(d.project.diags().HasErrors())
      << d.project.diags().Render(d.project.sources());
  d.candidates = DetectAll(d.project);
  return d;
}

const UnusedDefCandidate* FindSlot(const Detected& d, const std::string& slot) {
  for (const UnusedDefCandidate& cand : d.candidates) {
    if (cand.slot_name == slot) {
      return &cand;
    }
  }
  return nullptr;
}

TEST(Detector, CleanFunctionHasNoCandidates) {
  Detected d = Detect("int f(int a, int b) { int s = a + b; return s; }");
  EXPECT_TRUE(d.candidates.empty());
}

TEST(Detector, OverwrittenLocalDetected) {
  Detected d = Detect(
      "int g(int);\n"
      "int f(int m) {\n"
      "  int ret = g(m);\n"
      "  ret = g(m + 1);\n"
      "  return ret;\n"
      "}");
  ASSERT_EQ(d.candidates.size(), 1u);
  const UnusedDefCandidate& cand = d.candidates[0];
  EXPECT_EQ(cand.slot_name, "ret");
  EXPECT_EQ(cand.def_loc.line, 3);
  EXPECT_TRUE(cand.overwritten);
  ASSERT_EQ(cand.overwriter_locs.size(), 1u);
  EXPECT_EQ(cand.overwriter_locs[0].line, 4);
  EXPECT_EQ(cand.callee_name, "g");
}

TEST(Detector, UseBeforeOverwriteNotReported) {
  Detected d = Detect(
      "int g(int);\n"
      "int f(int m) {\n"
      "  int ret = g(m);\n"
      "  g(ret);\n"  // uses ret before the overwrite
      "  ret = g(m + 1);\n"
      "  return ret;\n"
      "}");
  // Only the ignored call result of g(ret) is a candidate; ret's first
  // definition is used.
  for (const UnusedDefCandidate& cand : d.candidates) {
    EXPECT_NE(cand.slot_name, std::string("ret"));
  }
}

TEST(Detector, OverwriteOnOnlyOneBranchNotReported) {
  // Flow-sensitivity: a use on the other path keeps the definition live.
  Detected d = Detect(
      "int g(int);\n"
      "int f(int m, int c) {\n"
      "  int ret = g(m);\n"
      "  if (c) {\n"
      "    ret = 0;\n"
      "  } else {\n"
      "    g(ret);\n"
      "  }\n"
      "  return ret;\n"
      "}");
  // Neither definition of ret is unused: the initial one is read in the
  // else branch, the then-branch one by the return. Only the ignored result
  // of g(ret) remains.
  EXPECT_EQ(FindSlot(d, "ret"), nullptr);
  ASSERT_EQ(d.candidates.size(), 1u);
  EXPECT_TRUE(d.candidates[0].is_synthetic);
}

TEST(Detector, OverwriteOnBothBranchesReported) {
  Detected d = Detect(
      "int g(int);\n"
      "int f(int m, int c) {\n"
      "  int ret = g(m);\n"
      "  if (c) {\n"
      "    ret = 1;\n"
      "  } else {\n"
      "    ret = 2;\n"
      "  }\n"
      "  return ret;\n"
      "}");
  const UnusedDefCandidate* cand = nullptr;
  for (const UnusedDefCandidate& c : d.candidates) {
    if (c.slot_name == "ret" && c.def_loc.line == 3) {
      cand = &c;
    }
  }
  ASSERT_NE(cand, nullptr);
  EXPECT_EQ(cand->overwriter_locs.size(), 2u);
}

TEST(Detector, UnusedParamDetected) {
  Detected d = Detect("int f(int used, int ignored) { return used; }");
  const UnusedDefCandidate* cand = FindSlot(d, "ignored");
  ASSERT_NE(cand, nullptr);
  EXPECT_TRUE(cand->is_param);
  EXPECT_FALSE(cand->overwritten);
  EXPECT_EQ(d.candidates.size(), 1u);
}

TEST(Detector, OverwrittenParamDetected) {
  Detected d = Detect("int f(int p, int bufsz) { bufsz = 1400; return bufsz + p; }");
  const UnusedDefCandidate* cand = FindSlot(d, "bufsz");
  ASSERT_NE(cand, nullptr);
  EXPECT_TRUE(cand->is_param);
  EXPECT_TRUE(cand->overwritten);
  EXPECT_EQ(cand->overwriter_locs[0].line, 1);
}

TEST(Detector, IgnoredCallResultDetected) {
  Detected d = Detect("int g(int);\nvoid f(int a) { g(a); }");
  ASSERT_EQ(d.candidates.size(), 1u);
  EXPECT_TRUE(d.candidates[0].is_synthetic);
  EXPECT_TRUE(d.candidates[0].FromCall());
}

TEST(Detector, FieldDefinitionDetected) {
  Detected d = Detect(
      "struct s { int a; int b; };\n"
      "int f(int v) {\n"
      "  struct s x;\n"
      "  x.a = v;\n"
      "  x.a = 0;\n"
      "  x.b = v;\n"
      "  return x.a + x.b;\n"
      "}");
  ASSERT_EQ(d.candidates.size(), 1u);
  EXPECT_EQ(d.candidates[0].slot_name, "x#0");
  EXPECT_TRUE(d.candidates[0].is_field_slot);
  EXPECT_EQ(d.candidates[0].def_loc.line, 4);
}

TEST(Detector, AddressTakenSuppressed) {
  Detected d = Detect(
      "void fill(int *p);\n"
      "int f(int v) {\n"
      "  int out = v;\n"
      "  fill(&out);\n"
      "  out = 0;\n"
      "  return out;\n"
      "}");
  EXPECT_EQ(FindSlot(d, "out"), nullptr);
}

TEST(Detector, GlobalsSkipped) {
  Detected d = Detect(
      "int g_state;\n"
      "void f(int v) {\n"
      "  g_state = v;\n"
      "  g_state = v + 1;\n"
      "}");
  EXPECT_TRUE(d.candidates.empty());
}

TEST(Detector, DeadStoreAtFunctionEndDetected) {
  Detected d = Detect(
      "int g(int);\n"
      "int f(int a) {\n"
      "  int r = a + 1;\n"
      "  int last = g(r);\n"  // never used afterwards
      "  return r;\n"
      "}");
  const UnusedDefCandidate* cand = FindSlot(d, "last");
  ASSERT_NE(cand, nullptr);
  EXPECT_FALSE(cand->overwritten);
}

TEST(Detector, LoopCarriedDefNotReported) {
  Detected d = Detect(
      "int f(int n) {\n"
      "  int acc = 0;\n"
      "  while (n > 0) {\n"
      "    acc = acc + n;\n"
      "    n = n - 1;\n"
      "  }\n"
      "  return acc;\n"
      "}");
  EXPECT_TRUE(d.candidates.empty());
}

TEST(Detector, CursorShapeAnnotated) {
  Detected d = Detect(
      "void f(char *o, char *base, int c) {\n"
      "  *o = c;\n"
      "  o = o + 1;\n"
      "  *o = 0;\n"
      "  o = o + 1;\n"
      "  o = base;\n"
      "  *o = 9;\n"
      "}");
  const UnusedDefCandidate* cand = FindSlot(d, "o");
  ASSERT_NE(cand, nullptr);
  EXPECT_TRUE(cand->is_increment);
  EXPECT_EQ(cand->increment_amount, 1);
  EXPECT_EQ(cand->def_loc.line, 5);
}

TEST(Detector, MultipleCandidatesInOneFunction) {
  Detected d = Detect(
      "int g(int);\n"
      "int f(int m, int unused_arg) {\n"
      "  int a = g(m);\n"
      "  a = g(m + 1);\n"
      "  g(a);\n"
      "  return a;\n"
      "}");
  // a's first def (overwritten), the ignored g(a) result, and unused_arg.
  EXPECT_EQ(d.candidates.size(), 3u);
}

TEST(Detector, CandidateCarriesFileAndFunction) {
  Detected d = Detect("int g(int);\nvoid f(int a) { g(a); }");
  ASSERT_EQ(d.candidates.size(), 1u);
  EXPECT_EQ(d.candidates[0].file, "test.c");
  EXPECT_EQ(d.candidates[0].function, "f");
}

TEST(Detector, VoidCastSuppressesIgnoredResult) {
  Detected d = Detect("int g(int);\nvoid f(int a) { (void)g(a); }");
  EXPECT_TRUE(d.candidates.empty());
}

}  // namespace
}  // namespace vc
