// Andersen points-to analysis and value-flow graph tests.

#include <gtest/gtest.h>

#include "src/ir/ir_builder.h"
#include "src/parser/parser.h"
#include "src/pointer/andersen.h"
#include "src/pointer/value_flow.h"

namespace vc {
namespace {

struct Analyzed {
  SourceManager sm;
  DiagnosticEngine diags;
  TranslationUnit unit;
  std::unique_ptr<IrModule> module;
};

std::unique_ptr<Analyzed> Analyze(const std::string& code) {
  auto a = std::make_unique<Analyzed>();
  a->unit = ParseString(a->sm, "test.c", code, a->diags);
  EXPECT_FALSE(a->diags.HasErrors()) << a->diags.Render(a->sm);
  a->module = LowerUnit(a->unit);
  return a;
}

SlotId SlotNamed(const IrFunction& func, const std::string& name) {
  for (SlotId i = 0; i < func.slots.size(); ++i) {
    if (func.slots[i].name == name) {
      return i;
    }
  }
  return kInvalidSlot;
}

TEST(Andersen, AddressFlowThroughCopy) {
  auto a = Analyze(
      "int f(void) {\n"
      "  int x = 1;\n"
      "  int *p = &x;\n"
      "  int *q = p;\n"
      "  return *q;\n"
      "}");
  const IrFunction& func = *a->module->FindFunction("f");
  PointsTo pts(func);
  EXPECT_TRUE(pts.SlotIsPointee(SlotNamed(func, "x")));
  // The LoadInd at `*q` must be able to reach x: find the LoadInd operand.
  bool load_sees_x = false;
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block.insts) {
      if (inst.op == Opcode::kLoadInd) {
        load_sees_x = pts.SlotsPointedBy(inst.operands[0]).count(SlotNamed(func, "x")) > 0;
      }
    }
  }
  EXPECT_TRUE(load_sees_x);
}

TEST(Andersen, BranchMergesPointees) {
  auto a = Analyze(
      "int f(int c) {\n"
      "  int x = 1;\n"
      "  int y = 2;\n"
      "  int *p = &x;\n"
      "  if (c) {\n"
      "    p = &y;\n"
      "  }\n"
      "  return *p;\n"
      "}");
  const IrFunction& func = *a->module->FindFunction("f");
  PointsTo pts(func);
  bool sees_x = false;
  bool sees_y = false;
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block.insts) {
      if (inst.op == Opcode::kLoadInd) {
        const auto& set = pts.SlotsPointedBy(inst.operands[0]);
        sees_x = set.count(SlotNamed(func, "x")) > 0;
        sees_y = set.count(SlotNamed(func, "y")) > 0;
      }
    }
  }
  EXPECT_TRUE(sees_x);
  EXPECT_TRUE(sees_y);
}

TEST(Andersen, FieldSensitiveFieldPtr) {
  auto a = Analyze(
      "struct s { int a; int b; };\n"
      "int f(void) {\n"
      "  struct s v;\n"
      "  struct s *p = &v;\n"
      "  p->b = 7;\n"
      "  return p->b;\n"
      "}");
  const IrFunction& func = *a->module->FindFunction("f");
  PointsTo pts(func);
  SlotId vb = SlotNamed(func, "v#1");
  ASSERT_NE(vb, kInvalidSlot);
  // The StoreInd through p->b must target exactly the v#1 slot.
  bool store_targets_field = false;
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block.insts) {
      if (inst.op == Opcode::kStoreInd) {
        const auto& set = pts.SlotsPointedBy(inst.operands[0]);
        store_targets_field = set.count(vb) > 0 && set.count(SlotNamed(func, "v#0")) == 0;
      }
    }
  }
  EXPECT_TRUE(store_targets_field);
}

TEST(Andersen, FunctionPointerResolution) {
  auto a = Analyze(
      "int target(int x) { return x; }\n"
      "int other(int x) { return x + 1; }\n"
      "int f(int c) {\n"
      "  void *fp = target;\n"
      "  if (c) {\n"
      "    fp = other;\n"
      "  }\n"
      "  g_use(fp);\n"
      "  return 0;\n"
      "}\nint g_use(void *);");
  const IrFunction& func = *a->module->FindFunction("f");
  PointsTo pts(func);
  // The load of fp before g_use sees both functions.
  SlotId fp = SlotNamed(func, "fp");
  ASSERT_NE(fp, kInvalidSlot);
  std::set<std::string> names;
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block.insts) {
      if (inst.op == Opcode::kLoad && inst.slot == fp) {
        for (const FunctionDecl* callee : pts.FunctionsPointedBy(inst.result)) {
          names.emplace(callee->name);
        }
      }
    }
  }
  EXPECT_EQ(names, (std::set<std::string>{"target", "other"}));
}

TEST(Andersen, CallResultIsUnknown) {
  auto a = Analyze("int *g(void);\nint f(void) { int *p = g(); return *p; }");
  const IrFunction& func = *a->module->FindFunction("f");
  PointsTo pts(func);
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block.insts) {
      if (inst.op == Opcode::kLoadInd) {
        EXPECT_TRUE(pts.PointsToUnknown(inst.operands[0]));
      }
    }
  }
}

TEST(Andersen, PointerArithmeticPreservesPointees) {
  auto a = Analyze(
      "int f(void) {\n"
      "  int x = 1;\n"
      "  int *p = &x;\n"
      "  p = p + 1;\n"
      "  return *p;\n"
      "}");
  const IrFunction& func = *a->module->FindFunction("f");
  PointsTo pts(func);
  bool sees_x = false;
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block.insts) {
      if (inst.op == Opcode::kLoadInd) {
        sees_x = pts.SlotsPointedBy(inst.operands[0]).count(SlotNamed(func, "x")) > 0;
      }
    }
  }
  EXPECT_TRUE(sees_x);
}

TEST(Andersen, ConvergesOnCycles) {
  // p and q point to each other's pointees through a loop: must terminate.
  auto a = Analyze(
      "int f(int n) {\n"
      "  int x = 1;\n"
      "  int y = 2;\n"
      "  int *p = &x;\n"
      "  int *q = &y;\n"
      "  while (n > 0) {\n"
      "    int *t = p;\n"
      "    p = q;\n"
      "    q = t;\n"
      "    n = n - 1;\n"
      "  }\n"
      "  return *p + *q;\n"
      "}");
  const IrFunction& func = *a->module->FindFunction("f");
  PointsTo pts(func);
  EXPECT_GT(pts.iterations(), 1);
  EXPECT_TRUE(pts.SlotIsPointee(SlotNamed(func, "x")));
  EXPECT_TRUE(pts.SlotIsPointee(SlotNamed(func, "y")));
}

TEST(Andersen, IterationCeilingFallsBackToTop) {
  auto a = Analyze(
      "int f(void) {\n"
      "  int x = 1;\n"
      "  int *p = &x;\n"
      "  return *p;\n"
      "}");
  const IrFunction& func = *a->module->FindFunction("f");
  // With the fix point forced to never converge, a tiny ceiling must trip and
  // degrade to the sound "top" state instead of hanging.
  PointsTo::ForceNonConvergenceForTest(true);
  PointsTo pts(func, /*max_iterations=*/100);
  PointsTo::ForceNonConvergenceForTest(false);
  EXPECT_TRUE(pts.capped());
  for (ValueId v = 0; v < func.next_value; ++v) {
    EXPECT_TRUE(pts.PointsToUnknown(v));
  }
  for (SlotId s = 0; s < func.slots.size(); ++s) {
    EXPECT_TRUE(pts.SlotIsPointee(s));
  }
  // A normal run of the same function is unaffected by the ceiling.
  PointsTo clean(func, /*max_iterations=*/100);
  EXPECT_FALSE(clean.capped());
  EXPECT_TRUE(clean.SlotIsPointee(SlotNamed(func, "x")));
}

// --- ValueFlowGraph -----------------------------------------------------------

TEST(ValueFlow, CountsDirectDefsAndUses) {
  auto a = Analyze(
      "int f(int a) {\n"
      "  int x = a;\n"
      "  x = x + 1;\n"
      "  return x;\n"
      "}");
  const IrFunction& func = *a->module->FindFunction("f");
  PointsTo pts(func);
  ValueFlowGraph vfg(func, pts);
  SlotId x = SlotNamed(func, "x");
  EXPECT_EQ(vfg.NumDefs(x), 2);
  EXPECT_EQ(vfg.NumUses(x), 2);  // load for x+1, load for return
}

TEST(ValueFlow, IncrementCounting) {
  auto a = Analyze(
      "void f(char *o, int c) {\n"
      "  *o = c;\n"
      "  o = o + 1;\n"
      "  *o = 0;\n"
      "  o = o + 1;\n"
      "  o = o - 1;\n"
      "  *o = 1;\n"
      "}");
  const IrFunction& func = *a->module->FindFunction("f");
  PointsTo pts(func);
  ValueFlowGraph vfg(func, pts);
  SlotId o = SlotNamed(func, "o");
  EXPECT_EQ(vfg.NumIncrementDefs(o, 1), 2);
  EXPECT_EQ(vfg.NumIncrementDefs(o, -1), 1);
  EXPECT_EQ(vfg.NumIncrementDefs(o, 0), 3);  // any step
}

TEST(ValueFlow, IndirectUseDetected) {
  auto a = Analyze(
      "int f(void) {\n"
      "  int x = 5;\n"
      "  int *p = &x;\n"
      "  return *p;\n"
      "}");
  const IrFunction& func = *a->module->FindFunction("f");
  PointsTo pts(func);
  ValueFlowGraph vfg(func, pts);
  EXPECT_TRUE(vfg.HasIndirectUse(SlotNamed(func, "x")));
  EXPECT_FALSE(vfg.HasIndirectUse(SlotNamed(func, "p")));
}

TEST(ValueFlow, AccessOrderWithinBlock) {
  auto a = Analyze("int g_sink;\nint f(int a) { int x = a; g_sink = x; return x; }");
  const IrFunction& func = *a->module->FindFunction("f");
  PointsTo pts(func);
  ValueFlowGraph vfg(func, pts);
  const auto& accesses = vfg.AccessesOf(SlotNamed(func, "x"));
  ASSERT_EQ(accesses.size(), 3u);
  EXPECT_TRUE(accesses[0].is_def);
  EXPECT_FALSE(accesses[1].is_def);
  EXPECT_FALSE(accesses[2].is_def);
  EXPECT_LT(accesses[0].index, accesses[1].index);
}

}  // namespace
}  // namespace vc
