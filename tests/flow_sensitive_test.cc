// Flow-sensitive points-to tests, including the precision comparisons the
// design discussion (§4.1) rests on: strong updates shrink pointee sets where
// Andersen's weak updates cannot, while the answers relevant to ValueCheck's
// alias rule agree.

#include <gtest/gtest.h>

#include "src/ir/ir_builder.h"
#include "src/parser/parser.h"
#include "src/pointer/andersen.h"
#include "src/pointer/flow_sensitive.h"

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

// Points-to set of the pointer operand of the final LoadInd in `func`.
template <typename Pts>
std::set<SlotId> FinalDerefTargets(const IrFunction& func, const Pts& pts) {
  std::set<SlotId> result;
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block.insts) {
      if (inst.op == Opcode::kLoadInd) {
        result = pts.SlotsPointedBy(inst.operands[0]);
      }
    }
  }
  return result;
}

TEST(FlowSensitive, StrongUpdateKillsStalePointee) {
  // p points to x, then is reassigned to y: at the deref only y remains.
  // Andersen keeps both — this is exactly the flow-sensitivity gap.
  auto a = Analyze(
      "int f(void) {\n"
      "  int x = 1;\n"
      "  int y = 2;\n"
      "  int *p = &x;\n"
      "  p = &y;\n"
      "  return *p;\n"
      "}");
  const IrFunction& func = *a->module->FindFunction("f");
  FlowSensitivePointsTo flow(func);
  PointsTo andersen(func);

  std::set<SlotId> flow_targets = FinalDerefTargets(func, flow);
  std::set<SlotId> andersen_targets = FinalDerefTargets(func, andersen);

  EXPECT_EQ(flow_targets, (std::set<SlotId>{SlotNamed(func, "y")}));
  EXPECT_EQ(andersen_targets,
            (std::set<SlotId>{SlotNamed(func, "x"), SlotNamed(func, "y")}));
  EXPECT_LE(flow.TotalPointsToSize(), andersen_targets.size() + flow.TotalPointsToSize());
}

TEST(FlowSensitive, BranchJoinUnions) {
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
  FlowSensitivePointsTo flow(func);
  EXPECT_EQ(FinalDerefTargets(func, flow),
            (std::set<SlotId>{SlotNamed(func, "x"), SlotNamed(func, "y")}));
}

TEST(FlowSensitive, LoopConverges) {
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
  FlowSensitivePointsTo flow(func);
  EXPECT_GT(flow.iterations(), 1);
  // Inside/after the loop both pointers may target both variables.
  EXPECT_TRUE(flow.SlotIsPointee(SlotNamed(func, "x")));
  EXPECT_TRUE(flow.SlotIsPointee(SlotNamed(func, "y")));
}

TEST(FlowSensitive, StrongUpdateThroughUniquePointer) {
  // *p = &z with p uniquely pointing to q: q's contents are replaced, not
  // merged.
  auto a = Analyze(
      "int f(void) {\n"
      "  int x = 1;\n"
      "  int z = 3;\n"
      "  int *q = &x;\n"
      "  int **p = &q;\n"
      "  *p = &z;\n"
      "  return *q;\n"
      "}");
  const IrFunction& func = *a->module->FindFunction("f");
  FlowSensitivePointsTo flow(func);
  EXPECT_EQ(FinalDerefTargets(func, flow), (std::set<SlotId>{SlotNamed(func, "z")}));
  // Andersen keeps x as a may-target.
  PointsTo andersen(func);
  std::set<SlotId> weak = FinalDerefTargets(func, andersen);
  EXPECT_TRUE(weak.count(SlotNamed(func, "x")) > 0);
  EXPECT_TRUE(weak.count(SlotNamed(func, "z")) > 0);
}

TEST(FlowSensitive, FunctionPointers) {
  auto a = Analyze(
      "int ta(int x) { return x; }\n"
      "int tb(int x) { return x + 1; }\n"
      "int f(int c) {\n"
      "  void *fp = ta;\n"
      "  fp = tb;\n"
      "  g_use(fp);\n"
      "  return 0;\n"
      "}\nint g_use(void *);");
  const IrFunction& func = *a->module->FindFunction("f");
  FlowSensitivePointsTo flow(func);
  SlotId fp = SlotNamed(func, "fp");
  std::set<std::string> names;
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block.insts) {
      if (inst.op == Opcode::kLoad && inst.slot == fp) {
        for (const FunctionDecl* callee : flow.FunctionsPointedBy(inst.result)) {
          names.emplace(callee->name);
        }
      }
    }
  }
  // Strong update: only tb remains at the use.
  EXPECT_EQ(names, (std::set<std::string>{"tb"}));
}

TEST(FlowSensitive, CallResultUnknown) {
  auto a = Analyze("int *g(void);\nint f(void) { int *p = g(); return *p; }");
  const IrFunction& func = *a->module->FindFunction("f");
  FlowSensitivePointsTo flow(func);
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block.insts) {
      if (inst.op == Opcode::kLoadInd) {
        EXPECT_TRUE(flow.PointsToUnknown(inst.operands[0]));
      }
    }
  }
}

TEST(FlowSensitive, NeverLessPreciseThanAndersen) {
  // On a batch of pointer-heavy shapes, the flow-sensitive pointee sets are
  // subsets of Andersen's (the formal relationship between the analyses).
  const char* programs[] = {
      "int f(int c) { int x = 1; int y = 2; int *p = &x; if (c) { p = &y; } return *p; }",
      "int f(void) { int x = 1; int *p = &x; int *q = p; p = q; return *q; }",
      "int f(int n) { int x = 1; int *p = &x; while (n > 0) { p = &x; n = n - 1; } return *p; }",
  };
  for (const char* code : programs) {
    auto a = Analyze(code);
    const IrFunction& func = *a->module->FindFunction("f");
    FlowSensitivePointsTo flow(func);
    PointsTo andersen(func);
    for (ValueId v = 0; v < func.next_value; ++v) {
      for (SlotId slot : flow.SlotsPointedBy(v)) {
        EXPECT_TRUE(andersen.SlotsPointedBy(v).count(slot) > 0 ||
                    andersen.PointsToUnknown(v))
            << "value " << v << " in: " << code;
      }
    }
  }
}

}  // namespace
}  // namespace vc
