// Liveness and DefineSet analysis tests, including loop fix points, struct
// copy semantics, and the address-taken rule.

#include <gtest/gtest.h>

#include "src/dataflow/define_sets.h"
#include "src/dataflow/liveness.h"
#include "src/ir/ir_builder.h"
#include "src/parser/parser.h"

namespace vc {
namespace {

struct Analyzed {
  SourceManager sm;
  DiagnosticEngine diags;
  TranslationUnit unit;
  std::unique_ptr<IrModule> module;

  const IrFunction& Fn(const std::string& name) const {
    const IrFunction* func = module->FindFunction(name);
    EXPECT_NE(func, nullptr);
    return *func;
  }
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

TEST(Liveness, ParamLiveWhenUsed) {
  auto a = Analyze("int f(int a, int b) { return a; }");
  const IrFunction& func = a->Fn("f");
  LivenessResult live = ComputeLiveness(func);
  EXPECT_TRUE(live.live_in[0].Contains(SlotNamed(func, "a")));
  EXPECT_FALSE(live.live_in[0].Contains(SlotNamed(func, "b")));
}

TEST(Liveness, OverwrittenParamNotLiveAtEntry) {
  auto a = Analyze("int f(int a) { a = 5; return a; }");
  const IrFunction& func = a->Fn("f");
  LivenessResult live = ComputeLiveness(func);
  EXPECT_FALSE(live.live_in[0].Contains(SlotNamed(func, "a")));
}

TEST(Liveness, UseOnOneBranchKeepsLive) {
  auto a = Analyze("int f(int a, int c) { if (c) { return a; } return 0; }");
  const IrFunction& func = a->Fn("f");
  LivenessResult live = ComputeLiveness(func);
  EXPECT_TRUE(live.live_in[0].Contains(SlotNamed(func, "a")));
}

TEST(Liveness, LoopCarriedUseReachesFixPoint) {
  auto a = Analyze(
      "int f(int n) {\n"
      "  int acc = 0;\n"
      "  while (n > 0) {\n"
      "    acc = acc + n;\n"
      "    n = n - 1;\n"
      "  }\n"
      "  return acc;\n"
      "}");
  const IrFunction& func = a->Fn("f");
  LivenessResult live = ComputeLiveness(func);
  EXPECT_GE(live.iterations, 2);  // the back edge needs a second pass
  // `acc = acc + n` inside the loop is used (by itself next iteration and by
  // the return): the store must see acc live in the loop body's out state.
  SlotId acc = SlotNamed(func, "acc");
  bool acc_live_somewhere_in_loop = false;
  for (const auto& block : func.blocks) {
    for (BlockId succ : block->succs) {
      if (succ < block->id) {  // back edge source: loop latch
        acc_live_somewhere_in_loop = live.live_out[block->id].Contains(acc);
      }
    }
  }
  EXPECT_TRUE(acc_live_somewhere_in_loop);
}

TEST(Liveness, StructWholeCopyUsesFields) {
  auto a = Analyze(
      "struct s { int x; int y; };\n"
      "int use_s(struct s v);\n"
      "int f(int a) {\n"
      "  struct s v;\n"
      "  v.x = a;\n"
      "  v.y = a + 1;\n"
      "  return use_s(v);\n"
      "}");
  const IrFunction& func = a->Fn("f");
  LivenessResult live = ComputeLiveness(func);
  // No field store is dead: the whole-struct load at the call uses them.
  SlotEvents events(func);
  for (const auto& block : func.blocks) {
    SlotSet set = live.live_out[block->id];
    for (size_t i = block->insts.size(); i-- > 0;) {
      const Instruction& inst = block->insts[i];
      if (inst.op == Opcode::kStore) {
        EXPECT_TRUE(set.Contains(inst.slot))
            << "field store to " << func.slots[inst.slot].name << " appears dead";
      }
      ApplyLivenessTransfer(events, inst.op, inst.slot, set);
    }
  }
}

TEST(Liveness, AddressTakenCollected) {
  auto a = Analyze("int g_sink;\nvoid g(int *p);\nvoid f(void) { int x = 1; int y = 2; g(&x); g_sink = y; }");
  const IrFunction& func = a->Fn("f");
  LivenessResult live = ComputeLiveness(func);
  EXPECT_TRUE(live.address_taken.Contains(SlotNamed(func, "x")));
  EXPECT_FALSE(live.address_taken.Contains(SlotNamed(func, "y")));
}

TEST(Liveness, AddressTakenStructEscapesFields) {
  auto a = Analyze(
      "struct s { int x; int y; };\n"
      "void g(struct s *p);\n"
      "void f(int a) { struct s v; v.x = a; g(&v); }");
  const IrFunction& func = a->Fn("f");
  SlotSet taken = ComputeAddressTaken(func);
  EXPECT_TRUE(taken.Contains(SlotNamed(func, "v")));
  EXPECT_TRUE(taken.Contains(SlotNamed(func, "v#0")));
}

TEST(Liveness, FixPointIdempotent) {
  auto a = Analyze(
      "int f(int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) {\n"
      "    if (i > 2) { s = s + i; } else { s = s - 1; }\n"
      "  }\n"
      "  return s;\n"
      "}");
  const IrFunction& func = a->Fn("f");
  LivenessResult first = ComputeLiveness(func);
  LivenessResult second = ComputeLiveness(func);
  for (size_t i = 0; i < func.blocks.size(); ++i) {
    EXPECT_TRUE(first.live_in[i] == second.live_in[i]);
    EXPECT_TRUE(first.live_out[i] == second.live_out[i]);
  }
}

// --- SlotSet ------------------------------------------------------------------

TEST(SlotSet, BasicOperations) {
  SlotSet set(4);
  EXPECT_FALSE(set.Contains(2));
  set.Add(2);
  EXPECT_TRUE(set.Contains(2));
  set.Remove(2);
  EXPECT_FALSE(set.Contains(2));
  EXPECT_EQ(set.Count(), 0);
}

TEST(SlotSet, UnionReportsChange) {
  SlotSet a(4);
  SlotSet b(4);
  b.Add(1);
  EXPECT_TRUE(a.UnionWith(b));
  EXPECT_FALSE(a.UnionWith(b));  // second union is a no-op
  EXPECT_TRUE(a.Contains(1));
}

TEST(SlotSet, EqualityIgnoresTrailingZeros) {
  SlotSet a(2);
  SlotSet b(8);
  a.Add(1);
  b.Add(1);
  EXPECT_TRUE(a == b);
  b.Add(7);
  EXPECT_FALSE(a == b);
}

TEST(SlotSet, GrowsOnDemand) {
  SlotSet set;
  set.Add(100);
  EXPECT_TRUE(set.Contains(100));
  EXPECT_FALSE(set.Contains(99));
}

TEST(SlotSet, WordsPastTheFirstCopyAndCount) {
  SlotSet a(200);
  a.Add(3);
  a.Add(64);
  a.Add(199);
  SlotSet b = a;
  EXPECT_TRUE(b == a);
  EXPECT_EQ(b.Count(), 3);
  b.Reset(10);  // keeps its words, drops its members
  EXPECT_EQ(b.Count(), 0);
  b = a;
  EXPECT_TRUE(b.Contains(199));
  SlotSet moved = std::move(b);
  EXPECT_TRUE(moved.Contains(64));
  EXPECT_FALSE(moved.UnionWith(a));
}

TEST(SlotEvents, StructMaskCoversItsFieldsAndStoresAreNumberedPerSlot) {
  auto a = Analyze(
      "struct s { int x; int y; };\n"
      "int f(int m) {\n"
      "  struct s v;\n"
      "  int w = m;\n"    // line 4
      "  v.x = m;\n"      // line 5
      "  w = 2;\n"        // line 6
      "  v.y = w;\n"
      "  return v.x + w;\n"
      "}");
  const IrFunction& func = a->Fn("f");
  SlotEvents events(func);
  SlotSet live(func.slots.size());
  events.AddMask(SlotNamed(func, "v"), live.words());
  EXPECT_TRUE(live.Contains(SlotNamed(func, "v")));
  EXPECT_TRUE(live.Contains(SlotNamed(func, "v#0")));
  EXPECT_TRUE(live.Contains(SlotNamed(func, "v#1")));
  EXPECT_FALSE(live.Contains(SlotNamed(func, "w")));
  SlotId w = SlotNamed(func, "w");
  ASSERT_EQ(events.StoresEnd(w) - events.StoresBegin(w), 2);
  EXPECT_EQ(events.StoreLoc(events.StoresBegin(w)).line, 4);
  EXPECT_EQ(events.StoreLoc(events.StoresBegin(w) + 1).line, 6);
}

// --- DefineSets ------------------------------------------------------------------

TEST(DefineSets, RecordsNearestOverwriter) {
  auto a = Analyze(
      "int g(int);\n"
      "int f(int m) {\n"
      "  int ret = g(m);\n"   // line 3: overwritten below
      "  ret = g(m + 1);\n"   // line 4
      "  return ret;\n"
      "}");
  const IrFunction& func = a->Fn("f");
  SlotEvents events(func);
  DefineSetResult defs = ComputeDefineSets(events);
  SlotId ret = SlotNamed(func, "ret");
  // Replay the entry block's stores: before line 3's store, the define set
  // must hold line 4's store.
  DefineMap map = defs.out[0];
  std::vector<SourceLoc> found;
  const std::span<const SlotEvent> entry = events.Block(0);
  for (size_t i = entry.size(); i-- > 0;) {
    const SlotEvent& event = entry[i];
    if (event.op != Opcode::kStore) {
      continue;
    }
    if (event.slot == ret && func.blocks[0]->insts[event.inst].loc.line == 3) {
      found = map.Find(events, ret);
      break;
    }
    map.Replace(events, event.slot, event.store);
  }
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].line, 4);
}

TEST(DefineSets, BranchesUnionOverwriters) {
  auto a = Analyze(
      "int f(int m, int c) {\n"
      "  int v = m;\n"          // line 2
      "  if (c) {\n"
      "    v = 1;\n"            // line 4
      "  } else {\n"
      "    v = 2;\n"            // line 6
      "  }\n"
      "  return v;\n"
      "}");
  const IrFunction& func = a->Fn("f");
  SlotEvents events(func);
  DefineSetResult defs = ComputeDefineSets(events);
  SlotId v = SlotNamed(func, "v");
  // At the entry block's in-state... the define set after line 2's store is
  // what we want: union of both branch stores.
  const DefineMap& entry_out = defs.out[0];
  std::vector<SourceLoc> overwriters = entry_out.Find(events, v);
  ASSERT_EQ(overwriters.size(), 2u);
  EXPECT_EQ(overwriters[0].line, 4);
  EXPECT_EQ(overwriters[1].line, 6);
}

TEST(DefineSets, NoOverwriterForFinalStore) {
  auto a = Analyze("int f(int m) { int v = m; return v; }");
  const IrFunction& func = a->Fn("f");
  SlotEvents events(func);
  DefineSetResult defs = ComputeDefineSets(events);
  EXPECT_TRUE(defs.out[0].Find(events, SlotNamed(func, "v")).empty());
}

TEST(DefineSets, LoopOverwriterSeen) {
  auto a = Analyze(
      "int f(int n) {\n"
      "  int v = 0;\n"          // line 2: overwritten by line 4 in the loop
      "  while (n > 0) {\n"
      "    v = n;\n"            // line 4
      "    n = n - 1;\n"
      "  }\n"
      "  return v;\n"
      "}");
  const IrFunction& func = a->Fn("f");
  SlotEvents events(func);
  DefineSetResult defs = ComputeDefineSets(events);
  std::vector<SourceLoc> overwriters = defs.out[0].Find(events, SlotNamed(func, "v"));
  ASSERT_FALSE(overwriters.empty());
  EXPECT_EQ(overwriters[0].line, 4);
}

TEST(DefineMap, UnionDeduplicates) {
  auto analyzed = Analyze("int f(int m) { int v = m; v = 2; return v; }");
  const IrFunction& func = analyzed->Fn("f");
  SlotEvents events(func);
  SlotId v = SlotNamed(func, "v");
  ASSERT_EQ(events.StoresEnd(v) - events.StoresBegin(v), 2);
  DefineMap a;
  DefineMap b;
  a.Reset(events);
  b.Reset(events);
  a.Replace(events, v, events.StoresBegin(v));
  b.Replace(events, v, events.StoresBegin(v));
  EXPECT_FALSE(a.UnionWith(b));
  b.Replace(events, v, events.StoresBegin(v) + 1);
  EXPECT_TRUE(a.UnionWith(b));
  EXPECT_EQ(a.Find(events, v).size(), 2u);
  a.Replace(events, v, events.StoresBegin(v));  // clears both, keeps one
  EXPECT_EQ(a.Find(events, v).size(), 1u);
}

}  // namespace
}  // namespace vc
