// IR lowering tests: instruction shapes, CFG structure, slots, store
// annotations, synthetic temps for ignored call results, call-site records,
// and a tree that fills several AST arena chunks.

#include <gtest/gtest.h>

#include "src/ast/ast_printer.h"
#include "src/ir/ir_builder.h"
#include "src/parser/parser.h"
#include "src/support/string_util.h"

namespace vc {
namespace {

struct Lowered {
  SourceManager sm;
  DiagnosticEngine diags;
  TranslationUnit unit;
  std::unique_ptr<IrModule> module;
};

std::unique_ptr<Lowered> Lower(const std::string& code) {
  auto lowered = std::make_unique<Lowered>();
  lowered->unit = ParseString(lowered->sm, "test.c", code, lowered->diags);
  EXPECT_FALSE(lowered->diags.HasErrors()) << lowered->diags.Render(lowered->sm);
  lowered->module = LowerUnit(lowered->unit);
  return lowered;
}

int CountOps(const IrFunction& func, Opcode op) {
  int n = 0;
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block->insts) {
      n += inst.op == op ? 1 : 0;
    }
  }
  return n;
}

const Instruction* FindStoreTo(const IrFunction& func, const std::string& slot_name) {
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block->insts) {
      if (inst.op == Opcode::kStore && func.slots[inst.slot].name == slot_name) {
        return &inst;
      }
    }
  }
  return nullptr;
}

TEST(IrBuilder, StraightLineLoadsAndStores) {
  auto lowered = Lower("int f(int a) { int x = a + 1; return x; }");
  const IrFunction* func = lowered->module->FindFunction("f");
  ASSERT_NE(func, nullptr);
  EXPECT_EQ(func->blocks.size(), 1u);
  EXPECT_EQ(CountOps(*func, Opcode::kLoad), 2);   // a, x
  EXPECT_EQ(CountOps(*func, Opcode::kStore), 1);  // x
  EXPECT_EQ(CountOps(*func, Opcode::kRet), 1);
}

TEST(IrBuilder, ParamSlotsRegistered) {
  auto lowered = Lower("int f(int a, int b) { return a + b; }");
  const IrFunction* func = lowered->module->FindFunction("f");
  ASSERT_EQ(func->param_slots.size(), 2u);
  EXPECT_EQ(func->slots[func->param_slots[0]].name, "a");
  EXPECT_TRUE(func->slots[func->param_slots[0]].is_param);
}

TEST(IrBuilder, IfProducesDiamond) {
  auto lowered = Lower("int f(int a) { int r = 0; if (a > 0) { r = 1; } else { r = 2; } return r; }");
  const IrFunction* func = lowered->module->FindFunction("f");
  // entry, then, merge, else = 4 blocks.
  EXPECT_EQ(func->blocks.size(), 4u);
  EXPECT_EQ(CountOps(*func, Opcode::kCondBr), 1);
  const BasicBlock* entry = func->Entry();
  ASSERT_EQ(entry->succs.size(), 2u);
}

TEST(IrBuilder, WhileLoopHasBackEdge) {
  auto lowered = Lower("int f(int n) { while (n > 0) { n = n - 1; } return n; }");
  const IrFunction* func = lowered->module->FindFunction("f");
  // Find a block whose successor id is smaller: the loop back edge.
  bool back_edge = false;
  for (const auto& block : func->blocks) {
    for (BlockId succ : block->succs) {
      back_edge |= succ < block->id;
    }
  }
  EXPECT_TRUE(back_edge);
}

TEST(IrBuilder, FieldSensitiveSlots) {
  auto lowered = Lower(
      "struct ctx { int host; int port; };\n"
      "int f(int h) { struct ctx c; c.host = h; c.port = 2; return c.port; }");
  const IrFunction* func = lowered->module->FindFunction("f");
  EXPECT_NE(FindStoreTo(*func, "c#0"), nullptr);
  EXPECT_NE(FindStoreTo(*func, "c#1"), nullptr);
}

TEST(IrBuilder, IgnoredCallResultGetsSyntheticStore) {
  auto lowered = Lower("int g(int x);\nvoid f(int a) { g(a); }");
  const IrFunction* func = lowered->module->FindFunction("f");
  bool found = false;
  for (const auto& block : func->blocks) {
    for (const Instruction& inst : block->insts) {
      if (inst.op == Opcode::kStore && inst.is_synthetic_store) {
        found = true;
        EXPECT_TRUE(func->slots[inst.slot].is_synthetic);
        EXPECT_NE(inst.origin_callee, nullptr);
        EXPECT_EQ(inst.origin_callee->name, "g");
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(IrBuilder, IgnoredVoidCallHasNoSyntheticStore) {
  auto lowered = Lower("void g(int x);\nvoid f(int a) { g(a); }");
  const IrFunction* func = lowered->module->FindFunction("f");
  EXPECT_EQ(CountOps(*func, Opcode::kStore), 0);
}

TEST(IrBuilder, VoidCastedCallIsNotSynthetic) {
  auto lowered = Lower("int g(int x);\nvoid f(int a) { (void)g(a); }");
  const IrFunction* func = lowered->module->FindFunction("f");
  EXPECT_EQ(CountOps(*func, Opcode::kStore), 0);
}

TEST(IrBuilder, CallSiteRecordsAssignment) {
  auto lowered = Lower(
      "int g(int x);\n"
      "int f(int a) { int r = g(a); g(r); return r; }");
  const IrFunction* func = lowered->module->FindFunction("f");
  ASSERT_EQ(func->call_sites.size(), 2u);
  EXPECT_TRUE(func->call_sites[0].result_assigned);
  EXPECT_FALSE(func->call_sites[1].result_assigned);
}

TEST(IrBuilder, StoreFromCallAnnotated) {
  auto lowered = Lower("int g(int x);\nint f(int a) { int r = g(a); return r; }");
  const IrFunction* func = lowered->module->FindFunction("f");
  const Instruction* store = FindStoreTo(*func, "r");
  ASSERT_NE(store, nullptr);
  ASSERT_NE(store->origin_callee, nullptr);
  EXPECT_EQ(store->origin_callee->name, "g");
  EXPECT_TRUE(store->is_decl_init);
}

TEST(IrBuilder, CastedCallStillCallOrigin) {
  auto lowered = Lower("int g(int x);\nint f(int a) { int r = (int)g(a); return r; }");
  const IrFunction* func = lowered->module->FindFunction("f");
  const Instruction* store = FindStoreTo(*func, "r");
  ASSERT_NE(store, nullptr);
  EXPECT_NE(store->origin_callee, nullptr);
}

TEST(IrBuilder, ConstStoreAnnotated) {
  auto lowered = Lower("int f(void) { int x = 0; x = 5; return x; }");
  const IrFunction* func = lowered->module->FindFunction("f");
  int const_stores = 0;
  for (const auto& block : func->blocks) {
    for (const Instruction& inst : block->insts) {
      if (inst.op == Opcode::kStore && inst.is_const_store) {
        ++const_stores;
      }
    }
  }
  EXPECT_EQ(const_stores, 2);
}

TEST(IrBuilder, IncrementShapes) {
  auto lowered = Lower(
      "void f(int a) {\n"
      "  int i = 0;\n"
      "  i = i + 1;\n"
      "  i += 2;\n"
      "  i++;\n"
      "  --i;\n"
      "  i = i - 3;\n"
      "  i = a + 1;\n"  // not an increment of i
      "  g_use(i);\n"
      "}\nint g_use(int);");
  const IrFunction* func = lowered->module->FindFunction("f");
  std::vector<long long> amounts;
  for (const auto& block : func->blocks) {
    for (const Instruction& inst : block->insts) {
      if (inst.op == Opcode::kStore && inst.is_increment) {
        amounts.push_back(inst.increment_amount);
      }
    }
  }
  EXPECT_EQ(amounts, (std::vector<long long>{1, 2, 1, -1, -3}));
}

TEST(IrBuilder, AddressOfProducesAddrSlot) {
  auto lowered = Lower("void g(int *p);\nvoid f(void) { int x = 1; g(&x); }");
  const IrFunction* func = lowered->module->FindFunction("f");
  EXPECT_EQ(CountOps(*func, Opcode::kAddrSlot), 1);
}

TEST(IrBuilder, DerefLowersToIndirect) {
  auto lowered = Lower("void f(int *p) { *p = 1; int v = *p; g_use(v); }\nint g_use(int);");
  const IrFunction* func = lowered->module->FindFunction("f");
  EXPECT_EQ(CountOps(*func, Opcode::kStoreInd), 1);
  EXPECT_EQ(CountOps(*func, Opcode::kLoadInd), 1);
}

TEST(IrBuilder, ArrowFieldUsesFieldPtr) {
  auto lowered = Lower(
      "struct s { int a; int b; };\n"
      "int f(struct s *p) { p->b = 1; return p->b; }");
  const IrFunction* func = lowered->module->FindFunction("f");
  EXPECT_GE(CountOps(*func, Opcode::kFieldPtr), 2);
  EXPECT_EQ(CountOps(*func, Opcode::kStoreInd), 1);
}

TEST(IrBuilder, ReturnLocsRecorded) {
  auto lowered = Lower(
      "int f(int a) {\n"
      "  if (a) {\n"
      "    return 1;\n"
      "  }\n"
      "  return 2;\n"
      "}");
  const IrFunction* func = lowered->module->FindFunction("f");
  ASSERT_EQ(func->return_locs.size(), 2u);
  EXPECT_EQ(func->return_locs[0].line, 3);
  EXPECT_EQ(func->return_locs[1].line, 5);
}

TEST(IrBuilder, ImplicitReturnAppended) {
  auto lowered = Lower("int g_sink;\nvoid f(int a) { g_sink = a; }");
  const IrFunction* func = lowered->module->FindFunction("f");
  EXPECT_EQ(CountOps(*func, Opcode::kRet), 1);
}

TEST(IrBuilder, BreakContinueTargets) {
  auto lowered = Lower(
      "int f(int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) {\n"
      "    if (i > 10) { break; }\n"
      "    if (i > 5) { continue; }\n"
      "    s = s + i;\n"
      "  }\n"
      "  return s;\n"
      "}");
  const IrFunction* func = lowered->module->FindFunction("f");
  // All break/continue lower to kBr; edges must be consistent.
  for (const auto& block : func->blocks) {
    for (BlockId succ : block->succs) {
      ASSERT_GE(succ, 0);
      ASSERT_LT(succ, static_cast<BlockId>(func->blocks.size()));
      const auto& preds = func->blocks[succ]->preds;
      EXPECT_NE(std::find(preds.begin(), preds.end(), block->id), preds.end());
    }
  }
}

TEST(IrBuilder, FunctionReferenceLowersToAddrFunc) {
  // Mini-C spells function pointers through void*; a bare function name in
  // value position materializes the function's address.
  auto lowered = Lower(
      "int target(int x) { return x; }\n"
      "int f(int a) {\n"
      "  void *fp = target;\n"
      "  g_use(fp);\n"
      "  return a;\n"
      "}\nint g_use(void *);");
  const IrFunction* func = lowered->module->FindFunction("f");
  EXPECT_EQ(CountOps(*func, Opcode::kAddrFunc), 1);
}

TEST(IrBuilder, OnlyDefinedFunctionsLowered) {
  auto lowered = Lower("int proto(int);\nint f(void) { return proto(1); }");
  EXPECT_EQ(lowered->module->functions.size(), 1u);
  EXPECT_EQ(lowered->module->FindFunction("proto"), nullptr);
}

TEST(IrBuilder, DumpContainsSlots) {
  auto lowered = Lower("int f(int a) { int x = a; return x; }");
  std::string dump = lowered->module->FindFunction("f")->Dump();
  EXPECT_NE(dump.find("store @x"), std::string::npos);
  EXPECT_NE(dump.find("load @a"), std::string::npos);
}

// A file whose tree fills several arena chunks parses, prints and lowers to
// the same text as when every node was its own heap block; the pinned
// digests and sizeof-based footprint are those of that per-node arena.
TEST(AstArena, FileSpanningSeveralChunksParsesPrintsAndLowersAsBefore) {
  std::string code =
      "struct pair {\n  int a;\n  int b;\n};\n"
      "int g_total;\n"
      "int helper(int v);\n";
  for (int i = 0; i < 40; ++i) {
    const std::string n = std::to_string(i);
    code += "int f" + n + "(int x, struct pair *p) {\n  int acc = x * " + n +
            ";\n"
            "  for (int k = 0; k < x; k++) {\n"
            "    if (p->a > k) {\n"
            "      acc += helper(k);\n"
            "    } else {\n"
            "      p->b = acc - k;\n"
            "    }\n"
            "  }\n"
            "  g_total = acc;\n"
            "  return acc ? p->a : p->b;\n"
            "}\n";
  }
  auto lowered = Lower(code);
  const AstContext& arena = *lowered->unit.context;
  EXPECT_GE(arena.chunk_count(), 3u);
  EXPECT_EQ(arena.node_bytes(), 132648u);
  EXPECT_EQ(arena.node_count(), 2006u);
  const std::string printed = PrintUnit(lowered->unit);
  EXPECT_EQ(printed.size(), 9750u);
  EXPECT_EQ(Fnv1a(printed), 0x6e729b418b12c97eull);
  std::string ir;
  for (const auto& func : lowered->module->functions) {
    ir += func->Dump();
  }
  EXPECT_EQ(ir.size(), 39140u);
  EXPECT_EQ(Fnv1a(ir), 0x5b171bc1ba5c895full);
}

}  // namespace
}  // namespace vc
