// Property-based tests (parameterized seed sweeps).
//
// The centerpiece is an independent oracle for the detector: for a store to
// be a genuine unused definition, no load of its slot may be reachable in the
// CFG before an intervening store kills it. The oracle answers that by exact
// graph reachability (per-block behavior is deterministic: a block either
// uses the slot first, kills it first, or passes through), so the detector
// can be checked for BOTH soundness (everything reported is dead) and
// completeness (every dead store on an unsuppressed slot is reported) on
// randomly generated programs.

#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "src/core/detector.h"
#include "src/core/ranking.h"
#include "src/dataflow/liveness.h"
#include "src/support/rng.h"
#include "src/vcs/diff.h"
#include "src/vcs/repository.h"

namespace vc {
namespace {

// --- Random Mini-C program generation -----------------------------------------

class ProgramGen {
 public:
  explicit ProgramGen(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    std::string code = "int ext_fn(int v);\n";
    int funcs = static_cast<int>(rng_.NextInRange(1, 3));
    for (int i = 0; i < funcs; ++i) {
      code += Function(i);
    }
    return code;
  }

 private:
  std::string Var() {
    return vars_[rng_.NextBelow(vars_.size())];
  }

  std::string Expr(int depth = 0) {
    switch (rng_.NextBelow(depth > 1 ? 2 : 4)) {
      case 0:
        return Var();
      case 1:
        return std::to_string(rng_.NextInRange(0, 9));
      case 2:
        return "(" + Expr(depth + 1) + " + " + Expr(depth + 1) + ")";
      default:
        return "(" + Expr(depth + 1) + " - " + Expr(depth + 1) + ")";
    }
  }

  std::string Stmts(int depth, int count) {
    std::string out;
    for (int i = 0; i < count; ++i) {
      std::string pad(static_cast<size_t>(depth) * 2 + 2, ' ');
      switch (rng_.NextBelow(depth >= 2 ? 3 : 7)) {
        case 0:
          out += pad + Var() + " = " + Expr() + ";\n";
          break;
        case 1:
          out += pad + Var() + " = ext_fn(" + Expr() + ");\n";
          break;
        case 2:
          out += pad + "ext_fn(" + Expr() + ");\n";
          break;
        case 3:
          out += pad + "if (" + Expr() + " > " + Expr() + ") {\n" +
                 Stmts(depth + 1, static_cast<int>(rng_.NextInRange(1, 3))) + pad + "}";
          if (rng_.NextBool(0.5)) {
            out += " else {\n" + Stmts(depth + 1, static_cast<int>(rng_.NextInRange(1, 2))) +
                   pad + "}";
          }
          out += "\n";
          break;
        case 4:
          out += pad + "while (" + Var() + " > " + std::to_string(rng_.NextInRange(1, 5)) +
                 ") {\n" + Stmts(depth + 1, static_cast<int>(rng_.NextInRange(1, 3))) + pad +
                 "  " + Var() + " = " + Var() + " - 1;\n" + pad + "}\n";
          break;
        case 5: {
          // switch with 1-3 cases (possibly falling through) and a default.
          int arms = static_cast<int>(rng_.NextInRange(1, 3));
          out += pad + "switch (" + Var() + ") {\n";
          for (int a = 0; a < arms; ++a) {
            out += pad + "  case " + std::to_string(a) + ":\n" +
                   Stmts(depth + 2, static_cast<int>(rng_.NextInRange(1, 2)));
            if (rng_.NextBool(0.7)) {
              out += pad + "    break;\n";
            }
          }
          if (rng_.NextBool(0.6)) {
            out += pad + "  default:\n" +
                   Stmts(depth + 2, static_cast<int>(rng_.NextInRange(1, 2)));
          }
          out += pad + "}\n";
          break;
        }
        default:
          out += pad + "do {\n" +
                 Stmts(depth + 1, static_cast<int>(rng_.NextInRange(1, 2))) + pad + "  " +
                 Var() + " = " + Var() + " - 1;\n" + pad + "} while (" + Var() + " > " +
                 std::to_string(rng_.NextInRange(1, 5)) + ");\n";
          break;
      }
    }
    return out;
  }

  std::string Function(int index) {
    vars_ = {"p0", "p1", "a", "b", "c"};
    std::string code = "int fn" + std::to_string(index) + "(int p0, int p1) {\n";
    code += "  int a = 1;\n  int b = p0;\n  int c = 0;\n";
    code += Stmts(0, static_cast<int>(rng_.NextInRange(3, 9)));
    code += "  return " + Expr() + ";\n}\n";
    return code;
  }

  Rng rng_;
  std::vector<std::string> vars_;
};

// --- The oracle ------------------------------------------------------------------

// Block-level behavior of `slot` when entered from the top.
enum class BlockEffect { kUseFirst, kKillFirst, kTransparent };

BlockEffect EffectOf(const BasicBlock& block, SlotId slot, size_t from_index) {
  for (size_t i = from_index; i < block.insts.size(); ++i) {
    const Instruction& inst = block.insts[i];
    if ((inst.op == Opcode::kLoad || inst.op == Opcode::kAddrSlot) && inst.slot == slot) {
      return BlockEffect::kUseFirst;
    }
    if (inst.op == Opcode::kStore && inst.slot == slot) {
      return BlockEffect::kKillFirst;
    }
  }
  return BlockEffect::kTransparent;
}

// True iff a load of `slot` is reachable from just after instruction
// (block_id, index) without passing a store to `slot`.
bool UseReachable(const IrFunction& func, SlotId slot, BlockId block_id, size_t index) {
  BlockEffect first = EffectOf(func.blocks[block_id], slot, index + 1);
  if (first == BlockEffect::kUseFirst) {
    return true;
  }
  if (first == BlockEffect::kKillFirst) {
    return false;
  }
  std::set<BlockId> visited;
  std::deque<BlockId> queue(func.blocks[block_id].succs.begin(),
                            func.blocks[block_id].succs.end());
  while (!queue.empty()) {
    BlockId next = queue.front();
    queue.pop_front();
    if (!visited.insert(next).second) {
      continue;
    }
    switch (EffectOf(func.blocks[next], slot, 0)) {
      case BlockEffect::kUseFirst:
        return true;
      case BlockEffect::kKillFirst:
        break;
      case BlockEffect::kTransparent:
        for (BlockId succ : func.blocks[next].succs) {
          queue.push_back(succ);
        }
        break;
    }
  }
  return false;
}

struct DetectorProperty : public ::testing::TestWithParam<int> {};

TEST_P(DetectorProperty, ReportsExactlyTheDeadStores) {
  ProgramGen gen(static_cast<uint64_t>(GetParam()) * 7919 + 17);
  std::string code = gen.Generate();
  Project project = Project::FromSources({{"prog.c", code}});
  ASSERT_FALSE(project.diags().HasErrors())
      << project.diags().Render(project.sources()) << "\n"
      << code;

  std::vector<UnusedDefCandidate> candidates = DetectAll(project);
  std::set<std::pair<const IrFunction*, const Instruction*>> reported;
  for (const UnusedDefCandidate& cand : candidates) {
    if (cand.is_param) {
      continue;  // parameters are checked separately below
    }
    // Locate the exact store instruction.
    for (const auto& block : cand.ir_func->blocks) {
      for (const Instruction& inst : block.insts) {
        if (inst.op == Opcode::kStore && inst.slot == cand.slot && inst.loc == cand.def_loc) {
          reported.insert({cand.ir_func, &inst});
        }
      }
    }
  }

  for (const auto& module : project.modules()) {
    for (const auto& func : module->functions) {
      SlotSet taken = ComputeAddressTaken(*func);
      for (const auto& block : func->blocks) {
        for (size_t i = 0; i < block.insts.size(); ++i) {
          const Instruction& inst = block.insts[i];
          if (inst.op != Opcode::kStore) {
            continue;
          }
          const Slot& slot = func->slots[inst.slot];
          if (slot.var != nullptr && slot.var->is_global) {
            continue;
          }
          if (taken.Contains(inst.slot)) {
            continue;  // suppressed by the alias rule
          }
          if (slot.is_synthetic && !inst.is_synthetic_store) {
            continue;
          }
          bool is_reported = reported.count({func.get(), &inst}) > 0;
          bool oracle_dead = !UseReachable(*func, inst.slot, block.id, i);
          EXPECT_EQ(is_reported, oracle_dead)
              << "function " << func->name << " store to " << slot.name << " at line "
              << inst.loc.line << "\n"
              << code;
        }
      }
    }
  }
}

TEST_P(DetectorProperty, ParamCandidatesMatchEntryReachability) {
  ProgramGen gen(static_cast<uint64_t>(GetParam()) * 104729 + 3);
  std::string code = gen.Generate();
  Project project = Project::FromSources({{"prog.c", code}});
  ASSERT_FALSE(project.diags().HasErrors());

  std::vector<UnusedDefCandidate> candidates = DetectAll(project);
  for (const auto& module : project.modules()) {
    for (const auto& func : module->functions) {
      SlotSet taken = ComputeAddressTaken(*func);
      for (SlotId param : func->param_slots) {
        if (taken.Contains(param)) {
          continue;
        }
        // Reachability of a use from function entry, before any store.
        bool used;
        BlockEffect entry = EffectOf(func->blocks[0], param, 0);
        if (entry == BlockEffect::kUseFirst) {
          used = true;
        } else if (entry == BlockEffect::kKillFirst) {
          used = false;
        } else {
          // Probe from a virtual instruction before the entry block by
          // checking reachability from index -1.
          used = UseReachable(*func, param, 0, static_cast<size_t>(-1));
        }
        bool is_candidate = false;
        for (const UnusedDefCandidate& cand : candidates) {
          if (cand.is_param && cand.ir_func == func.get() && cand.slot == param) {
            is_candidate = true;
          }
        }
        EXPECT_EQ(is_candidate, !used) << func->name << " param "
                                       << func->slots[param].name << "\n"
                                       << code;
      }
    }
  }
}

TEST_P(DetectorProperty, DetectionIsDeterministic) {
  ProgramGen gen(static_cast<uint64_t>(GetParam()) * 31 + 5);
  std::string code = gen.Generate();
  Project project = Project::FromSources({{"prog.c", code}});
  std::vector<UnusedDefCandidate> first = DetectAll(project);
  std::vector<UnusedDefCandidate> second = DetectAll(project);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].slot_name, second[i].slot_name);
    EXPECT_EQ(first[i].def_loc, second[i].def_loc);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorProperty, ::testing::Range(0, 25));

// --- Diff properties ---------------------------------------------------------------

struct DiffProperty : public ::testing::TestWithParam<int> {};

std::vector<std::string> RandomLines(Rng& rng, int max_lines, int alphabet) {
  std::vector<std::string> lines;
  int n = static_cast<int>(rng.NextInRange(0, max_lines));
  for (int i = 0; i < n; ++i) {
    lines.push_back("line" + std::to_string(rng.NextInRange(0, alphabet)));
  }
  return lines;
}

TEST_P(DiffProperty, RoundTripOnRandomInputs) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 1);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<std::string> a = RandomLines(rng, 30, 8);
    std::vector<std::string> b = RandomLines(rng, 30, 8);
    std::vector<std::string_view> av(a.begin(), a.end());
    std::vector<std::string_view> bv(b.begin(), b.end());
    auto edits = DiffLines(av, bv);
    EXPECT_EQ(ApplyEdits(av, bv, edits), b);
    // Keeps must be genuine matches.
    for (const Edit& edit : edits) {
      if (edit.op == EditOp::kKeep) {
        EXPECT_EQ(a[edit.old_index], b[edit.new_index]);
      }
    }
  }
}

TEST_P(DiffProperty, EditedDerivativeRoundTrips) {
  // b derived from a by random edits: the common case blame exercises.
  Rng rng(static_cast<uint64_t>(GetParam()) * 40503 + 7);
  std::vector<std::string> a = RandomLines(rng, 40, 12);
  std::vector<std::string> b;
  for (const std::string& line : a) {
    if (rng.NextBool(0.1)) {
      continue;  // delete
    }
    b.push_back(line);
    if (rng.NextBool(0.15)) {
      b.push_back("inserted" + std::to_string(rng.NextInRange(0, 1000)));
    }
  }
  std::vector<std::string_view> av(a.begin(), a.end());
  std::vector<std::string_view> bv(b.begin(), b.end());
  EXPECT_EQ(ApplyEdits(av, bv, DiffLines(av, bv)), b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffProperty, ::testing::Range(0, 10));

// --- Blame properties -----------------------------------------------------------------

struct BlameProperty : public ::testing::TestWithParam<int> {};

TEST_P(BlameProperty, LineCountConservedAndUniqueLinesExact) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6364136223846793005ULL + 1442695040888963407ULL);
  Repository repo;
  std::vector<AuthorId> authors;
  for (int i = 0; i < 4; ++i) {
    authors.push_back(repo.AddAuthor("dev" + std::to_string(i)));
  }
  // Evolve a file through random insertions of globally unique lines.
  std::vector<std::pair<std::string, AuthorId>> lines;  // (text, expected author)
  int serial = 0;
  for (int commit = 0; commit < 8; ++commit) {
    AuthorId author = authors[rng.NextBelow(authors.size())];
    int inserts = static_cast<int>(rng.NextInRange(1, 5));
    for (int i = 0; i < inserts; ++i) {
      size_t pos = lines.empty() ? 0 : rng.NextBelow(lines.size() + 1);
      lines.insert(lines.begin() + static_cast<long>(pos),
                   {"unique_line_" + std::to_string(serial++), author});
    }
    std::string content;
    for (const auto& [text, who] : lines) {
      content += text + "\n";
    }
    repo.AddCommit(author, 100 + commit, "evolve", {{"f.c", content}});
  }
  const auto& blame = repo.Blame("f.c");
  ASSERT_EQ(blame.size(), lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(blame[i].author, lines[i].second) << "line " << i << ": " << lines[i].first;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlameProperty, ::testing::Range(0, 10));

// --- Ranking properties ---------------------------------------------------------------

TEST(RankingProperty, OrderIndependentOfInputPermutation) {
  Repository repo;
  AuthorId a0 = repo.AddAuthor("a0");
  AuthorId a1 = repo.AddAuthor("a1");
  repo.AddCommit(a0, 1, "c", {{"x.c", "1\n"}});
  repo.AddCommit(a1, 2, "c", {{"x.c", "1\n2\n"}});

  std::vector<UnusedDefCandidate> candidates;
  for (int i = 0; i < 12; ++i) {
    UnusedDefCandidate cand;
    cand.file = "x.c";
    cand.def_loc = {0, i + 1, 1};
    cand.responsible_author = (i % 2 == 0) ? a0 : a1;
    candidates.push_back(cand);
  }
  std::vector<UnusedDefCandidate> shuffled = candidates;
  Rng rng(5);
  rng.Shuffle(shuffled);
  RankCandidates(candidates, &repo);
  RankCandidates(shuffled, &repo);
  ASSERT_EQ(candidates.size(), shuffled.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(candidates[i].def_loc, shuffled[i].def_loc);
  }
}

TEST(RankingProperty, MoreAcceptancesLowerTheScore) {
  Repository repo;
  AuthorId author = repo.AddAuthor("author");
  AuthorId other = repo.AddAuthor("other");
  repo.AddCommit(author, 1, "c", {{"x.c", "1\n"}});
  double previous = DokScoreFor(repo, author, "x.c");
  std::string content = "1\n";
  for (int i = 0; i < 6; ++i) {
    content += std::to_string(i) + "\n";
    repo.AddCommit(other, 2 + i, "c", {{"x.c", content}});
    double current = DokScoreFor(repo, author, "x.c");
    EXPECT_LT(current, previous);
    previous = current;
  }
}

}  // namespace
}  // namespace vc
