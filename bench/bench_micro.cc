// Micro-benchmarks (google-benchmark) for the analysis substrates: lexing,
// parsing, IR lowering, liveness fix points, Andersen's points-to, Myers diff, and
// blame replay. These are ablation-style measurements for DESIGN.md's design
// choices (per-function analysis, snapshot storage with diff-based blame).

#include <benchmark/benchmark.h>

#include "src/checkers/driver.h"
#include "src/checkers/registry.h"
#include "src/core/detector.h"
#include "src/core/project.h"
#include "src/dataflow/define_sets.h"
#include "src/dataflow/liveness.h"
#include "src/ir/ir_builder.h"
#include "src/lexer/lexer.h"
#include "src/lexer/preprocessor.h"
#include "src/parser/parser.h"
#include "src/pointer/andersen.h"
#include "src/support/rng.h"
#include "src/vcs/diff.h"
#include "src/vcs/repository.h"

namespace {

// A function with `blocks` if/else diamonds and a loop, all variables used.
std::string SyntheticFunction(int index, int blocks) {
  std::string t = std::to_string(index);
  std::string code = "int fn_" + t + "(int a, int b) {\n  int acc_" + t + " = a;\n";
  for (int i = 0; i < blocks; ++i) {
    code += "  if (acc_" + t + " > " + std::to_string(i) + ") {\n";
    code += "    acc_" + t + " = acc_" + t + " + b;\n";
    code += "  } else {\n";
    code += "    acc_" + t + " = acc_" + t + " - 1;\n";
    code += "  }\n";
  }
  code += "  while (acc_" + t + " > b) {\n    acc_" + t + " = acc_" + t + " - b;\n  }\n";
  code += "  return acc_" + t + ";\n}\n";
  return code;
}

std::string SyntheticModule(int functions, int blocks_each) {
  std::string code;
  for (int i = 0; i < functions; ++i) {
    code += SyntheticFunction(i, blocks_each);
  }
  return code;
}

// Tokens of `code` (with the final kEof).
size_t TokenCount(const std::string& code) {
  vc::SourceManager sm;
  const vc::FileId file = sm.AddFile("bench.c", code);
  vc::DiagnosticEngine diags;
  return vc::Lex(sm, file, vc::Preprocess(code, vc::Config()), diags).size();
}

// Reports a front-end pass over `code` as bytes and tokens per second, so the
// cost per byte and per token reads straight off the output.
void SetFrontEndRates(benchmark::State& state, const std::string& code) {
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(code.size()));
  state.counters["tokens"] = benchmark::Counter(static_cast<double>(TokenCount(code)),
                                                benchmark::Counter::kIsIterationInvariantRate);
}

void BM_LexModule(benchmark::State& state) {
  const std::string code = SyntheticModule(static_cast<int>(state.range(0)), 6);
  vc::SourceManager sm;
  const vc::FileId file = sm.AddFile("bench.c", code);
  const vc::PreprocessResult pp = vc::Preprocess(code, vc::Config());
  for (auto _ : state) {
    vc::DiagnosticEngine diags;
    std::vector<vc::Token> tokens = vc::Lex(sm, file, pp, diags);
    benchmark::DoNotOptimize(tokens.data());
  }
  SetFrontEndRates(state, code);
}
BENCHMARK(BM_LexModule)->Arg(10)->Arg(100);

void BM_ParseModule(benchmark::State& state) {
  std::string code = SyntheticModule(static_cast<int>(state.range(0)), 6);
  for (auto _ : state) {
    vc::SourceManager sm;
    vc::DiagnosticEngine diags;
    vc::TranslationUnit unit = vc::ParseString(sm, "bench.c", code, diags);
    benchmark::DoNotOptimize(unit.functions.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  SetFrontEndRates(state, code);
}
BENCHMARK(BM_ParseModule)->Arg(10)->Arg(100);

void BM_LowerModule(benchmark::State& state) {
  vc::SourceManager sm;
  vc::DiagnosticEngine diags;
  std::string code = SyntheticModule(static_cast<int>(state.range(0)), 6);
  vc::TranslationUnit unit = vc::ParseString(sm, "bench.c", code, diags);
  for (auto _ : state) {
    auto module = vc::LowerUnit(unit);
    benchmark::DoNotOptimize(module->functions.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LowerModule)->Arg(10)->Arg(100);

void BM_LivenessFixPoint(benchmark::State& state) {
  vc::SourceManager sm;
  vc::DiagnosticEngine diags;
  std::string code = SyntheticFunction(0, static_cast<int>(state.range(0)));
  vc::TranslationUnit unit = vc::ParseString(sm, "bench.c", code, diags);
  auto module = vc::LowerUnit(unit);
  const vc::IrFunction& func = *module->functions.front();
  for (auto _ : state) {
    vc::LivenessResult result = vc::ComputeLiveness(func);
    benchmark::DoNotOptimize(result.iterations);
  }
}
BENCHMARK(BM_LivenessFixPoint)->Arg(8)->Arg(64);

void BM_DefineSets(benchmark::State& state) {
  vc::SourceManager sm;
  vc::DiagnosticEngine diags;
  std::string code = SyntheticFunction(0, static_cast<int>(state.range(0)));
  vc::TranslationUnit unit = vc::ParseString(sm, "bench.c", code, diags);
  auto module = vc::LowerUnit(unit);
  const vc::IrFunction& func = *module->functions.front();
  for (auto _ : state) {
    vc::DefineSetResult result = vc::ComputeDefineSets(vc::SlotEvents(func));
    benchmark::DoNotOptimize(result.iterations);
  }
}
BENCHMARK(BM_DefineSets)->Arg(8)->Arg(64);

void BM_AndersenPointsTo(benchmark::State& state) {
  // Pointer-heavy function: a chain of copies and swaps.
  std::string code = "int pf(int n) {\n  int x = 1;\n  int y = 2;\n";
  code += "  int *p = &x;\n  int *q = &y;\n";
  for (int i = 0; i < state.range(0); ++i) {
    code += "  if (n > " + std::to_string(i) + ") {\n    int *t" + std::to_string(i) +
            " = p;\n    p = q;\n    q = t" + std::to_string(i) + ";\n  }\n";
  }
  code += "  return *p + *q;\n}\n";
  vc::SourceManager sm;
  vc::DiagnosticEngine diags;
  vc::TranslationUnit unit = vc::ParseString(sm, "bench.c", code, diags);
  auto module = vc::LowerUnit(unit);
  const vc::IrFunction& func = *module->functions.front();
  for (auto _ : state) {
    vc::PointsTo pts(func);
    benchmark::DoNotOptimize(pts.iterations());
  }
}
BENCHMARK(BM_AndersenPointsTo)->Arg(4)->Arg(32);

void BM_DetectModule(benchmark::State& state) {
  vc::Project project = vc::Project::FromSources(
      {{"bench.c", SyntheticModule(static_cast<int>(state.range(0)), 6)}});
  for (auto _ : state) {
    auto candidates = vc::DetectAll(project);
    benchmark::DoNotOptimize(candidates.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DetectModule)->Arg(10)->Arg(100);

// Functions shaped like the paper apps' (one block, about a dozen
// instructions over three or four slots, one dead store and one ignored
// call result), through all five default checkers at jobs=1: the detect
// stage's cost per function when allocation, not the fix point, dominates.
void BM_DetectSmallFunctions(benchmark::State& state) {
  std::string code = "int sink(int v);\n";
  for (int i = 0; i < state.range(0); ++i) {
    const std::string t = std::to_string(i);
    code += "int small_" + t + "(int a, int b) {\n  int x = a + b;\n  int y = x * " + t +
            ";\n  x = y - a;\n  sink(x);\n  x = b;\n  return y + b;\n}\n";
  }
  vc::Project project = vc::Project::FromSources({{"small.c", code}});
  const std::vector<const vc::Checker*> checkers = vc::CheckerRegistry::Global().Defaults();
  for (auto _ : state) {
    vc::DetectSlices detect = vc::RunCheckersSliced(project, checkers, vc::ProjectTraits(), 1,
                                                   nullptr, nullptr, /*isolate=*/true);
    benchmark::DoNotOptimize(detect.candidates);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DetectSmallFunctions)->Arg(1000);

void BM_MyersDiff(benchmark::State& state) {
  vc::Rng rng(7);
  std::vector<std::string> a;
  for (int i = 0; i < state.range(0); ++i) {
    a.push_back("line_" + std::to_string(rng.NextInRange(0, 50)));
  }
  std::vector<std::string> b = a;
  for (int i = 0; i < state.range(0) / 10 + 1; ++i) {
    b.insert(b.begin() + static_cast<long>(rng.NextBelow(b.size() + 1)),
             "inserted_" + std::to_string(i));
  }
  std::vector<std::string_view> av(a.begin(), a.end());
  std::vector<std::string_view> bv(b.begin(), b.end());
  for (auto _ : state) {
    auto edits = vc::DiffLines(av, bv);
    benchmark::DoNotOptimize(edits.size());
  }
}
BENCHMARK(BM_MyersDiff)->Arg(100)->Arg(1000);

void BM_BlameReplay(benchmark::State& state) {
  vc::Repository repo;
  vc::AuthorId author = repo.AddAuthor("dev");
  std::string content;
  for (int commit = 0; commit < state.range(0); ++commit) {
    content += "line_of_commit_" + std::to_string(commit) + "\n";
    repo.AddCommit(author, 1000 + commit, "evolve", {{"f.c", content}});
  }
  for (auto _ : state) {
    auto blame = repo.BlameAt("f.c", repo.NumCommits() - 1);
    benchmark::DoNotOptimize(blame.size());
  }
}
BENCHMARK(BM_BlameReplay)->Arg(20)->Arg(100);

// Blame replay against the edit position: a 4,000-line file and 64 commits
// that each change one line at its start (0), middle (1) or end (2). Each
// step splits and diffs only the lines after the opening ones the two
// versions share, so a step costs less the later its first change sits.
void BM_BlameReplayEdit(benchmark::State& state) {
  constexpr int kLines = 4000;
  constexpr int kCommits = 64;
  vc::Repository repo;
  vc::AuthorId author = repo.AddAuthor("dev");
  std::vector<std::string> lines;
  for (int i = 0; i < kLines; ++i) {
    lines.push_back("int line_" + std::to_string(i) + ";");
  }
  auto content = [&lines] {
    std::string text;
    for (const std::string& line : lines) {
      text += line + "\n";
    }
    return text;
  };
  repo.AddCommit(author, 1000, "create", {{"f.c", content()}});
  const int edited = state.range(0) == 0 ? 0 : state.range(0) == 1 ? kLines / 2 : kLines - 1;
  for (int commit = 1; commit <= kCommits; ++commit) {
    lines[edited] = "int edit_" + std::to_string(commit) + ";";
    repo.AddCommit(author, 1000 + commit, "edit", {{"f.c", content()}});
  }
  for (auto _ : state) {
    auto blame = repo.BlameAt("f.c", repo.NumCommits() - 1);
    benchmark::DoNotOptimize(blame.size());
  }
}
BENCHMARK(BM_BlameReplayEdit)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
