// vc_fuzz — differential fuzzing front end over src/testing.
//
// Generates seeded Mini-C programs, runs every enabled oracle on each
// (see src/testing/oracle.h), and on failure delta-debugs the program down to
// a small reproducer written to --corpus-dir. Deterministic: the same
// --seed/--iters pair replays the identical campaign; a MANIFEST's
// program_seed replays one program via --replay.
//
//   vc_fuzz --seed 42 --iters 500
//   vc_fuzz --seed 1 --iters 200 --time-budget 30 --corpus-dir fuzz-failures
//   vc_fuzz --replay 1234567890123456789
//   vc_fuzz --seed 7 --iters 50 --oracles jobs_determinism,metamorphic
//   vc_fuzz --seed 42 --iters 200 --inject-bug     # oracle demo: must fail
//
// Exit codes: 0 = all oracles passed, 1 = failures found, 2 = usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/checkers/registry.h"
#include "src/testing/fuzz.h"
#include "src/testing/oracle.h"

namespace {

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: vc_fuzz [options]\n"
               "\n"
               "  --seed N          campaign seed (default 1)\n"
               "  --iters N         programs to generate and check (default 100)\n"
               "  --time-budget S   stop after S seconds (default: none)\n"
               "  --oracles LIST    comma-separated subset of (default: all):\n");
  for (vc::testing::OracleKind kind : vc::testing::AllOracles()) {
    std::fprintf(out, "                    %s\n", vc::testing::OracleKindName(kind));
  }
  std::fprintf(out,
               "  --checkers LIST   comma-separated checker names the analyzed runs\n"
               "                    enable (default: the registry's default set)\n"
               "  --corpus-dir DIR  write minimized reproducers here (default:\n"
               "                    fuzz-failures; pass '' to keep in memory)\n"
               "  --max-files N     files per generated program (default 3)\n"
               "  --no-minimize     keep failing programs unreduced\n"
               "  --replay SEED     check exactly one program generated from SEED\n"
               "  --inject-bug      simulate a detector merge bug in parallel runs\n"
               "                    (the jobs_determinism oracle must catch it)\n"
               "  --quiet           suppress progress output\n"
               "  --help            this text\n");
}

bool ParseInt(const char* text, long long* value) {
  char* end = nullptr;
  *value = std::strtoll(text, &end, 10);
  return end != text && *end == '\0';
}

bool ParseU64(const char* text, uint64_t* value) {
  char* end = nullptr;
  *value = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  vc::testing::FuzzOptions options;
  options.corpus_dir = "fuzz-failures";
  options.progress = &std::cerr;
  bool quiet = false;
  bool replay = false;
  uint64_t replay_seed = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "vc_fuzz: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else if (arg == "--seed") {
      if (!ParseU64(next("--seed"), &options.seed)) {
        std::fprintf(stderr, "vc_fuzz: bad --seed value\n");
        return 2;
      }
    } else if (arg == "--iters") {
      long long value = 0;
      if (!ParseInt(next("--iters"), &value) || value < 0) {
        std::fprintf(stderr, "vc_fuzz: bad --iters value\n");
        return 2;
      }
      options.iterations = static_cast<int>(value);
    } else if (arg == "--time-budget") {
      options.time_budget_seconds = std::atof(next("--time-budget"));
    } else if (arg == "--oracles") {
      std::string list = next("--oracles");
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        std::string name = list.substr(
            start, comma == std::string::npos ? std::string::npos : comma - start);
        if (!name.empty()) {
          std::optional<vc::testing::OracleKind> kind =
              vc::testing::OracleKindFromName(name);
          if (!kind.has_value()) {
            std::fprintf(stderr, "vc_fuzz: unknown oracle '%s'\n", name.c_str());
            return 2;
          }
          options.oracle.enabled.insert(*kind);
        }
        if (comma == std::string::npos) {
          break;
        }
        start = comma + 1;
      }
      if (options.oracle.enabled.empty()) {
        std::fprintf(stderr, "vc_fuzz: --oracles selected nothing\n");
        return 2;
      }
    } else if (arg == "--checkers") {
      std::string list = next("--checkers");
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        std::string name = list.substr(
            start, comma == std::string::npos ? std::string::npos : comma - start);
        if (!name.empty()) {
          if (vc::CheckerRegistry::Global().Find(name) == nullptr) {
            std::fprintf(stderr, "vc_fuzz: unknown checker '%s'\n", name.c_str());
            return 2;
          }
          options.oracle.checkers.push_back(name);
        }
        if (comma == std::string::npos) {
          break;
        }
        start = comma + 1;
      }
      if (options.oracle.checkers.empty()) {
        std::fprintf(stderr, "vc_fuzz: --checkers selected nothing\n");
        return 2;
      }
    } else if (arg == "--corpus-dir") {
      options.corpus_dir = next("--corpus-dir");
    } else if (arg == "--max-files") {
      long long value = 0;
      if (!ParseInt(next("--max-files"), &value) || value < 1) {
        std::fprintf(stderr, "vc_fuzz: bad --max-files value\n");
        return 2;
      }
      options.gen.max_files = static_cast<int>(value);
    } else if (arg == "--no-minimize") {
      options.minimize = false;
    } else if (arg == "--replay") {
      replay = true;
      if (!ParseU64(next("--replay"), &replay_seed)) {
        std::fprintf(stderr, "vc_fuzz: bad --replay value\n");
        return 2;
      }
    } else if (arg == "--inject-bug") {
      options.oracle.parallel_fault = vc::testing::DropOverwrittenFindingsFault();
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "vc_fuzz: unknown flag '%s'\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    }
  }
  if (quiet) {
    options.progress = nullptr;
  }

  if (replay) {
    // One program, straight from the given seed (this is what a MANIFEST's
    // program_seed names). Reuse the campaign with a single iteration whose
    // derived seed is forced to the replayed one by shifting the campaign
    // seed space: generate directly instead.
    vc::testing::TestProgram program = vc::testing::GenerateProgram(replay_seed, options.gen);
    vc::testing::OracleOptions oracle_options = options.oracle;
    oracle_options.mutation_seed = replay_seed;
    vc::testing::OracleRunner runner(oracle_options);
    vc::testing::OracleVerdict verdict = runner.Check(program);
    if (!quiet) {
      for (const vc::testing::SourceFile& file : program.files) {
        std::cerr << "--- " << file.path << " (" << file.lines.size() << " lines)\n";
      }
    }
    if (verdict.Passed()) {
      std::printf("vc_fuzz: replay of seed %llu passed all oracles\n",
                  static_cast<unsigned long long>(replay_seed));
      return 0;
    }
    for (const vc::testing::OracleFailure& failure : verdict.failures) {
      std::printf("vc_fuzz: replay FAILURE oracle=%s%s%s detail=%s\n",
                  vc::testing::OracleKindName(failure.oracle),
                  failure.transform.empty() ? "" : " transform=",
                  failure.transform.c_str(), failure.detail.c_str());
    }
    return 1;
  }

  vc::testing::FuzzResult result = vc::testing::RunFuzzCampaign(options);
  std::printf("vc_fuzz: %d iteration(s) in %.1fs, %zu failure(s)\n", result.iterations_run,
              result.seconds, result.failures.size());
  for (const vc::testing::FuzzFailure& failure : result.failures) {
    std::printf("  iteration %d seed %llu oracle %s%s%s: %s\n", failure.iteration,
                static_cast<unsigned long long>(failure.program_seed),
                vc::testing::OracleKindName(failure.oracle),
                failure.transform.empty() ? "" : " transform ", failure.transform.c_str(),
                failure.detail.c_str());
    if (!failure.reproducer_dir.empty()) {
      std::printf("    reproducer: %s (%d lines)\n", failure.reproducer_dir.c_str(),
                  failure.reproducer.TotalLines());
    }
  }
  return result.Clean() ? 0 : 1;
}
