// Seeded Mini-C program generator for the differential fuzzing harness.
//
// GenerateProgram(seed) produces a small multi-file Mini-C project drawn from
// the grammar src/parser accepts — structs, enums, typedefs, globals,
// pointers, every statement form — weighted toward def/use-heavy shapes
// (stores that are later overwritten, ignored call results, unused
// parameters) because those are the constructs the detector keys on. The
// programs are never executed, only analyzed, so the generator optimizes for
// parse validity and dataflow variety, not runtime sanity.
//
// Determinism contract: the same (seed, GenOptions) yields byte-identical
// files on every platform — the generator draws exclusively from vc::Rng and
// never iterates unordered containers. Every identifier the generator mints
// is unique program-wide (v<N>, fn<N>, st<N>, fd<N>, g<N>, ...), which the
// metamorphic mutator (mutator.h) relies on for safe whole-word renaming.

#ifndef VALUECHECK_SRC_TESTING_TESTGEN_H_
#define VALUECHECK_SRC_TESTING_TESTGEN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vc {
namespace testing {

struct SourceFile {
  std::string path;
  std::vector<std::string> lines;

  std::string Content() const;
};

// The unit the whole harness passes around: generator output, mutator input
// and output, minimizer input and output.
struct TestProgram {
  uint64_t seed = 0;
  std::vector<SourceFile> files;

  // (path, content) pairs in file order, ready for Project::FromSources.
  std::vector<std::pair<std::string, std::string>> ToSources() const;
  int TotalLines() const;
};

struct GenOptions {
  int min_files = 1;
  int max_files = 3;
  int max_functions_per_file = 4;
  int max_stmts_per_function = 10;
  int max_block_depth = 2;   // nesting of if/loop bodies
  int max_expr_depth = 3;
  bool gen_structs = true;
  bool gen_enums = true;
  bool gen_typedefs = true;
  bool gen_globals = true;
  bool gen_pointers = true;
  // `struct S* p = &v; p->f = ...; ... = p->f;` (needs structs and pointers).
  // Corpus profiles turn it off: their recorded answers predate the shape.
  bool gen_field_pointers = true;
  // Prefixes applied to every minted identifier / emitted file path. The
  // corpus profile generator (corpusgen.h) uses them to combine many
  // independently generated programs into one project without identifier or
  // path collisions. Defaults keep classic output byte-identical.
  // ident_prefix must be a valid identifier head ("u12_"); file_prefix is
  // prepended verbatim to the "gen<N>.c" path.
  std::string ident_prefix;
  std::string file_prefix;
};

TestProgram GenerateProgram(uint64_t seed, const GenOptions& options = GenOptions());

}  // namespace testing
}  // namespace vc

#endif  // VALUECHECK_SRC_TESTING_TESTGEN_H_
