// Locks the front end's output: the printed AST of every file and the IR
// dump of every function, over the four generated apps' head snapshots (at
// scale 0.1, as dataflow_differential_test builds them, and at scale 1.0)
// and the checked-in example corpus. Each constant is an FNV-1a 64 digest
// of the concatenated text, so a change to how trees or IR are stored must
// leave every one of them, and every count, as it is.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/ast/ast_printer.h"
#include "src/corpus/generator.h"
#include "src/corpus/profile.h"
#include "src/ir/ir_builder.h"
#include "src/parser/parser.h"
#include "src/support/string_util.h"

namespace vc {
namespace {

struct Digest {
  int files = 0;
  int functions = 0;
  uint64_t ast_bytes = 0;
  uint64_t ir_bytes = 0;
  uint64_t ast = kFnv1aOffsetBasis;
  uint64_t ir = kFnv1aOffsetBasis;
};

// Parses and lowers each (path, code) pair on its own and folds the printed
// tree and every function's dump into `digest`.
Digest DigestFiles(const std::vector<std::pair<std::string, std::string>>& files) {
  Digest digest;
  for (const auto& [path, code] : files) {
    SourceManager sm;
    DiagnosticEngine diags;
    const FileId file = sm.AddFile(path, code);
    TranslationUnit unit = ParseFile(sm, file, Config(), diags);
    std::unique_ptr<IrModule> module = LowerUnit(unit);
    const std::string printed = PrintUnit(unit);
    digest.ast = Fnv1a(printed, digest.ast);
    digest.ast_bytes += printed.size();
    for (const auto& func : module->functions) {
      const std::string dump = func->Dump();
      digest.ir = Fnv1a(dump, digest.ir);
      digest.ir_bytes += dump.size();
      ++digest.functions;
    }
    ++digest.files;
  }
  return digest;
}

void ExpectDigest(const std::string& what, const Digest& got, int files, int functions,
                  uint64_t ast_bytes, uint64_t ast, uint64_t ir_bytes, uint64_t ir) {
  std::printf("%s: files %d functions %d ast %llu bytes %#llx ir %llu bytes %#llx\n",
              what.c_str(), got.files, got.functions,
              static_cast<unsigned long long>(got.ast_bytes),
              static_cast<unsigned long long>(got.ast),
              static_cast<unsigned long long>(got.ir_bytes),
              static_cast<unsigned long long>(got.ir));
  EXPECT_EQ(got.files, files) << what;
  EXPECT_EQ(got.functions, functions) << what;
  EXPECT_EQ(got.ast_bytes, ast_bytes) << what;
  EXPECT_EQ(got.ast, ast) << what;
  EXPECT_EQ(got.ir_bytes, ir_bytes) << what;
  EXPECT_EQ(got.ir, ir) << what;
}

struct AppLock {
  const char* name;
  double scale;
  int files;
  int functions;
  uint64_t ast_bytes;
  uint64_t ast;
  uint64_t ir_bytes;
  uint64_t ir;
};

// Scale 0.1 is what the dataflow differential test analyzes; scale 1.0
// covers ten times as many functions in about a tenth of a second.
constexpr AppLock kAppLocks[] = {
    {"Linux", 0.1, 2, 145, 15709, 0xb3f3da0eea34fe82ull, 32118, 0x21ce98a0e5b3b0caull},
    {"NFS-ganesha", 0.1, 2, 119, 12453, 0xc7dd580607b38742ull, 21995, 0x36e06b68ff240c05ull},
    {"MySQL", 0.1, 5, 464, 59408, 0xfca682a41889eb96ull, 127684, 0x994cbc23b537555bull},
    {"OpenSSL", 0.1, 2, 107, 12266, 0x8e8a64fb63805461ull, 24313, 0x53a64d5d730cf46full},
    {"Linux", 1.0, 13, 1272, 138267, 0x71e3b77e73214355ull, 276933, 0x596b765f6735a162ull},
    {"NFS-ganesha", 1.0, 9, 952, 101045, 0xa68091d7f552347dull, 166339, 0x9fd0d4d42c3dec96ull},
    {"MySQL", 1.0, 44, 4577, 603522, 0x29b38b3128efaed7ull, 1270789, 0x2e00db2f3a536559ull},
    {"OpenSSL", 1.0, 9, 807, 97589, 0xbff842fc000f4bcbull, 189820, 0x1e262e11acab05d2ull},
};

TEST(FrontEndLock, GeneratedAppHeadSnapshots) {
  const std::vector<ProjectProfile> profiles = AllProfiles();
  ASSERT_EQ(2 * profiles.size(), std::size(kAppLocks));
  for (size_t i = 0; i < std::size(kAppLocks); ++i) {
    const AppLock& lock = kAppLocks[i];
    const ProjectProfile& profile = profiles[i % profiles.size()];
    ASSERT_EQ(profile.name, lock.name);
    const GeneratedApp app = GenerateApp(profile.Scaled(lock.scale));
    std::vector<std::pair<std::string, std::string>> files;
    for (const std::string& path : app.repo.ListFiles()) {
      files.emplace_back(path, *app.repo.Head(path));
    }
    ExpectDigest(profile.name + " x" + std::to_string(lock.scale), DigestFiles(files),
                 lock.files, lock.functions, lock.ast_bytes, lock.ast, lock.ir_bytes, lock.ir);
  }
}

TEST(FrontEndLock, ExampleCorpus) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const char* relative : {"netdev.c", "ringbuf.c", "sched.c", "fuzz/fuzz_param_overwrite.c",
                               "fuzz/fuzz_global_loop.c"}) {
    std::ifstream in(std::string(VALUECHECK_CORPUS_DIR) + "/" + relative);
    ASSERT_TRUE(in.good()) << relative;
    std::stringstream contents;
    contents << in.rdbuf();
    files.emplace_back(std::string("examples/corpus/") + relative, contents.str());
  }
  ExpectDigest("examples/corpus", DigestFiles(files), 5, 11, 1115, 0x13571ae074f46737ull, 2216,
               0xf98acaf0b6ee7339ull);
}

}  // namespace
}  // namespace vc
