#include "src/testing/corpusgen.h"

#include <filesystem>
#include <fstream>

#include "src/support/rng.h"

namespace vc {
namespace testing {

namespace {

// Per-file shape of a profile at a given scale. File counts are calibrated
// so "medium" clears 100k LOC and "large" clears 1M LOC with margin (the
// generator averages well above the floor targets below).
struct Shape {
  int files = 0;
  int max_functions_per_file = 0;
  int max_stmts_per_function = 0;
};

bool ShapeFor(const std::string& name, const std::string& scale, Shape* out) {
  // linux-like: many small translation units (~60-80 LOC each).
  // mysql-like: few huge translation units (several thousand LOC each).
  int scale_idx;
  if (scale == "small") {
    scale_idx = 0;
  } else if (scale == "medium") {
    scale_idx = 1;
  } else if (scale == "large") {
    scale_idx = 2;
  } else {
    return false;
  }
  if (name == "linux-like") {
    static constexpr int kFiles[3] = {120, 1800, 18000};
    *out = {kFiles[scale_idx], 6, 12};
    return true;
  }
  if (name == "mysql-like") {
    static constexpr int kFiles[3] = {4, 46, 480};
    *out = {kFiles[scale_idx], 260, 16};
    return true;
  }
  return false;
}

// Seed for file `index`: a splitmix64 step over (seed, index) so files are
// independent and order-free.
uint64_t FileSeed(const CorpusProfile& profile, int index) {
  Rng mix(profile.seed * 0x100000001b3ULL +
          static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ULL);
  return mix.Next();
}

}  // namespace

std::vector<std::string> CorpusProfileNames() {
  return {"linux-like", "mysql-like"};
}

std::vector<std::string> CorpusScaleNames() {
  return {"small", "medium", "large"};
}

bool MakeCorpusProfile(const std::string& name, const std::string& scale,
                       uint64_t seed, CorpusProfile* out) {
  Shape shape;
  if (!ShapeFor(name, scale, &shape)) {
    return false;
  }
  CorpusProfile profile;
  profile.name = name;
  profile.scale = scale;
  profile.seed = seed;
  profile.files = shape.files;
  profile.per_file = GenOptions();
  profile.per_file.min_files = 1;
  profile.per_file.max_files = 1;
  profile.per_file.max_functions_per_file = shape.max_functions_per_file;
  profile.per_file.max_stmts_per_function = shape.max_stmts_per_function;
  profile.per_file.gen_field_pointers = false;
  *out = profile;
  return true;
}

SourceFile GenerateCorpusFile(const CorpusProfile& profile, int index) {
  GenOptions options = profile.per_file;
  options.min_files = 1;
  options.max_files = 1;
  // Unique corpus-wide namespaces: identifiers u<index>_..., path
  // m<index>_gen0.c. Zero padding keeps directory listings and
  // Project::FromSources order aligned with index order.
  std::string tag = std::to_string(index);
  std::string padded = std::string(tag.size() < 6 ? 6 - tag.size() : 0, '0') + tag;
  options.ident_prefix = "u" + tag + "_";
  options.file_prefix = "m" + padded + "_";
  TestProgram program = GenerateProgram(FileSeed(profile, index), options);
  return program.files.front();
}

std::vector<std::pair<std::string, std::string>> GenerateCorpusSources(
    const CorpusProfile& profile) {
  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(static_cast<size_t>(profile.files));
  for (int i = 0; i < profile.files; ++i) {
    SourceFile file = GenerateCorpusFile(profile, i);
    sources.emplace_back(file.path, file.Content());
  }
  return sources;
}

bool WriteCorpus(const CorpusProfile& profile, const std::string& dir,
                 CorpusStats* stats, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error) *error = "cannot create " + dir + ": " + ec.message();
    return false;
  }
  CorpusStats local;
  for (int i = 0; i < profile.files; ++i) {
    SourceFile file = GenerateCorpusFile(profile, i);
    std::string content = file.Content();
    std::string path = dir + "/" + file.path;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out || !(out << content) || !out.flush()) {
      if (error) *error = "cannot write " + path;
      return false;
    }
    ++local.files;
    local.lines += static_cast<int64_t>(file.lines.size());
    local.bytes += static_cast<int64_t>(content.size());
  }
  if (stats) *stats = local;
  return true;
}

}  // namespace testing
}  // namespace vc
