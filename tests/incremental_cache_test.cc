// Cache-correctness battery for the incremental engine: content hashing must
// catch edits line-count and length cannot, the disk tier's config key must
// invalidate on any configuration or checker-set change, and a damaged
// --cache-dir must degrade to a full re-parse through the quarantine channel
// rather than fail the run. Also covers fault injection through the
// incremental path (quarantine records thread through IncrementalResult).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/incremental.h"

namespace vc {
namespace {

class IncrementalCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vc_inc_cache_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

Repository TwoCommitRepo(const std::string& v1, const std::string& v2) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  repo.AddCommit(alice, 100, "create", {{"a.c", v1}});
  repo.AddCommit(alice, 200, "edit", {{"a.c", v2}});
  return repo;
}

TEST_F(IncrementalCacheTest, LengthPreservingEditInvalidates) {
  // Same byte length, same line count — only the content hash can tell.
  // v1 overwrites `a` before use (one finding); v2's second store reads `a`,
  // so the finding disappears.
  std::string v1 =
      "int f(int x) {\n"
      "  int a = x + 1;\n"
      "  a = x + 5;\n"
      "  return a;\n"
      "}\n";
  std::string v2 =
      "int f(int x) {\n"
      "  int a = x + 1;\n"
      "  a = a + 5;\n"
      "  return a;\n"
      "}\n";
  ASSERT_EQ(v1.size(), v2.size());
  ASSERT_NE(HashContent(v1), HashContent(v2));

  Repository repo = TwoCommitRepo(v1, v2);
  // Single-author history: keep non-cross-scope findings so the overwrite
  // in v1 is visible at all.
  AnalysisOptions options;
  options.cross_scope_only = false;
  IncrementalEngine engine{options};
  IncrementalResult first = engine.AnalyzeCommit(repo, 0);
  EXPECT_EQ(first.findings().size(), 1u);
  IncrementalResult second = engine.AnalyzeCommit(repo, 1);
  EXPECT_EQ(second.files_reparsed, 1);
  // The carried cache must not leak v1's finding into the v2 report.
  AnalysisReport full = Analysis(options).RunOnRepository(repo.PrefixCopy(1));
  EXPECT_EQ(second.report.ToCsv(), full.ToCsv());
  EXPECT_NE(second.report.ToCsv(), first.report.ToCsv());
}

TEST_F(IncrementalCacheTest, WhitespaceOnlyEditReparsesWithoutChurn) {
  std::string v1 =
      "int f(int x) {\n"
      "  int a = x + 1;\n"
      "  a = x + 5;\n"
      "  return a;\n"
      "}\n";
  Repository repo = TwoCommitRepo(v1, v1 + "\n");
  IncrementalEngine engine{AnalysisOptions{}};
  IncrementalResult first = engine.AnalyzeCommit(repo, 0);
  IncrementalResult second = engine.AnalyzeCommit(repo, 1);
  // The hash can't know the edit was whitespace, so the file re-parses —
  // but every finding carries (same fingerprint), nothing is new or fixed.
  EXPECT_EQ(second.files_reparsed, 1);
  EXPECT_EQ(second.findings_new, 0);
  EXPECT_EQ(second.findings_fixed, 0);
  EXPECT_EQ(second.findings_carried, static_cast<int>(first.findings().size()));
  EXPECT_EQ(second.report.ToCsv(), first.report.ToCsv());
}

TEST(IncrementalCacheKey, CoversConfigCheckersTraitsBudgetAndFault) {
  AnalysisOptions base;
  std::string base_key = MakeCacheConfigKey(base);
  EXPECT_NE(base_key.find("schema="), std::string::npos);

  AnalysisOptions with_macro = base;
  with_macro.config.Define("DEBUG", 1);
  EXPECT_NE(MakeCacheConfigKey(with_macro), base_key);

  AnalysisOptions with_checkers = base;
  with_checkers.checkers = {"unused-def"};
  // The key folds the RESOLVED list, so explicitly naming the full default
  // set may match; naming a strict subset must not.
  if (MakeCacheConfigKey(with_checkers) == base_key) {
    ADD_FAILURE() << "subset checker list produced the default cache key";
  }

  AnalysisOptions with_budget = base;
  with_budget.budget.detect_step_limit = 12345;
  EXPECT_NE(MakeCacheConfigKey(with_budget), base_key);

  AnalysisOptions with_fault = base;
  with_fault.fault = *FaultInjector::Parse("42:0.25", nullptr);
  EXPECT_NE(MakeCacheConfigKey(with_fault), base_key);
}

TEST_F(IncrementalCacheTest, ConfigChangeMakesDiskEntriesStale) {
  std::string v1 =
      "int f(int x) {\n"
      "  int a = x + 1;\n"
      "  a = x + 5;\n"
      "  return a;\n"
      "}\n";
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  repo.AddCommit(alice, 100, "create", {{"a.c", v1}});

  {
    IncrementalOptions inc;
    inc.cache_dir = dir_.string();
    IncrementalEngine writer{AnalysisOptions{}, inc};
    IncrementalResult result = writer.AnalyzeCommit(repo, 0);
    EXPECT_GT(result.cache.disk_stores, 0u);
  }

  // Fresh engine, same dir, same options: restores from disk.
  {
    IncrementalOptions inc;
    inc.cache_dir = dir_.string();
    IncrementalEngine reader{AnalysisOptions{}, inc};
    EXPECT_GT(reader.AnalyzeCommit(repo, 0).cache.disk_loads, 0u);
  }

  // Fresh engine with a different preprocessor configuration: the stored
  // entries are stale (config key mismatch) — a silent miss, not corruption.
  {
    AnalysisOptions other;
    other.config.Define("DEBUG", 1);
    IncrementalOptions inc;
    inc.cache_dir = dir_.string();
    IncrementalEngine reader{other, inc};
    IncrementalResult result = reader.AnalyzeCommit(repo, 0);
    EXPECT_EQ(result.cache.disk_loads, 0u);
    EXPECT_EQ(result.cache.disk_corrupt, 0u);
    Analysis full(other);
    EXPECT_EQ(result.report.ToCsv(), full.RunOnRepository(repo.PrefixCopy(0)).ToCsv());
  }
}

TEST_F(IncrementalCacheTest, CorruptEntryQuarantinesAndDegradesToReparse) {
  std::string v1 =
      "int f(int x) {\n"
      "  int a = x + 1;\n"
      "  a = x + 5;\n"
      "  return a;\n"
      "}\n";
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  repo.AddCommit(alice, 100, "create", {{"a.c", v1}});

  AnalysisOptions options;
  options.cross_scope_only = false;  // single-author history
  {
    IncrementalOptions inc;
    inc.cache_dir = dir_.string();
    IncrementalEngine writer{options, inc};
    writer.AnalyzeCommit(repo, 0);
  }

  // Truncate every stored entry mid-JSON.
  int damaged = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::ofstream out(entry.path(), std::ios::trunc | std::ios::binary);
    out << "{\"cache_schema\":1,\"functions\":[{\"name\"";
    ++damaged;
  }
  ASSERT_GT(damaged, 0);

  IncrementalOptions inc;
  inc.cache_dir = dir_.string();
  IncrementalEngine reader{options, inc};
  IncrementalResult result = reader.AnalyzeCommit(repo, 0);

  // Degraded, not dead: the corrupt entry surfaces as a "cache"-stage
  // quarantine record and the file re-analyzes from source.
  EXPECT_GT(result.cache.disk_corrupt, 0u);
  bool cache_quarantine = false;
  for (const QuarantinedUnit& unit : result.report.quarantined) {
    if (unit.stage == "cache" && unit.path == "a.c") {
      cache_quarantine = true;
    }
  }
  EXPECT_TRUE(cache_quarantine) << "corrupt entry did not reach the quarantine channel";
  ASSERT_EQ(result.findings().size(), 1u);
  EXPECT_EQ(result.findings()[0].slot_name, "a");
}

// The one entry file in `dir`, or an empty path when there is not exactly one.
std::filesystem::path OnlyEntry(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    entries.push_back(entry.path());
  }
  return entries.size() == 1 ? entries.front() : std::filesystem::path();
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

int CacheRecords(const AnalysisReport& report) {
  int records = 0;
  for (const QuarantinedUnit& unit : report.quarantined) {
    records += unit.stage == "cache" ? 1 : 0;
  }
  return records;
}

TEST_F(IncrementalCacheTest, ParentFormatEntryIsAStaleMiss) {
  // Schema 1 keyed functions by "ordinal:name" and carried points-to sizes.
  // Such an entry, even under its own schema's config key, reads as stale:
  // no load, no corruption record, and the file re-detects.
  const std::string v1 =
      "int f(int x) {\n"
      "  int a = x + 1;\n"
      "  a = x + 5;\n"
      "  return a;\n"
      "}\n";
  Repository repo;
  repo.AddCommit(repo.AddAuthor("alice"), 100, "create", {{"a.c", v1}});
  AnalysisOptions options;
  options.cross_scope_only = false;  // single-author history
  IncrementalOptions inc;
  inc.cache_dir = dir_.string();
  IncrementalEngine{options, inc}.AnalyzeCommit(repo, 0);
  const std::filesystem::path entry = OnlyEntry(dir_);
  ASSERT_FALSE(entry.empty());

  std::string key = MakeCacheConfigKey(options);
  key.replace(0, key.find(';'), "schema=1");
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(HashContent(v1)));
  {
    std::ofstream out(entry, std::ios::trunc | std::ios::binary);
    out << "{\"schema_version\":1,\"config_key\":\"" << key
        << "\",\"path\":\"a.c\",\"content_hash\":\"" << hash
        << "\",\"functions\":[{\"name\":\"0:f\",\"points_to_bytes\":0,"
           "\"points_to_entries\":0,\"candidates\":[],\"quarantined\":[]}]}";
  }

  IncrementalResult result = IncrementalEngine{options, inc}.AnalyzeCommit(repo, 0);
  EXPECT_EQ(result.cache.disk_loads, 0u);
  EXPECT_EQ(result.cache.disk_corrupt, 0u);
  EXPECT_EQ(CacheRecords(result.report), 0);
  EXPECT_EQ(result.functions_dirty, 1);
  AnalysisReport full = Analysis(options).RunOnRepository(repo.PrefixCopy(0));
  ASSERT_EQ(full.findings.size(), 1u);
  EXPECT_EQ(result.report.ToCsv(), full.ToCsv());
}

TEST_F(IncrementalCacheTest, FunctionListMismatchIsCorrupt) {
  // Right schema, key and content hash, but one record names a function the
  // compiled file does not have at that position: the entry is outside input
  // that no longer describes the file.
  const std::string v1 =
      "int f(int x) {\n"
      "  int a = x + 1;\n"
      "  a = x + 5;\n"
      "  return a;\n"
      "}\n"
      "int g(int y) {\n"
      "  int b = y;\n"
      "  b = y * 3;\n"
      "  return b;\n"
      "}\n";
  Repository repo;
  repo.AddCommit(repo.AddAuthor("alice"), 100, "create", {{"a.c", v1}});
  AnalysisOptions options;
  options.cross_scope_only = false;  // single-author history
  IncrementalOptions inc;
  inc.cache_dir = dir_.string();
  IncrementalEngine{options, inc}.AnalyzeCommit(repo, 0);
  const std::filesystem::path entry = OnlyEntry(dir_);
  ASSERT_FALSE(entry.empty());
  std::string stored = ReadFile(entry);
  const size_t name = stored.find("\"name\":\"g\"");
  ASSERT_NE(name, std::string::npos);
  stored.replace(name, 10, "\"name\":\"h\"");
  std::ofstream(entry, std::ios::trunc | std::ios::binary) << stored;

  IncrementalResult result = IncrementalEngine{options, inc}.AnalyzeCommit(repo, 0);
  EXPECT_EQ(result.cache.disk_loads, 0u);
  EXPECT_EQ(result.cache.disk_corrupt, 1u);
  EXPECT_EQ(CacheRecords(result.report), 1);
  EXPECT_EQ(result.functions_dirty, 2);  // the file re-detects
  AnalysisReport full = Analysis(options).RunOnRepository(repo.PrefixCopy(0));
  ASSERT_EQ(full.findings.size(), 2u);
  EXPECT_EQ(result.report.ToCsv(), full.ToCsv());
}

TEST(IncrementalFault, InjectionMatchesFullRunAndThreadsQuarantine) {
  // Under deterministic fault injection, the incremental replay must still
  // match a full run exactly — surviving findings AND quarantine records.
  AnalysisOptions options;
  options.fault = *FaultInjector::Parse("7:0.5", nullptr);

  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  std::map<std::string, std::string> files;
  for (int i = 0; i < 6; ++i) {
    std::string t = std::to_string(i);
    files["f" + t + ".c"] = "int fn_" + t + "(int x) {\n  int a_" + t +
                            " = x + 1;\n  a_" + t + " = x + 2;\n  return a_" + t + ";\n}\n";
  }
  repo.AddCommit(alice, 100, "create", files);
  repo.AddCommit(alice, 200, "edit",
                 {{"f0.c", "int fn_0(int x) {\n  int a_0 = x + 9;\n  a_0 = x + 2;\n"
                           "  return a_0;\n}\n"}});

  IncrementalEngine engine(options);
  Analysis full(options);
  for (CommitId commit = 0; commit < repo.NumCommits(); ++commit) {
    IncrementalResult result = engine.AnalyzeCommit(repo, commit);
    AnalysisReport fresh = full.RunOnRepository(repo.PrefixCopy(commit));
    ASSERT_EQ(result.report.ToCsv(), fresh.ToCsv()) << "fault divergence at commit " << commit;
    ASSERT_EQ(result.report.quarantined.size(), fresh.quarantined.size())
        << "quarantine divergence at commit " << commit;
    for (size_t i = 0; i < fresh.quarantined.size(); ++i) {
      EXPECT_EQ(result.report.quarantined[i].path, fresh.quarantined[i].path);
      EXPECT_EQ(result.report.quarantined[i].function, fresh.quarantined[i].function);
      EXPECT_EQ(result.report.quarantined[i].stage, fresh.quarantined[i].stage);
      EXPECT_EQ(result.report.quarantined[i].reason, fresh.quarantined[i].reason);
    }
    EXPECT_EQ(result.report.degraded, fresh.degraded);
  }
}

}  // namespace
}  // namespace vc
