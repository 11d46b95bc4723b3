// Incremental engine benchmark: replays a synthesized commit history (the
// same generator tools/check.sh's incremental smoke and the equivalence
// battery use) through one warm vc::IncrementalEngine and compares per-commit
// cost against full from-scratch runs at sampled commits. The claims under
// test are the paper's §8.6 shape on top of this repo's engine:
//
//   - the median incremental commit is an order of magnitude (>= 10x on a
//     paper-scale history) cheaper than the median full run,
//   - the detect cache serves the overwhelming majority of functions
//     (> 90% carry rate once the history is long enough to amortize the
//     cold start), and
//   - every sampled commit is byte-identical (CSV rendering) between the
//     incremental replay and a fresh full run — the bench refuses to report
//     a speedup it cannot prove equivalent.
//
// Emits result/BENCH_incremental.json (schema 2), a CSV twin of the sampled
// points, and one run-ledger record per sampled commit (metrics.incremental
// populated via FillIncrementalMetrics) so the HTML dashboard can chart
// full-vs-incremental trends bench-to-bench.
//
// VC_BENCH_INC_COMMITS overrides the history length (default 1000; CI-sized
// smokes can set 60), VC_BENCH_INC_STRIDE the full-run sampling stride
// (default commits/20).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/incremental.h"
#include "src/core/run_diff.h"
#include "src/support/json_writer.h"
#include "src/support/run_ledger.h"
#include "src/testing/history_gen.h"

namespace {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) {
    return values[mid];
  }
  return (values[mid - 1] + values[mid]) / 2.0;
}

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

}  // namespace

int main() {
  using namespace vc;

  const int commits = EnvInt("VC_BENCH_INC_COMMITS", 1000);
  const int stride = EnvInt("VC_BENCH_INC_STRIDE", std::max(1, commits / 20));

  testing::HistoryGenOptions gen;
  gen.seed = 1;
  gen.commits = commits;
  // Paper-scale shape: enough sizeable modules that a full run is dominated
  // by parse+detect over the whole tree while a typical commit touches one
  // module — the regime the >= 10x / > 90%-carry acceptance targets assume.
  gen.initial_modules = 36;
  gen.max_modules = 128;
  gen.per_module.max_functions_per_file = 10;
  gen.per_module.max_stmts_per_function = 16;
  std::printf("synthesizing %d-commit history (seed %llu)...\n", commits,
              static_cast<unsigned long long>(gen.seed));
  Repository repo = testing::GenerateHistory(gen);

  AnalysisOptions options;
  options.checkers = {"unused-def"};
  IncrementalEngine engine(options);
  Analysis full(options);

  struct SampledPoint {
    int commit = 0;
    double full_seconds = 0.0;
    double inc_seconds = 0.0;
    int files_reparsed = 0;
    int functions_dirty = 0;
    int functions_total = 0;
    size_t findings = 0;
  };
  std::vector<SampledPoint> samples;
  std::vector<double> inc_seconds_all;
  std::vector<double> dirty_fractions;
  int64_t files_reparsed_total = 0;
  int64_t files_changed_total = 0;
  bool equivalent = true;
  int first_divergence = -1;

  RunLedger ledger(ResultPath("ledger"));
  int64_t bench_start_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                               std::chrono::system_clock::now().time_since_epoch())
                               .count();

  for (CommitId commit = 0; commit < repo.NumCommits(); ++commit) {
    IncrementalResult result = engine.AnalyzeCommit(repo, commit);
    inc_seconds_all.push_back(result.seconds);
    files_reparsed_total += result.files_reparsed;
    files_changed_total += result.files_changed;
    if (result.functions_total > 0) {
      dirty_fractions.push_back(static_cast<double>(result.functions_dirty) /
                                static_cast<double>(result.functions_total));
    }

    // Full-run comparison + equivalence proof on the sampled commits (every
    // commit would turn the bench quadratic; the battery in tests/ already
    // proves per-commit equivalence exhaustively on smaller histories).
    const bool sampled = commit % stride == 0 || commit + 1 == repo.NumCommits();
    if (!sampled) {
      continue;
    }
    auto start = std::chrono::steady_clock::now();
    AnalysisReport fresh = full.RunOnRepository(repo.PrefixCopy(commit));
    double full_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (equivalent && result.report.ToCsv() != fresh.ToCsv()) {
      equivalent = false;
      first_divergence = commit;
    }

    SampledPoint point;
    point.commit = commit;
    point.full_seconds = full_seconds;
    point.inc_seconds = result.seconds;
    point.files_reparsed = result.files_reparsed;
    point.functions_dirty = result.functions_dirty;
    point.functions_total = result.functions_total;
    point.findings = result.findings().size();
    samples.push_back(point);

    RunRecord record;
    record.timestamp_ms = bench_start_ms;
    record.label = "bench:incremental c" + std::to_string(commit);
    record.options_summary = "bench commits=" + std::to_string(commits);
    record.jobs = options.jobs;
    record.metrics.collected = true;
    record.metrics.analysis_seconds = full_seconds;
    FillIncrementalMetrics(result, record.metrics);
    std::string ledger_error;
    if (ledger.Append(std::move(record), &ledger_error).empty()) {
      std::printf("(ledger append failed: %s)\n", ledger_error.c_str());
    }
  }

  const CacheStats cache = engine.cache_stats();
  const double median_inc = Median(inc_seconds_all);
  std::vector<double> full_seconds_sampled;
  for (const SampledPoint& point : samples) {
    full_seconds_sampled.push_back(point.full_seconds);
  }
  const double median_full = Median(full_seconds_sampled);
  const double speedup = median_inc > 0.0 ? median_full / median_inc : 0.0;
  const double detect_hit_rate = cache.DetectHitRate();
  const double mean_dirty_fraction =
      dirty_fractions.empty()
          ? 0.0
          : std::accumulate(dirty_fractions.begin(), dirty_fractions.end(), 0.0) /
                static_cast<double>(dirty_fractions.size());

  TableWriter table({"Commit", "Full Time", "Incremental", "Reparsed", "Dirty Fns",
                     "Total Fns", "Findings"});
  for (const SampledPoint& point : samples) {
    table.AddRow({std::to_string(point.commit), FormatDouble(point.full_seconds * 1000, 2) + "ms",
                  FormatDouble(point.inc_seconds * 1000, 2) + "ms",
                  std::to_string(point.files_reparsed), std::to_string(point.functions_dirty),
                  std::to_string(point.functions_total), std::to_string(point.findings)});
  }
  EmitTable("=== Incremental engine: full vs per-commit replay (sampled) ===", table,
            "BENCH_incremental_sweep.csv");

  std::printf("replayed %d commit(s): median incremental %.2fms vs median full %.2fms "
              "(%.1fx), detect cache %.1f%% carried, mean dirty slice %.1f%%\n",
              repo.NumCommits(), median_inc * 1000, median_full * 1000, speedup,
              detect_hit_rate * 100, mean_dirty_fraction * 100);
  if (!equivalent) {
    std::printf("EQUIVALENCE FAILURE at commit %d — the speedup above is void.\n",
                first_divergence);
  }

  JsonWriter json;
  json.BeginObject();
  json.String("bench", "incremental");
  // v1: whole-history replay with sampled full-run comparison; per-point
  // full/incremental seconds, dirty-slice sizes, cumulative cache stats,
  // and the equivalence verdict the speedup is conditional on. v2 drops the
  // three disk-tier cache counters with the tier itself.
  json.Int("schema_version", 2);
  json.Int("commits", repo.NumCommits());
  json.Int("sample_stride", stride);
  json.Bool("equivalent", equivalent);
  json.Int("first_divergence", first_divergence);
  json.Double("median_full_seconds", median_full);
  json.Double("median_incremental_seconds", median_inc);
  json.Double("median_speedup", speedup);
  json.Double("mean_dirty_fraction", mean_dirty_fraction);
  json.Int("files_changed_total", files_changed_total);
  json.Int("files_reparsed_total", files_reparsed_total);
  json.Key("cache").BeginObject();
  json.Int("parse_hits", static_cast<int64_t>(cache.parse_hits));
  json.Int("parse_misses", static_cast<int64_t>(cache.parse_misses));
  json.Int("detect_carried", static_cast<int64_t>(cache.detect_carried));
  json.Int("detect_recomputed", static_cast<int64_t>(cache.detect_recomputed));
  json.Double("detect_hit_rate", detect_hit_rate);
  json.EndObject();
  json.Key("samples").BeginArray();
  for (const SampledPoint& point : samples) {
    json.BeginObject();
    json.Int("commit", point.commit);
    json.Double("full_seconds", point.full_seconds);
    json.Double("incremental_seconds", point.inc_seconds);
    json.Int("files_reparsed", point.files_reparsed);
    json.Int("functions_dirty", point.functions_dirty);
    json.Int("functions_total", point.functions_total);
    json.Int("findings", static_cast<int64_t>(point.findings));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  std::string json_path = ResultPath("BENCH_incremental.json");
  if (FILE* out = std::fopen(json_path.c_str(), "w")) {
    std::fputs(json.str().c_str(), out);
    std::fclose(out);
    std::printf("(json: %s)\n", json_path.c_str());
  }
  return equivalent ? 0 : 1;
}
