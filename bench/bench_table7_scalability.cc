// Reproduces Table 7: whole-codebase analysis time per application plus the
// average per-commit incremental time (§8.6). Absolute numbers are machine-
// and substrate-dependent (the paper's own artifact says as much); the shape
// to check is (a) full analysis scales with code size, Linux largest, and
// (b) incremental analysis is orders of magnitude cheaper per commit.
//
// On top of the paper table, this bench sweeps the parallel engine's --jobs
// degree over paper-shaped synthesized corpora (corpusgen's many-small-files
// "linux-like" and fewer-huge-files "mysql-like" profiles) with best-of-N
// timing, and emits speedup + utilization + imbalance per sweep point into
// result/BENCH_scalability.json (schema 4) and the run ledger. Speedup is
// bounded by the hardware: on a machine with fewer than 2 cores every point
// is recorded with "underprovisioned": true instead of pretending the flat
// curve means anything. Scale defaults to "small"; set VC_BENCH_SCALE to
// medium (>100k LOC) or large (>1M LOC) for real sweeps.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/incremental.h"
#include "src/support/json_writer.h"
#include "src/support/run_ledger.h"
#include "src/support/span_analysis.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"
#include "src/testing/corpusgen.h"

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::string FormatSeconds(double seconds) {
  if (seconds >= 60.0) {
    int minutes = static_cast<int>(seconds / 60.0);
    return std::to_string(minutes) + "m" + vc::FormatDouble(seconds - minutes * 60, 1) + "s";
  }
  if (seconds >= 1.0) {
    return vc::FormatDouble(seconds, 2) + "s";
  }
  return vc::FormatDouble(seconds * 1000.0, 2) + "ms";
}

// One sweep point: best-of-N wall time over a corpusgen profile at one jobs
// degree, plus span analytics (utilization, imbalance, serial fraction) from
// one additional traced rep — the traced rep is excluded from the timing so
// instrumentation overhead never shows up in the speedup curve.
struct SweepPoint {
  int jobs = 1;
  int repeats = 0;
  double best_seconds = 0.0;
  double mean_seconds = 0.0;
  size_t findings = 0;
  double parse_seconds = 0.0;   // of the best-effort final traced rep
  double detect_seconds = 0.0;
  vc::ThreadPoolStats pool;     // per-run delta of the traced rep
  vc::PerfReport perf;
};

SweepPoint MeasurePoint(
    const std::vector<std::pair<std::string, std::string>>& sources, int jobs,
    int repeats, int hardware) {
  vc::AnalysisOptions options;
  options.jobs = jobs;
  options.collect_metrics = true;
  options.checkers = {"unused-def"};
  vc::Analysis analysis(options);

  SweepPoint point;
  point.jobs = jobs;
  point.repeats = repeats;
  auto timing = vc::BestOfN(repeats, [&] {
    vc::AnalysisReport report = analysis.RunOnSources(sources);
    point.findings = report.findings.size();
  });
  point.best_seconds = timing.first;
  point.mean_seconds = timing.second;

  // Traced rep for the span analytics.
  vc::TraceCollector& collector = vc::TraceCollector::Global();
  collector.Enable();
  vc::AnalysisReport traced = analysis.RunOnSources(sources);
  collector.Disable();
  point.parse_seconds = traced.stages[vc::Stage::kParse].seconds;
  point.detect_seconds = traced.stages[vc::Stage::kDetect].seconds;
  point.pool = traced.stage.pool;
  vc::PerfInputs inputs;
  inputs.wall_seconds = traced.analysis_seconds;
  inputs.jobs = jobs;
  inputs.hardware_threads = hardware;
  inputs.dropped_spans = collector.dropped_count();
  inputs.pool = &point.pool;
  point.perf = vc::AnalyzeSpans(collector.SnapshotEvents(), inputs);
  collector.Clear();
  return point;
}

}  // namespace

int main() {
  using namespace vc;

  TableWriter table({"Application", "#LOC", "#Commits", "Full Time", "Incremental Time"});
  double total_full = 0.0;
  double total_inc = 0.0;
  int total_loc = 0;

  std::vector<GeneratedApp> apps;
  for (const ProjectProfile& profile : AllProfiles()) {
    apps.push_back(GenerateApp(profile));
  }

  Analysis analysis;  // serial baseline, default options
  for (GeneratedApp& app : apps) {
    // Full analysis: best of 3 (parse + lower + detect + authorship + prune
    // + rank, from the repository head).
    double best = 1e9;
    int loc = 0;
    for (int rep = 0; rep < 3; ++rep) {
      auto start = std::chrono::steady_clock::now();
      AnalysisReport report = analysis.RunOnRepository(app.repo);
      best = std::min(best, Seconds(start));
      loc = report.owned_project->TotalLines();
    }

    // Incremental: average over the last 20 commits (the paper uses the
    // first 20 commits of 2022 on each application).
    int commits = app.repo.NumCommits();
    int first = std::max(0, commits - 20);
    double inc_total = 0.0;
    int inc_count = 0;
    IncrementalEngine engine(analysis.options());
    for (CommitId commit = first; commit < commits; ++commit) {
      IncrementalResult result = engine.AnalyzeCommit(app.repo, commit);
      inc_total += result.seconds;
      ++inc_count;
    }
    double inc_avg = inc_count > 0 ? inc_total / inc_count : 0.0;

    table.AddRow({app.name, std::to_string(loc), std::to_string(commits),
                  FormatSeconds(best), FormatSeconds(inc_avg)});
    total_full += best;
    total_inc += inc_avg;
    total_loc += loc;
  }
  table.AddRow({"Total", std::to_string(total_loc), "", FormatSeconds(total_full),
                FormatSeconds(total_inc)});

  EmitTable("=== Table 7: scalability (full vs per-commit incremental analysis) ===", table,
            "table_7_time_analysis.csv");
  std::printf("paper (on 31.3M LOC of real code with LLVM+SVF): 50m51s full, <5s per "
              "commit incremental.\n");
  std::printf("The synthesized corpora are ~%dK lines, so absolute times differ; the "
              "full/incremental\nratio and size ordering are the reproduced shape.\n\n",
              total_loc / 1000);

  // --- Parallel engine sweep over paper-shaped corpora -----------------------
  // HardwareThreads() is std::thread::hardware_concurrency() with the
  // documented unknown->1 fallback; a <2-core machine cannot show speedup,
  // so every point carries an explicit underprovisioned flag instead of a
  // silently flat curve.
  int hardware = HardwareThreads();
  bool underprovisioned = hardware < 2;
  const char* scale_env = std::getenv("VC_BENCH_SCALE");
  std::string scale = scale_env != nullptr ? scale_env : "small";
  const int kRepeats = 3;

  if (underprovisioned) {
    std::printf("WARNING: only %d hardware thread(s) — sweep points are recorded as "
                "underprovisioned; speedups are not meaningful on this machine.\n\n",
                hardware);
  }

  TableWriter sweep_table(
      {"Profile", "#LOC", "jobs", "Best Time", "Speedup", "Util", "Imbalance", "steals"});
  JsonWriter json;
  json.BeginObject();
  json.String("bench", "scalability");
  // v1 carried only jobs/seconds/speedup per sweep point; v2 added per-stage
  // seconds and thread-pool activity; v3 sweeps corpusgen profiles with
  // best-of-N timing and adds real hardware_threads, the underprovisioned
  // flag, and span-analytics (utilization/imbalance/critical-path) per point;
  // v4 drops critical_path_seconds, which was the summed duration of the root
  // spans by construction.
  json.Int("schema_version", 4);
  json.Int("hardware_threads", hardware);
  json.Bool("underprovisioned", underprovisioned);
  json.String("scale", scale);
  json.Int("repeats", kRepeats);
  json.Int("paper_table_loc", total_loc);
  json.Key("profiles").BeginArray();

  // Each sweep point also lands in the run ledger under result/, so
  // `valuecheck history --ledger result/ledger` and `report --html` can chart
  // bench-to-bench perf trends the same way they chart analysis reruns.
  RunLedger ledger(ResultPath("ledger"));
  int64_t bench_start_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                               std::chrono::system_clock::now().time_since_epoch())
                               .count();

  for (const std::string& profile_name : testing::CorpusProfileNames()) {
    testing::CorpusProfile profile;
    if (!testing::MakeCorpusProfile(profile_name, scale, 1, &profile)) {
      std::printf("(unknown scale '%s', falling back to small)\n", scale.c_str());
      testing::MakeCorpusProfile(profile_name, "small", 1, &profile);
    }
    auto sources = testing::GenerateCorpusSources(profile);
    int64_t loc = 0;
    for (const auto& [path, content] : sources) {
      loc += static_cast<int64_t>(std::count(content.begin(), content.end(), '\n'));
    }
    std::printf("profile %s/%s: %d files, %lld lines\n", profile.name.c_str(),
                profile.scale.c_str(), profile.files, static_cast<long long>(loc));

    json.BeginObject();
    json.String("profile", profile.name);
    json.Int("files", profile.files);
    json.Int("loc", loc);
    json.Key("sweep").BeginArray();

    double serial_best = 0.0;
    size_t serial_findings = 0;
    for (int jobs : {1, 2, 4, 8}) {
      SweepPoint point = MeasurePoint(sources, jobs, kRepeats, hardware);
      if (jobs == 1) {
        serial_best = point.best_seconds;
        serial_findings = point.findings;
      } else if (point.findings != serial_findings) {
        std::printf("(WARNING: findings differ across jobs: %zu at jobs=1, %zu at "
                    "jobs=%d — determinism regression)\n",
                    serial_findings, point.findings, jobs);
      }
      double speedup =
          point.best_seconds > 0.0 ? serial_best / point.best_seconds : 0.0;

      sweep_table.AddRow(
          {profile.name, std::to_string(loc), std::to_string(jobs),
           FormatSeconds(point.best_seconds), FormatDouble(speedup, 2) + "x",
           FormatDouble(point.perf.mean_utilization, 2),
           FormatDouble(point.perf.imbalance_ratio, 2), std::to_string(point.pool.steals)});

      json.BeginObject();
      json.Int("jobs", jobs);
      json.Double("seconds", point.best_seconds);
      json.Double("mean_seconds", point.mean_seconds);
      json.Int("repeats", point.repeats);
      json.Double("speedup", speedup);
      json.Bool("underprovisioned", underprovisioned);
      json.Double("utilization", point.perf.mean_utilization);
      json.Double("imbalance_ratio", point.perf.imbalance_ratio);
      json.Double("serial_fraction", point.perf.serial_fraction);
      json.Int("findings", static_cast<int64_t>(point.findings));
      json.Key("stages").BeginObject();
      json.Double("parse_seconds", point.parse_seconds);
      json.Double("detect_seconds", point.detect_seconds);
      json.EndObject();
      json.Key("thread_pool").BeginObject();
      json.Int("workers", point.pool.workers);
      json.Int("parallel_fors", static_cast<int64_t>(point.pool.parallel_fors));
      json.Int("chunks_executed", static_cast<int64_t>(point.pool.chunks_executed));
      json.Int("steals", static_cast<int64_t>(point.pool.steals));
      json.Double("worker_idle_seconds", point.pool.worker_idle_seconds);
      json.EndObject();
      json.EndObject();

      RunRecord record;
      record.timestamp_ms = bench_start_ms;
      record.label = "bench:scalability " + profile.name + "/" + profile.scale +
                     " jobs=" + std::to_string(jobs);
      record.options_summary = underprovisioned ? "bench underprovisioned" : "bench";
      record.jobs = jobs;
      record.metrics.collected = true;
      record.metrics.analysis_seconds = point.best_seconds;
      record.metrics.parse_seconds = point.parse_seconds;
      record.metrics.detect_seconds = point.detect_seconds;
      record.metrics.pool_workers = point.pool.workers;
      record.metrics.pool_tasks = static_cast<int64_t>(point.pool.tasks_executed);
      record.metrics.pool_steals = static_cast<int64_t>(point.pool.steals);
      record.metrics.pool_idle_seconds = point.pool.worker_idle_seconds;
      record.metrics.perf_collected = true;
      record.metrics.perf_wall_seconds = point.perf.wall_seconds;
      record.metrics.perf_serial_fraction = point.perf.serial_fraction;
      record.metrics.perf_utilization = point.perf.mean_utilization;
      record.metrics.perf_max_busy_seconds = point.perf.max_busy_seconds;
      record.metrics.perf_mean_busy_seconds = point.perf.mean_busy_seconds;
      record.metrics.perf_imbalance_ratio = point.perf.imbalance_ratio;
      std::string ledger_error;
      if (ledger.Append(std::move(record), &ledger_error).empty()) {
        std::printf("(ledger append failed: %s)\n", ledger_error.c_str());
      }
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  EmitTable("=== Parallel engine: corpus-profile analysis time vs --jobs ===", sweep_table,
            "BENCH_scalability_sweep.csv");
  std::string json_path = ResultPath("BENCH_scalability.json");
  if (FILE* out = std::fopen(json_path.c_str(), "w")) {
    std::fputs(json.str().c_str(), out);
    std::fclose(out);
    std::printf("(json: %s)\n", json_path.c_str());
  }
  std::printf("hardware threads available: %d — speedup saturates at min(jobs, threads).\n",
              hardware);
  return 0;
}
