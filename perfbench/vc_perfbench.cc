// Benchmark harness for the ValueCheck analyzer. perfbench/run.py drives it;
// every timed configuration runs in a fresh process of this binary, so the
// heap, the thread pool and Repository::Blame's per-path memo start cold.
//
//   vc_perfbench gen WORKLOAD --seed N [--scale large|small] --out DIR
//       Writes the workload's inputs: a source tree (linux-large) or .vchist
//       histories plus ground-truth ledgers (paper-apps, mysql-commits).
//   vc_perfbench batch WORKLOAD --in DIR --jobs J --csv FILE
//                [--trace FILE] [--drop-finding]
//       Loads the inputs (set-up), then analyzes them as `valuecheck analyze`
//       does: build, detect, authorship, filter, prune, rank, fingerprint,
//       render CSV, tear down (the timed part).
//   vc_perfbench replay --in DIR --jobs J --window N --csv FILE
//                [--trace FILE] [--drop-finding]
//       Loads the history and warms an IncrementalEngine up to the replay
//       window (set-up), then times AnalyzeCommit on each of the last N
//       commits.
//
// --trace FILE switches to the traced run: each layer's public entry points
// are called one by one under spans (trace_log.h) and the spans are written
// to FILE. --drop-finding plants a wrong answer (the first CSV row is
// dropped) so tests can prove the correctness checks fire.
//
// Every command prints one JSON object as its last stdout line. Times are
// integer nanoseconds and memory integer bytes, so no digit is lost. The
// timed part is reported per item (`wall_items_ns`: one per app, commit or
// tree) and so is the set-up (`setup_items_ns`), so run.py can take each
// item's fastest time over the processes of a run.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/trace_log.h"
#include "src/checkers/checker.h"
#include "src/checkers/checker_context.h"
#include "src/checkers/driver.h"
#include "src/checkers/registry.h"
#include "src/core/analysis.h"
#include "src/core/authorship.h"
#include "src/core/dep_graph.h"
#include "src/core/fingerprint.h"
#include "src/core/incremental.h"
#include "src/core/pruning.h"
#include "src/core/ranking.h"
#include "src/corpus/eval.h"
#include "src/corpus/generator.h"
#include "src/corpus/profile.h"
#include "src/familiarity/dok_model.h"
#include "src/ir/ir_builder.h"
#include "src/lexer/lexer.h"
#include "src/lexer/preprocessor.h"
#include "src/parser/parser.h"
#include "src/pointer/andersen.h"
#include "src/pointer/value_flow.h"
#include "src/support/json_writer.h"
#include "src/support/memstats.h"
#include "src/support/metrics.h"
#include "src/support/thread_pool.h"
#include "src/testing/corpusgen.h"
#include "src/vcs/history_io.h"

namespace {

namespace fs = std::filesystem;
using perfbench::NowNanos;
using perfbench::TraceLog;
using Sources = std::vector<std::pair<std::string, std::string>>;

// linux-large cycles through this many corpus seeds, each with a recorded
// finding count and digest (perfbench/expected.json).
constexpr uint64_t kLinuxVariants = 8;
// Spreads the benchmark seed over the 64-bit profile seeds of the apps.
constexpr uint64_t kSeedMix = 0x9E3779B97F4A7C15ULL;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "vc_perfbench: %s\n", message.c_str());
  std::exit(2);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    Die("cannot read " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !(out << content) || !out.flush()) {
    Die("cannot write " + path);
  }
}

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      std::string value = "1";
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      flags_[arg.substr(2)] = value;
    }
  }
  std::string Positional(size_t index) const {
    return index < positional_.size() ? positional_[index] : "";
  }
  bool Has(const std::string& name) const { return flags_.count(name) > 0; }
  std::string Get(const std::string& name, const std::string& fallback = "") const {
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
  }
  std::string Need(const std::string& name) const {
    if (!Has(name)) {
      Die("missing --" + name);
    }
    return Get(name);
  }
  int64_t Int(const std::string& name, int64_t fallback) const {
    return Has(name) ? std::stoll(Get(name)) : fallback;
  }
  // Worker lanes, pinned: 0 ("all hardware threads") would make the
  // configuration depend on the machine.
  int Jobs() const {
    int jobs = static_cast<int>(std::stoll(Need("jobs")));
    if (jobs < 1) {
      Die("--jobs must be a fixed count >= 1");
    }
    return jobs;
  }

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
};

int64_t MedianNanos(std::vector<int64_t> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

// Drops the first data row of a CSV rendering (the planted wrong answer).
std::string DropFirstRow(const std::string& csv) {
  size_t header_end = csv.find('\n');
  if (header_end == std::string::npos) {
    return csv;
  }
  size_t row_end = csv.find('\n', header_end + 1);
  if (row_end == std::string::npos) {
    return csv;
  }
  return csv.substr(0, header_end + 1) + csv.substr(row_end + 1);
}

// --- Inputs -----------------------------------------------------------------

// One generated application: its history and its ground-truth ledger.
struct AppFiles {
  std::string name;
  std::string history;
  std::string truth;
};

std::string Slug(const std::string& name) {
  std::string slug;
  for (char c : name) {
    slug += std::isalnum(static_cast<unsigned char>(c)) ? static_cast<char>(std::tolower(c)) : '-';
  }
  return slug;
}

// Apps of an input directory, in generation order ("<index>-<slug>.vchist").
std::vector<AppFiles> ListApps(const std::string& dir) {
  std::vector<AppFiles> apps;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".vchist") {
      std::string stem = entry.path().stem().string();
      std::string base = (fs::path(dir) / stem).string();
      apps.push_back({stem, base + ".vchist", base + ".truth.tsv"});
    }
  }
  std::sort(apps.begin(), apps.end(),
            [](const AppFiles& a, const AppFiles& b) { return a.name < b.name; });
  if (apps.empty()) {
    Die("no .vchist inputs in " + dir);
  }
  return apps;
}

// The ledger as TSV: category, file, line, alt_line, is_real_bug,
// expect_cross_scope, expect_pruned.
std::string TruthTsv(const vc::GroundTruth& truth) {
  std::string out;
  for (const vc::GtSite& site : truth.sites()) {
    out += std::to_string(static_cast<int>(site.category)) + "\t" + site.file + "\t" +
           std::to_string(site.line) + "\t" + std::to_string(site.alt_line) + "\t" +
           (site.is_real_bug ? "1" : "0") + "\t" + (site.expect_cross_scope ? "1" : "0") + "\t" +
           (site.expect_pruned ? "1" : "0") + "\n";
  }
  return out;
}

vc::GroundTruth LoadTruth(const std::string& path) {
  vc::GroundTruth truth;
  std::istringstream lines(ReadFile(path));
  std::string line;
  while (std::getline(lines, line)) {
    std::vector<std::string> cols;
    std::istringstream fields(line);
    std::string field;
    while (std::getline(fields, field, '\t')) {
      cols.push_back(field);
    }
    if (cols.size() != 7) {
      Die("malformed ledger line in " + path);
    }
    vc::GtSite site;
    site.category = static_cast<vc::SiteCategory>(std::stoi(cols[0]));
    site.file = cols[1];
    site.line = std::stoi(cols[2]);
    site.alt_line = std::stoi(cols[3]);
    site.is_real_bug = cols[4] == "1";
    site.expect_cross_scope = cols[5] == "1";
    site.expect_pruned = cols[6] == "1";
    truth.Add(std::move(site));
  }
  return truth;
}

// The source tree as `valuecheck analyze DIR` reads it: every .c file, in
// sorted order. Paths are kept relative to DIR so reports do not depend on
// where the checkout lives.
Sources ReadTree(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".c") {
      names.push_back(fs::relative(entry.path(), dir).string());
    }
  }
  std::sort(names.begin(), names.end());
  Sources files;
  files.reserve(names.size());
  for (const std::string& name : names) {
    files.emplace_back(name, ReadFile((fs::path(dir) / name).string()));
  }
  return files;
}

vc::Repository LoadRepository(const std::string& text, const std::string& path) {
  std::string error;
  std::optional<vc::Repository> repo = vc::LoadHistory(text, &error);
  if (!repo) {
    Die(path + ": " + error);
  }
  return std::move(*repo);
}

int CmdGen(const Args& args) {
  const std::string workload = args.Positional(1);
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed", 1));
  const bool small = args.Get("scale", "large") == "small";
  const std::string out = args.Need("out");
  fs::create_directories(out);
  vc::JsonWriter json;
  json.BeginObject();
  if (workload == "linux-large") {
    vc::testing::CorpusProfile profile;
    const uint64_t variant = 1 + seed % kLinuxVariants;
    vc::testing::MakeCorpusProfile("linux-like", small ? "small" : "large", variant, &profile);
    vc::testing::CorpusStats stats;
    std::string error;
    if (!vc::testing::WriteCorpus(profile, out + "/src", &stats, &error)) {
      Die(error);
    }
    json.Int("variant", static_cast<int64_t>(variant));
    json.Int("files", stats.files);
    json.Int("lines", stats.lines);
  } else if (workload == "paper-apps" || workload == "mysql-commits") {
    const bool apps = workload == "paper-apps";
    const std::vector<vc::ProjectProfile> profiles =
        apps ? vc::AllProfiles() : std::vector<vc::ProjectProfile>{vc::MysqlProfile()};
    const double factor = apps ? (small ? 1.0 : 10.0) : (small ? 0.5 : 3.0);
    int64_t commits = 0;
    int64_t history_bytes = 0;
    for (size_t i = 0; i < profiles.size(); ++i) {
      vc::ProjectProfile profile = profiles[i].Scaled(factor);
      profile.seed ^= seed * kSeedMix;
      vc::GeneratedApp app = vc::GenerateApp(profile);
      std::string base = out + "/" + std::to_string(i) + "-" + Slug(app.name);
      std::string history = vc::SaveHistory(app.repo);
      WriteFile(base + ".vchist", history);
      WriteFile(base + ".truth.tsv", TruthTsv(app.truth));
      commits += app.repo.NumCommits();
      history_bytes += static_cast<int64_t>(history.size());
    }
    json.Int("commits", commits);
    json.Int("history_bytes", history_bytes);
  } else {
    Die("unknown workload '" + workload + "'");
  }
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

// --- Traced run ---------------------------------------------------------------

// What one traced analysis covers. Sources mode sets `sources`; history mode
// sets `repo`. The serial front-end and dataflow passes default to every
// file; the replay restricts them to the files its commits rewrote.
struct TraceScope {
  const Sources* sources = nullptr;
  const vc::Repository* repo = nullptr;
  const Sources* frontend_files = nullptr;
  const std::set<std::string>* detect_paths = nullptr;
  // Paths the last replayed commit touched: seeds the dirty closure.
  const std::set<std::string>* changed_paths = nullptr;
};

// Thread-pool activity (steals, idle seconds) accrued during one scope.
class PoolDelta {
 public:
  explicit PoolDelta(TraceLog& log) : log_(log), before_(vc::ThreadPool::Global().stats()) {}
  ~PoolDelta() {
    vc::ThreadPoolStats delta = vc::ThreadPool::Global().stats().Delta(before_);
    log_.Count("support.pool_steals", static_cast<double>(delta.steals));
    log_.Count("support.pool_idle_ns", delta.worker_idle_seconds * 1e9);
  }
  PoolDelta(const PoolDelta&) = delete;
  PoolDelta& operator=(const PoolDelta&) = delete;

 private:
  TraceLog& log_;
  vc::ThreadPoolStats before_;
};

// Preprocess, Lex, ParseFile and LowerUnit, file by file on this thread.
void TraceFrontEnd(TraceLog& log, const Sources& files, const vc::Config& config) {
  TraceLog::Span pass(log, "frontend.serial");
  TraceLog::Total& preprocess = log.TotalFor("lexer.preprocess");
  TraceLog::Total& lex = log.TotalFor("lexer.lex");
  TraceLog::Total& parse = log.TotalFor("parser.parse_file");
  TraceLog::Total& lower = log.TotalFor("ir.lower");
  for (const auto& [path, content] : files) {
    vc::SourceManager sm;
    vc::FileId file = sm.AddFile(path, content);
    vc::DiagnosticEngine diags;
    vc::PreprocessResult pp;
    {
      TraceLog::Timed timed(preprocess);
      pp = vc::Preprocess(sm.Content(file), config);
    }
    std::vector<vc::Token> tokens;
    {
      TraceLog::Timed timed(lex);
      tokens = vc::Lex(sm, file, pp, diags);
    }
    log.Count("lexer.tokens", static_cast<double>(tokens.size()));
    vc::TranslationUnit unit;
    {
      TraceLog::Timed timed(parse);
      unit = vc::ParseFile(sm, file, config, diags);
    }
    std::unique_ptr<vc::IrModule> module;
    {
      TraceLog::Timed timed(lower);
      module = vc::LowerUnit(unit);
    }
    log.Count("ir.functions", static_cast<double>(module->functions.size()));
    log.Count("ir.instructions", static_cast<double>(vc::ModuleFootprint(*module).instructions));
  }
}

// Liveness, define sets and each checker, function by function on this
// thread. Checkers run on the memoized context, so their times exclude the
// shared analyses.
void TraceDetect(TraceLog& log, const vc::Project& project,
                 const std::vector<const vc::Checker*>& checkers,
                 const std::set<std::string>* only_paths) {
  TraceLog::Span pass(log, "detect.serial");
  TraceLog::Total& liveness = log.TotalFor("dataflow.liveness");
  TraceLog::Total& defines = log.TotalFor("dataflow.define_sets");
  std::vector<TraceLog::Total*> per_checker;
  for (const vc::Checker* checker : checkers) {
    per_checker.push_back(&log.TotalFor("checkers." + checker->name()));
  }
  for (size_t m : project.unit_order()) {
    const vc::FileId file = static_cast<vc::FileId>(m);
    if (only_paths != nullptr && only_paths->count(project.sources().Path(file)) == 0) {
      continue;
    }
    for (const auto& func : project.modules()[m]->functions) {
      vc::CheckerContext ctx(project, file, *func);
      {
        TraceLog::Timed timed(liveness);
        ctx.liveness();
      }
      {
        TraceLog::Timed timed(defines);
        ctx.defines();
      }
      for (size_t c = 0; c < checkers.size(); ++c) {
        TraceLog::Timed timed(*per_checker[c]);
        checkers[c]->Check(ctx);
      }
    }
  }
}

struct TraceResult {
  std::string csv;
  bool degraded = false;
};

// One analysis split into its layers. The jobs=J path — project build,
// checker run, blame, Analysis::RunWithDetect, CSV, teardown — runs back to
// back; the serial passes and the one-by-one post-detect calls run beside it
// and are excluded from the path clock, whose uncovered rest is reported as
// core.unattributed_ns.
TraceResult TraceAnalysis(TraceLog& log, const vc::AnalysisOptions& options,
                          const TraceScope& scope) {
  vc::Analysis analysis(options);
  const std::vector<const vc::Checker*> checkers =
      vc::CheckerRegistry::Global().Resolve(options.checkers);
  const vc::Repository* repo = options.authorship ? scope.repo : nullptr;

  static constexpr const char* kPathSpans[] = {"core.project_build", "checkers.run",
                                               "vcs.blame",          "core.analysis_run",
                                               "core.render_csv",    "core.teardown"};
  auto path_span_nanos = [&log] {
    int64_t sum = 0;
    for (const char* name : kPathSpans) {
      sum += log.SpanNanos(name);
    }
    return sum;
  };
  const int64_t covered_before = path_span_nanos();

  vc::MemoryTracker::Global().Enable();  // Project::ParseMemoryTotal
  int64_t side_ns = 0;
  const int64_t path_start = NowNanos();
  std::unique_ptr<vc::Project> project;
  {
    PoolDelta pool(log);
    TraceLog::Span span(log, "core.project_build");
    project = std::make_unique<vc::Project>(scope.repo != nullptr
                                                ? analysis.BuildFromRepository(*scope.repo)
                                                : analysis.BuildFromSources(*scope.sources));
  }
  vc::CheckerRunResult detect;
  {
    PoolDelta pool(log);
    TraceLog::Span span(log, "checkers.run");
    detect = vc::RunCheckers(*project, checkers, options.traits, options.jobs, &options.budget,
                             &options.fault, /*isolate=*/true);
  }

  int64_t side_start = NowNanos();
  const vc::Project::FileMemory memory = project->ParseMemoryTotal();
  log.Count("core.project_ast_bytes", static_cast<double>(memory.ast.bytes));
  log.Count("core.project_ir_bytes", static_cast<double>(memory.ir.bytes));
  log.Count("checkers.candidates", static_cast<double>(detect.candidates.size()));
  int functions_total = 0;
  for (size_t m : project->unit_order()) {
    functions_total += static_cast<int>(project->modules()[m]->functions.size());
  }
  log.Count("incremental.functions_total", functions_total);
  // The serial passes run after the jobs=J build, not before it, so the
  // path's first touch of the heap costs what it costs untraced.
  {
    Sources head;
    const Sources* files = scope.frontend_files != nullptr ? scope.frontend_files : scope.sources;
    if (files == nullptr) {
      for (const std::string& path : scope.repo->ListFiles()) {
        head.emplace_back(path, *scope.repo->Head(path));
      }
      files = &head;
    }
    TraceFrontEnd(log, *files, options.config);
  }
  TraceDetect(log, *project, checkers, scope.detect_paths);
  side_ns += NowNanos() - side_start;

  {
    TraceLog::Span span(log, "vcs.blame");
    if (repo != nullptr) {
      for (size_t m : project->unit_order()) {
        repo->Blame(project->sources().Path(static_cast<vc::FileId>(m)));
      }
    }
  }

  side_start = NowNanos();
  {
    std::vector<vc::UnusedDefCandidate> candidates = detect.candidates;
    {
      TraceLog::Span span(log, "core.authorship");
      vc::AuthorshipAnalyzer(*project, repo).ClassifyAll(candidates);
    }
    std::vector<vc::UnusedDefCandidate> pool;
    for (const vc::UnusedDefCandidate& cand : candidates) {
      if (!options.cross_scope_only || cand.cross_scope) {
        pool.push_back(cand);
      }
    }
    log.Count("core.cross_scope_kept", static_cast<double>(pool.size()));
    vc::PruneStats prune;
    {
      TraceLog::Span span(log, "core.prune");
      prune = vc::RunPruning(*project, pool, options.prune, &candidates, repo);
    }
    log.Count("core.prune.config", prune.config_dependency);
    log.Count("core.prune.cursor", prune.cursor);
    log.Count("core.prune.hints", prune.unused_hints);
    log.Count("core.prune.peer", prune.peer_definition);

    // The functions whose points-to and value-flow graphs cursor pruning
    // builds: unused-def candidates it tested that have the increment shape.
    std::vector<const vc::IrFunction*> cursor_funcs;
    std::set<const vc::IrFunction*> seen;
    for (const vc::UnusedDefCandidate& cand : pool) {
      if (cand.checker == "unused-def" &&
          cand.pruned_by != vc::PruneReason::kConfigDependency && cand.is_increment &&
          cand.ir_func != nullptr && cand.slot != vc::kInvalidSlot &&
          seen.insert(cand.ir_func).second) {
        cursor_funcs.push_back(cand.ir_func);
      }
    }
    TraceLog::Total& andersen = log.TotalFor("pointer.andersen");
    TraceLog::Total& value_flow = log.TotalFor("pointer.value_flow");
    for (const vc::IrFunction* func : cursor_funcs) {
      std::unique_ptr<vc::PointsTo> points_to;
      {
        TraceLog::Timed timed(andersen);
        points_to = std::make_unique<vc::PointsTo>(*func);
      }
      TraceLog::Timed timed(value_flow);
      vc::ValueFlowGraph graph(*func, *points_to);
    }

    std::vector<vc::UnusedDefCandidate> findings;
    for (const vc::UnusedDefCandidate& cand : pool) {
      if (cand.pruned_by == vc::PruneReason::kNone) {
        findings.push_back(cand);
      }
    }
    {
      TraceLog::Timed timed(log.TotalFor("familiarity.dok"));
      for (const vc::UnusedDefCandidate& cand : findings) {
        if (repo != nullptr && cand.responsible_author != vc::kInvalidAuthor) {
          vc::DokScoreFor(*repo, cand.responsible_author, cand.file, options.ranking.weights);
        }
      }
    }
    vc::RankStats rank;
    {
      TraceLog::Span span(log, "core.rank");
      vc::RankCandidates(findings, repo, options.ranking, &rank);
    }
    log.Count("core.rank_scored", static_cast<double>(rank.scored));
    {
      TraceLog::Span span(log, "core.fingerprint");
      vc::AssignFingerprints(findings);
    }
  }
  {
    TraceLog::Span span(log, "incremental.dep_graph");
    if (scope.changed_paths != nullptr) {
      std::set<std::string> changed;
      for (size_t m : project->unit_order()) {
        if (scope.changed_paths->count(project->sources().Path(static_cast<vc::FileId>(m)))) {
          for (const auto& func : project->modules()[m]->functions) {
            changed.insert(func->name);
          }
        }
      }
      vc::DepGraph(*project).DirtyClosure(changed);
    }
  }
  side_ns += NowNanos() - side_start;

  std::unique_ptr<vc::AnalysisReport> report;
  {
    TraceLog::Span span(log, "core.analysis_run");
    report = std::make_unique<vc::AnalysisReport>(
        analysis.RunWithDetect(*project, scope.repo, std::move(detect)));
  }
  TraceResult result;
  {
    TraceLog::Span span(log, "core.render_csv");
    result.csv = report->ToCsv();
  }
  result.degraded = report->degraded;
  {
    TraceLog::Span span(log, "core.teardown");
    report.reset();
    project.reset();
  }
  const int64_t path_ns = NowNanos() - path_start - side_ns;
  // Accumulates over the apps of a multi-app workload like every counter.
  log.Count("core.unattributed_ns",
            static_cast<double>(path_ns - (path_span_nanos() - covered_before)));
  return result;
}

// --- Commands -----------------------------------------------------------------

// An untraced analysis from project build to teardown: the part wall_s times.
TraceResult AnalyzeOnce(const vc::AnalysisOptions& options, const Sources* sources,
                        const vc::Repository* repo) {
  vc::Analysis analysis(options);
  vc::Project project =
      repo != nullptr ? analysis.BuildFromRepository(*repo) : analysis.BuildFromSources(*sources);
  vc::AnalysisReport report = analysis.Run(project, repo);
  TraceResult result;
  result.csv = report.ToCsv();
  result.degraded = report.degraded;
  return result;  // report, then project, are destroyed inside the timing
}

// (file, line) of every CSV row; columns are file, line, function, ...
std::vector<std::pair<std::string, int>> CsvLocations(const std::string& csv) {
  std::vector<std::pair<std::string, int>> locations;
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    size_t first = line.find(',');
    size_t second = line.find(',', first + 1);
    if (first == std::string::npos || second == std::string::npos) {
      continue;
    }
    locations.emplace_back(line.substr(0, first),
                           std::stoi(line.substr(first + 1, second - first - 1)));
  }
  return locations;
}

// Scores one app's findings against its ledger. The answer comes from the
// generator's labels alone: every planted site labelled to survive the
// cross-scope filter and pruning must be reported, every report must hit a
// planted site, and the real-bug count must equal the ledger's. The one
// tolerated extra is a benign peer-definition site (ignored return of a
// customarily-ignored helper) that peer pruning kept; those are counted.
bool CheckAgainstLedger(vc::JsonWriter& json, const AppFiles& app, const std::string& csv) {
  const vc::GroundTruth truth = LoadTruth(app.truth);
  std::set<int> expected;
  int expected_real = 0;
  for (const vc::GtSite& site : truth.sites()) {
    if (site.expect_cross_scope && !site.expect_pruned) {
      expected.insert(site.id);
      expected_real += site.is_real_bug ? 1 : 0;
    }
  }
  const std::vector<std::pair<std::string, int>> locations = CsvLocations(csv);
  const vc::ToolEval eval = vc::EvaluateLocations(truth, "ValueCheck", locations);
  std::set<int> matched;
  for (const auto& [file, line] : locations) {
    if (const vc::GtSite* site = truth.Match(file, line)) {
      matched.insert(site->id);
    }
  }
  int missed = 0;
  for (int id : expected) {
    missed += matched.count(id) == 0 ? 1 : 0;
  }
  int peer_escapes = 0;
  int other_extras = 0;
  for (int id : matched) {
    if (expected.count(id) == 0) {
      const vc::SiteCategory category = truth.sites()[id].category;
      const bool peer = category == vc::SiteCategory::kBenignPeerInternal ||
                        category == vc::SiteCategory::kBenignPeerExternal;
      (peer ? peer_escapes : other_extras) += 1;
    }
  }
  const bool ok = eval.unmatched == 0 && eval.real == expected_real && missed == 0 &&
                  other_extras == 0;
  json.BeginObject();
  json.String("app", app.name);
  json.Int("found", eval.found);
  json.Int("real", eval.real);
  json.Int("expected_found", static_cast<int64_t>(expected.size()));
  json.Int("expected_real", expected_real);
  json.Int("missed", missed);
  json.Int("peer_escapes", peer_escapes);
  json.Int("other_extras", other_extras);
  json.Int("unmatched", eval.unmatched);
  json.Bool("ok", ok);
  json.EndObject();
  return ok;
}

void IntArray(vc::JsonWriter& json, const std::string& key, const std::vector<int64_t>& values) {
  json.Key(key).BeginArray();
  for (int64_t value : values) {
    json.IntValue(value);
  }
  json.EndArray();
}

void WriteTrace(const Args& args, const TraceLog& log) {
  if (args.Has("trace")) {
    WriteFile(args.Get("trace"), log.ToJson());
  }
}

int CmdBatch(const Args& args) {
  const std::string workload = args.Positional(1);
  const std::string in = args.Need("in");
  const bool trace = args.Has("trace");
  vc::AnalysisOptions options;
  options.jobs = args.Jobs();
  if (workload == "linux-large") {
    // Sources mode, as `valuecheck analyze DIR` runs it: without authorship
    // every scope is reported, unranked.
    options.cross_scope_only = false;
    options.ranking.enabled = false;
  }
  if (trace) {
    vc::MetricsRegistry::Global().Enable();  // thread-pool idle time
  }
  TraceLog log;
  std::vector<int64_t> setup_items;
  std::vector<int64_t> wall_items;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string csv;
  vc::JsonWriter json;
  json.BeginObject();
  json.Key("apps").BeginArray();

  auto analyze = [&](const Sources* sources, const vc::Repository* repo) {
    const int64_t start = NowNanos();
    TraceResult result;
    if (trace) {
      TraceScope scope;
      scope.sources = sources;
      scope.repo = repo;
      result = TraceAnalysis(log, options, scope);
    } else {
      result = AnalyzeOnce(options, sources, repo);
    }
    wall_items.push_back(NowNanos() - start);
    ++attempted;
    failed += result.degraded ? 1 : 0;
    return result;
  };

  int64_t peak = 0;
  if (workload == "linux-large") {
    // Reading the tree takes a few tenths of a second, so the untraced run
    // reads it three times and reports the median.
    Sources sources;
    std::vector<int64_t> reads;
    for (int rep = 0; rep < (trace ? 1 : 3); ++rep) {
      TraceLog::Span span(log, "support.read_sources");
      const int64_t start = NowNanos();
      sources = ReadTree(in + "/src");
      reads.push_back(NowNanos() - start);
    }
    setup_items.push_back(MedianNanos(reads));
    csv = analyze(&sources, nullptr).csv;
    peak = static_cast<int64_t>(vc::ProcessPeakRssBytes());
    if (args.Has("drop-finding")) {
      csv = DropFirstRow(csv);
    }
  } else if (workload == "paper-apps") {
    const std::vector<AppFiles> apps = ListApps(in);
    std::vector<vc::Repository> repos;
    for (const AppFiles& app : apps) {
      const int64_t start = NowNanos();
      std::string text;
      {
        TraceLog::Span span(log, "support.read_sources");
        text = ReadFile(app.history);
      }
      {
        TraceLog::Span span(log, "vcs.load_history");
        repos.push_back(LoadRepository(text, app.history));
      }
      setup_items.push_back(NowNanos() - start);
    }
    std::vector<std::string> csvs;
    for (const vc::Repository& repo : repos) {
      csvs.push_back(analyze(nullptr, &repo).csv);
    }
    peak = static_cast<int64_t>(vc::ProcessPeakRssBytes());
    if (args.Has("drop-finding")) {
      csvs[0] = DropFirstRow(csvs[0]);
    }
    for (size_t i = 0; i < apps.size(); ++i) {
      failed += CheckAgainstLedger(json, apps[i], csvs[i]) ? 0 : 1;
      csv += "# " + apps[i].name + "\n" + csvs[i];
    }
  } else {
    Die("unknown batch workload '" + workload + "'");
  }
  json.EndArray();
  if (trace) {
    // Layers this workload never calls still get their span, so every
    // per-layer time is a measurement: an idle layer reads the cost of an
    // empty span. Batch runs replay no commit; sources mode loads no history.
    { TraceLog::Span commit(log, "incremental.commit"); }
    if (workload == "linux-large") {
      TraceLog::Span history(log, "vcs.load_history");
    }
  }
  WriteFile(args.Need("csv"), csv);
  WriteTrace(args, log);
  json.Int("peak_rss_bytes", peak);
  IntArray(json, "setup_items_ns", setup_items);
  IntArray(json, "wall_items_ns", wall_items);
  json.Int("attempted", attempted);
  json.Int("failed", failed);
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

int CmdReplay(const Args& args) {
  const std::string in = args.Need("in");
  const bool trace = args.Has("trace");
  vc::AnalysisOptions options;
  options.jobs = args.Jobs();
  if (trace) {
    vc::MetricsRegistry::Global().Enable();
  }
  TraceLog log;
  const std::vector<AppFiles> apps = ListApps(in);
  if (apps.size() != 1) {
    Die("replay expects exactly one history in " + in);
  }

  const int64_t setup_start = NowNanos();
  std::string text;
  {
    TraceLog::Span span(log, "support.read_sources");
    text = ReadFile(apps[0].history);
  }
  std::optional<vc::Repository> loaded;
  {
    TraceLog::Span span(log, "vcs.load_history");
    loaded = LoadRepository(text, apps[0].history);
  }
  const vc::Repository& repo = *loaded;
  const vc::CommitId last = repo.NumCommits() - 1;
  const vc::CommitId first = last - static_cast<vc::CommitId>(args.Int("window", 100)) + 1;
  if (first < 1) {
    Die("history too short for the replay window");
  }
  vc::IncrementalEngine engine(options);
  {
    TraceLog::Span span(log, "incremental.warmup");
    engine.AnalyzeCommit(repo, first - 1);
  }
  const int64_t setup_ns = NowNanos() - setup_start;

  std::vector<int64_t> commit_ns;
  std::string csv;
  int64_t failed = 0;
  int64_t files_reparsed = 0;
  int64_t functions_dirty = 0;
  int64_t functions_seen = 0;
  for (vc::CommitId commit = first; commit <= last; ++commit) {
    int64_t elapsed = 0;
    vc::IncrementalResult result;
    {
      std::optional<TraceLog::Span> span;
      if (trace) {
        span.emplace(log, "incremental.commit");
      }
      const int64_t start = NowNanos();
      result = engine.AnalyzeCommit(repo, commit);
      elapsed = NowNanos() - start;
    }
    commit_ns.push_back(elapsed);
    failed += result.report.degraded ? 1 : 0;
    files_reparsed += result.files_reparsed;
    functions_dirty += result.functions_dirty;
    functions_seen += result.functions_total;
    if (commit == last) {
      csv = result.report.ToCsv();
    }
  }
  const int64_t peak = static_cast<int64_t>(vc::ProcessPeakRssBytes());
  if (args.Has("drop-finding")) {
    csv = DropFirstRow(csv);
  }

  // The answer: a fresh full run over the repository as of the last commit.
  std::string expected;
  if (trace) {
    Sources window_files;
    std::set<std::string> window_paths;
    for (vc::CommitId commit = first; commit <= last; ++commit) {
      for (const auto& [path, content] : repo.GetCommit(commit).files) {
        window_files.emplace_back(path, content);
        window_paths.insert(path);
      }
    }
    std::set<std::string> changed_paths;
    for (const auto& [path, content] : repo.GetCommit(last).files) {
      changed_paths.insert(path);
    }
    changed_paths.insert(repo.GetCommit(last).deleted.begin(), repo.GetCommit(last).deleted.end());
    TraceScope scope;
    scope.repo = &repo;
    scope.frontend_files = &window_files;
    scope.detect_paths = &window_paths;
    scope.changed_paths = &changed_paths;
    expected = TraceAnalysis(log, options, scope).csv;
  } else {
    expected = vc::Analysis(options).RunOnRepository(repo.PrefixCopy(last)).ToCsv();
  }
  const bool ok = csv == expected;
  failed += ok ? 0 : 1;
  log.Count("incremental.files_reparsed", static_cast<double>(files_reparsed));
  log.Count("incremental.functions_dirty", static_cast<double>(functions_dirty));
  log.Count("incremental.functions_seen", static_cast<double>(functions_seen));

  WriteFile(args.Need("csv"), csv);
  WriteTrace(args, log);
  vc::JsonWriter json;
  json.BeginObject();
  IntArray(json, "setup_items_ns", {setup_ns});
  IntArray(json, "wall_items_ns", commit_ns);
  json.Int("peak_rss_bytes", peak);
  json.Int("attempted", last - first + 1);
  json.Int("failed", failed);
  json.Bool("matches_full_run", ok);
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const std::string command = args.Positional(0);
  try {
    if (command == "gen") {
      return CmdGen(args);
    }
    if (command == "batch") {
      return CmdBatch(args);
    }
    if (command == "replay") {
      return CmdReplay(args);
    }
  } catch (const std::exception& e) {
    Die(e.what());
  }
  Die("usage: vc_perfbench gen|batch|replay ... (see perfbench/vc_perfbench.cc)");
}
