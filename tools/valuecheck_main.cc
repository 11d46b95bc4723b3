// valuecheck — the command-line front end over the vc::Analysis facade.
//
// Subcommands:
//
//   valuecheck analyze [options] <file.c|dir>... | --history <file.vchist>
//       Run the pipeline (the default when the first argument is not a
//       subcommand name, so `valuecheck src/` keeps working). Two modes:
//       directory/file mode analyzes Mini-C sources from disk without
//       authorship (every unused definition, unranked — a precise dead-store
//       checker); history mode loads a .vchist commit history (see
//       src/vcs/history_io.h) and runs the full pipeline with cross-scope
//       filtering, pruning, and familiarity ranking. With --ledger DIR the
//       run (findings + fingerprints + metrics) is appended to the run
//       ledger for later diffs.
//
//   valuecheck diff [--ledger DIR] [runA runB] [--check]
//       Classify findings across two ledger runs as new/fixed/persistent by
//       stable fingerprint and compare metrics. --check exits non-zero on
//       new findings or metric regressions — the CI gate.
//
//   valuecheck history [--ledger DIR]
//       Table of recorded runs.
//
//   valuecheck report [--ledger DIR] --html FILE
//       Self-contained HTML dashboard (findings, deltas, trend sparklines).
//
//   valuecheck serve [--socket PATH | --port N] [options]
//       Long-lived analysis daemon (DESIGN.md §19): warm per-project
//       incremental state, bounded admission with load shedding, per-request
//       deadlines and quarantine. SIGTERM/SIGINT drains in-flight requests
//       and flushes the ledger/metrics artifacts before exiting; drive it
//       with vc_loadgen.
//
// Every analyze flag maps onto a vc::AnalysisOptions field (or a
// report/output control); the flag table below is the single source of truth
// and also renders --help.
//
// analyze exit codes: 0 no findings, 1 findings, 2 usage/parse error,
// 3 quarantined units under --strict (graceful mode reports the quarantine on
// stderr and in the schema-v7 report but keeps the 0/1 contract).
//
// Observability flags (--metrics, --metrics-out, --trace, --profile,
// --events, --progress) only ever write to stderr or side files: findings on
// stdout are byte-identical with any combination of them on or off.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/checkers/checker.h"
#include "src/checkers/registry.h"
#include "src/core/analysis.h"
#include "src/core/html_dashboard.h"
#include "src/core/incremental.h"
#include "src/core/report_formats.h"
#include "src/core/run_diff.h"
#include "src/server/server.h"
#include "src/support/events.h"
#include "src/support/logging.h"
#include "src/support/memstats.h"
#include "src/support/metrics.h"
#include "src/support/profile_export.h"
#include "src/support/run_ledger.h"
#include "src/support/shutdown.h"
#include "src/support/span_analysis.h"
#include "src/support/string_util.h"
#include "src/support/table_writer.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"
#include "src/vcs/history_io.h"

namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "valuecheck: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Creates the parent directory of an output file path (no-op for bare
// filenames). Returns false with a complaint when creation fails — output
// flags must not silently drop their artifact.
bool EnsureParentDir(const std::string& path) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) {
    return true;
  }
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  if (ec) {
    std::fprintf(stderr, "valuecheck: cannot create directory %s: %s\n",
                 parent.string().c_str(), ec.message().c_str());
    return false;
  }
  return true;
}

std::string FormatTimestamp(int64_t timestamp_ms) {
  if (timestamp_ms <= 0) {
    return "-";
  }
  std::time_t seconds = static_cast<std::time_t>(timestamp_ms / 1000);
  std::tm tm_utc{};
  gmtime_r(&seconds, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d %H:%M:%S", &tm_utc);
  return buf;
}

// ---------------------------------------------------------------------------
// analyze
// ---------------------------------------------------------------------------

struct CliOptions {
  std::string history_path;
  std::string format = "text";
  std::string trace_path;
  std::string profile_path;
  std::string perf_report_path;
  std::string events_path;
  std::string metrics_out_path;
  std::string ledger_dir;
  std::string label;
  std::string cache_dir;
  bool incremental = false;
  bool metrics = false;
  bool progress = false;
  int top = -1;
  bool all_scopes = false;
  bool strict = false;
  vc::AnalysisOptions analysis;
  std::vector<std::string> inputs;
};

// One registered command-line flag. `value_name` is empty for boolean
// switches; `maps_to` names the AnalysisOptions field (or output control) the
// flag drives, and is rendered in --help so the CLI surface documents the
// API surface.
struct FlagSpec {
  const char* name;        // without the value part, e.g. "--jobs"
  const char* value_name;  // e.g. "N"; nullptr for switches
  const char* maps_to;     // e.g. "AnalysisOptions::jobs"
  const char* help;
  // Applies the flag; returns false (after printing to stderr) on a bad value.
  bool (*apply)(CliOptions&, const std::string& value);
};

const FlagSpec kFlags[] = {
    {"--history", "FILE", "input mode",
     "load a vchist commit history (enables authorship, cross-scope\n"
     "filtering, and familiarity ranking)",
     [](CliOptions& o, const std::string& v) {
       o.history_path = v;
       return true;
     }},
    {"--incremental", nullptr, "incremental engine",
     "replay the --history commits through the incremental engine:\n"
     "each commit re-parses only its touched files and re-runs\n"
     "checkers only on the functions of files whose content\n"
     "changed, yet yields the complete finding set as of that\n"
     "commit (byte-identical to a full run). Per-commit work accounting goes to stderr; the\n"
     "report printed on stdout is the one for the head commit",
     [](CliOptions& o, const std::string&) {
       o.incremental = true;
       return true;
     }},
    {"--cache-dir", "DIR", "incremental engine",
     "persist the per-file analysis cache under DIR so a later\n"
     "--incremental run in a fresh process skips re-analyzing\n"
     "functions whose file content, checker set, and configuration\n"
     "are unchanged; corrupt entries degrade to a re-parse via the\n"
     "quarantine channel, never a failed run",
     [](CliOptions& o, const std::string& v) {
       o.cache_dir = v;
       return true;
     }},
    {"--jobs", "N", "AnalysisOptions::jobs",
     "parallel worker lanes for parse/lower and detection\n"
     "(default 1; 0 = all hardware threads; output is identical\n"
     "at any value)",
     [](CliOptions& o, const std::string& v) {
       char* end = nullptr;
       long jobs = std::strtol(v.c_str(), &end, 10);
       if (end == v.c_str() || *end != '\0' || jobs < 0) {
         std::fprintf(stderr, "valuecheck: --jobs expects a non-negative integer, got '%s'\n",
                      v.c_str());
         return false;
       }
       o.analysis.jobs = static_cast<int>(jobs);
       return true;
     }},
    {"--format", "FMT", "output control",
     "output format: text (default), csv, json, sarif",
     [](CliOptions& o, const std::string& v) {
       if (v != "text" && v != "csv" && v != "json" && v != "sarif") {
         std::fprintf(stderr, "valuecheck: unknown format '%s' (expected text, csv, json, sarif)\n",
                      v.c_str());
         return false;
       }
       o.format = v;
       return true;
     }},
    {"--ledger", "DIR", "run ledger",
     "append this run (findings + fingerprints + metrics) to the\n"
     "run ledger at DIR (created if missing); `valuecheck diff`,\n"
     "`history`, and `report` read it back. Implies metrics\n"
     "collection (findings stay byte-identical) without the\n"
     "--metrics stderr tables",
     [](CliOptions& o, const std::string& v) {
       o.ledger_dir = v;
       o.analysis.collect_metrics = true;
       return true;
     }},
    {"--label", "NAME", "run ledger",
     "free-form provenance label stored with the ledger record\n"
     "(default: the input path or history file)",
     [](CliOptions& o, const std::string& v) {
       o.label = v;
       return true;
     }},
    {"--trace", "FILE", "observability",
     "write a Chrome trace-event JSON of the run (load in\n"
     "chrome://tracing or Perfetto); parent dirs are created",
     [](CliOptions& o, const std::string& v) {
       o.trace_path = v;
       return true;
     }},
    {"--profile", "FILE", "observability",
     "write a collapsed-stack CPU profile of the run (one\n"
     "`frame;frame count` line per stack, flamegraph.pl /\n"
     "speedscope format); built from the same spans as --trace",
     [](CliOptions& o, const std::string& v) {
       o.profile_path = v;
       return true;
     }},
    {"--perf-report", "FILE", "observability",
     "write per-run performance analytics as JSON: critical path\n"
     "(folded listing), Amdahl serial fraction, per-worker\n"
     "utilization timelines, imbalance and steal-latency stats;\n"
     "validate with `vc_obs_lint perf FILE`",
     [](CliOptions& o, const std::string& v) {
       o.perf_report_path = v;
       o.analysis.collect_metrics = true;
       return true;
     }},
    {"--events", "FILE", "observability",
     "stream machine-readable run events (run_start, per-file and\n"
     "per-stage stage_start/stage_end, checker_done, quarantine,\n"
     "run_end) as JSON lines to FILE while the run executes",
     [](CliOptions& o, const std::string& v) {
       o.events_path = v;
       return true;
     }},
    {"--metrics-out", "FILE", "observability",
     "dump the metrics registry (every counter, gauge, and\n"
     "histogram, including mem.*) in Prometheus text exposition\n"
     "format to FILE; implies metrics collection without the\n"
     "--metrics stderr tables",
     [](CliOptions& o, const std::string& v) {
       o.metrics_out_path = v;
       o.analysis.collect_metrics = true;
       return true;
     }},
    {"--progress", nullptr, "observability",
     "live one-line progress heartbeat on stderr (files/functions\n"
     "done, findings, throughput, ETA); findings on stdout are\n"
     "byte-identical with or without it",
     [](CliOptions& o, const std::string&) {
       o.progress = true;
       return true;
     }},
    {"--metrics", nullptr, "AnalysisOptions::collect_metrics",
     "collect per-stage metrics and print a stats table to stderr",
     [](CliOptions& o, const std::string&) {
       o.metrics = true;
       o.analysis.collect_metrics = true;
       return true;
     }},
    {"--log-level", "LEVEL", "observability",
     "stderr log verbosity: error, warn (default), info, debug",
     [](CliOptions& o, const std::string& v) {
       std::optional<vc::LogLevel> level = vc::ParseLogLevel(v);
       if (!level.has_value()) {
         std::fprintf(stderr,
                      "valuecheck: unknown log level '%s' (expected error, warn, info, debug)\n",
                      v.c_str());
         return false;
       }
       vc::SetLogLevel(*level);
       return true;
     }},
    {"--top", "K", "output control",
     "print only the K highest-ranked findings (text mode)",
     [](CliOptions& o, const std::string& v) {
       o.top = std::atoi(v.c_str());
       return true;
     }},
    {"--all-scopes", nullptr, "AnalysisOptions::cross_scope_only",
     "keep non-cross-scope findings even in history mode",
     [](CliOptions& o, const std::string&) {
       o.all_scopes = true;
       return true;
     }},
    {"--strict", nullptr, "fault isolation",
     "exit 3 when any unit was quarantined (default: graceful —\n"
     "report the surviving findings, note the quarantine on stderr,\n"
     "and exit 0/1 as usual)",
     [](CliOptions& o, const std::string&) {
       o.strict = true;
       return true;
     }},
    {"--fault-inject", "SEED:RATE", "AnalysisOptions::fault",
     "deterministically quarantine ~RATE of units at seeded\n"
     "injection sites (robustness testing; e.g. 42:0.1). The\n"
     "quarantine list and surviving findings are identical at any\n"
     "--jobs for a given SEED:RATE",
     [](CliOptions& o, const std::string& v) {
       std::string error;
       std::optional<vc::FaultInjector> fault = vc::FaultInjector::Parse(v, &error);
       if (!fault.has_value()) {
         std::fprintf(stderr, "valuecheck: --fault-inject: %s\n", error.c_str());
         return false;
       }
       o.analysis.fault = *fault;
       return true;
     }},
    {"--define", "NAME[=V]", "AnalysisOptions::config",
     "define a preprocessor macro for #if evaluation",
     [](CliOptions& o, const std::string& v) {
       size_t eq = v.find('=');
       if (eq == std::string::npos) {
         o.analysis.config.Define(v);
       } else {
         o.analysis.config.Define(v.substr(0, eq),
                                  std::strtoll(v.c_str() + eq + 1, nullptr, 0));
       }
       return true;
     }},
    {"--no-prune-config", nullptr, "AnalysisOptions::prune.config_dependency",
     "disable configuration-dependency pruning",
     [](CliOptions& o, const std::string&) {
       o.analysis.prune.config_dependency = false;
       return true;
     }},
    {"--no-prune-cursor", nullptr, "AnalysisOptions::prune.cursor",
     "disable cursor-pattern pruning",
     [](CliOptions& o, const std::string&) {
       o.analysis.prune.cursor = false;
       return true;
     }},
    {"--no-prune-hints", nullptr, "AnalysisOptions::prune.unused_hints",
     "disable unused-hint pruning",
     [](CliOptions& o, const std::string&) {
       o.analysis.prune.unused_hints = false;
       return true;
     }},
    {"--no-prune-peer", nullptr, "AnalysisOptions::prune.peer_definition",
     "disable peer-definition pruning",
     [](CliOptions& o, const std::string&) {
       o.analysis.prune.peer_definition = false;
       return true;
     }},
    {"--stale-code", nullptr, "AnalysisOptions::prune.stale_code",
     "enable commit-history stale-code pruning (needs history)",
     [](CliOptions& o, const std::string&) {
       o.analysis.prune.stale_code = true;
       return true;
     }},
    {"--ea-model", nullptr, "AnalysisOptions::ranking.use_ea_model",
     "rank with the EA familiarity model instead of DOK",
     [](CliOptions& o, const std::string&) {
       o.analysis.ranking.use_ea_model = true;
       return true;
     }},
    {"--checkers", "LIST", "AnalysisOptions::checkers",
     "comma-separated checker names to run (see --list-checkers;\n"
     "default: every non-baseline checker)",
     [](CliOptions& o, const std::string& v) {
       std::vector<std::string> names;
       for (std::string_view part : vc::Split(v, ',')) {
         std::string name = std::string(vc::Trim(part));
         if (name.empty()) {
           continue;
         }
         if (vc::CheckerRegistry::Global().Find(name) == nullptr) {
           std::fprintf(stderr,
                        "valuecheck: --checkers: unknown checker '%s' (see --list-checkers)\n",
                        name.c_str());
           return false;
         }
         names.push_back(std::move(name));
       }
       if (names.empty()) {
         std::fprintf(stderr, "valuecheck: --checkers expects at least one checker name\n");
         return false;
       }
       o.analysis.checkers = std::move(names);
       return true;
     }},
};

void PrintCheckerList(FILE* out) {
  vc::TableWriter table({"name", "kind", "description"});
  for (const vc::Checker* checker : vc::CheckerRegistry::Global().All()) {
    table.AddRow({checker->name(), checker->is_baseline() ? "baseline" : "default",
                  checker->description()});
  }
  std::fputs(table.RenderText().c_str(), out);
  std::fputs(
      "\nBaseline checkers model the §8.4 comparison tools; they are excluded\n"
      "from the default set and only run when named in --checkers.\n",
      out);
}

void PrintUsage(FILE* out) {
  std::fputs(
      "usage: valuecheck [analyze] [options] <file.c|dir>... | --history <file.vchist>\n"
      "       valuecheck diff    [--ledger DIR] [runA runB] [--check] [diff options]\n"
      "       valuecheck history [--ledger DIR] [--limit N] [--compact N]\n"
      "       valuecheck report  [--ledger DIR] --html FILE\n"
      "       valuecheck serve   [--socket PATH | --port N] (see serve --help)\n"
      "\n"
      "Arguments after `--` are always input paths, never flags.\n"
      "Run selectors: latest, prev, rNNNN, N (1-based), -N (from newest).\n"
      "\nanalyze options:\n",
      out);
  for (const FlagSpec& flag : kFlags) {
    std::string head = flag.name;
    if (flag.value_name != nullptr) {
      head += "=";
      head += flag.value_name;
    }
    std::fprintf(out, "  %-21s", head.c_str());
    if (head.size() > 21) {
      std::fprintf(out, "\n  %-21s", "");
    }
    // Help text may span lines; keep continuation lines aligned.
    const char* text = flag.help;
    bool first = true;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (!first) {
        std::fprintf(out, "  %-21s", "");
      }
      std::fprintf(out, "%s\n", line.c_str());
      first = false;
    }
    std::fprintf(out, "  %-21s[%s]\n", "", flag.maps_to);
  }
  std::fputs(
      "  --list-checkers      print the registered checkers and exit\n"
      "  --help, -h           print this summary\n"
      "\ndiff options:\n"
      "  --check              exit 1 on new findings or metric regressions\n"
      "  --timings            include (nondeterministic) stage-timing deltas\n"
      "  --format=FMT         text (default) or json\n"
      "  --max-new=N          allowed new findings before --check fails (default 0)\n"
      "  --stage-ratio=X      stage-seconds regression ratio (default 1.5)\n"
      "  --stage-floor=SEC    ignore stage growth below this many seconds (default 0.05)\n"
      "  --prune-drop=X       allowed absolute prune-rate drop (default 0.10)\n",
      out);
}

const FlagSpec* FindFlag(const std::string& name) {
  for (const FlagSpec& flag : kFlags) {
    if (name == flag.name) {
      return &flag;
    }
  }
  return nullptr;
}

bool ParseAnalyzeArgs(const std::vector<std::string>& args, CliOptions& options) {
  bool only_inputs = false;  // set once `--` is seen
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (only_inputs) {
      options.inputs.push_back(arg);
      continue;
    }
    if (arg == "--") {
      only_inputs = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      std::exit(0);
    }
    if (arg == "--list-checkers") {
      PrintCheckerList(stdout);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      options.inputs.push_back(arg);
      continue;
    }
    std::string name = arg;
    std::string value;
    bool has_value = false;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    const FlagSpec* flag = FindFlag(name);
    if (flag == nullptr) {
      std::fprintf(stderr, "valuecheck: unknown option %s\n", arg.c_str());
      PrintUsage(stderr);
      return false;
    }
    if (flag->value_name != nullptr && !has_value) {
      // Allow the "--flag VALUE" spelling.
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "valuecheck: %s expects a value\n", name.c_str());
        return false;
      }
      value = args[++i];
    } else if (flag->value_name == nullptr && has_value) {
      std::fprintf(stderr, "valuecheck: %s does not take a value\n", name.c_str());
      return false;
    }
    if (!flag->apply(options, value)) {
      // Bad flag values (e.g. --format/--log-level typos) never silently
      // default: the apply hook printed the specific complaint, we add the
      // usage summary, and main exits non-zero.
      PrintUsage(stderr);
      return false;
    }
  }
  if (options.history_path.empty() && options.inputs.empty()) {
    PrintUsage(stderr);
    return false;
  }
  if (options.incremental && options.history_path.empty()) {
    std::fprintf(stderr, "valuecheck: --incremental requires --history (a commit sequence)\n");
    return false;
  }
  if (!options.cache_dir.empty() && !options.incremental) {
    std::fprintf(stderr, "valuecheck: --cache-dir only applies with --incremental\n");
    return false;
  }
  return true;
}

std::vector<std::pair<std::string, std::string>> CollectSources(
    const std::vector<std::string>& inputs) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const std::string& input : inputs) {
    std::filesystem::path path(input);
    if (std::filesystem::is_directory(path)) {
      std::vector<std::string> found;
      for (const auto& entry : std::filesystem::recursive_directory_iterator(path)) {
        if (entry.is_regular_file() && entry.path().extension() == ".c") {
          found.push_back(entry.path().string());
        }
      }
      std::sort(found.begin(), found.end());
      for (const std::string& file : found) {
        files.emplace_back(file, ReadFileOrDie(file));
      }
    } else {
      files.emplace_back(input, ReadFileOrDie(input));
    }
  }
  return files;
}

void PrintText(const vc::AnalysisReport& report, const vc::Repository* repo, int top,
               bool ranked) {
  using namespace vc;
  std::printf("valuecheck: %d unused definition(s)", static_cast<int>(report.findings.size()));
  if (report.prune_stats.TotalPruned() > 0) {
    std::printf(" (%d pruned: %d config, %d cursor, %d hints, %d peer, %d stale)",
                report.prune_stats.TotalPruned(), report.prune_stats.config_dependency,
                report.prune_stats.cursor, report.prune_stats.unused_hints,
                report.prune_stats.peer_definition, report.prune_stats.stale_code);
  }
  std::printf("\n");
  int shown = 0;
  for (const UnusedDefCandidate& cand : report.findings) {
    if (top >= 0 && shown >= top) {
      std::printf("... %d more (raise --top)\n",
                  static_cast<int>(report.findings.size()) - shown);
      break;
    }
    ++shown;
    std::printf("%s:%d: warning: ", cand.file.c_str(), cand.def_loc.line);
    switch (cand.kind) {
      case CandidateKind::kOverwrittenDef:
        std::printf("value of '%s' is overwritten before use", cand.slot_name.c_str());
        break;
      case CandidateKind::kUnusedRetVal:
        std::printf("return value%s is never used",
                    !cand.callee_name.empty()
                        ? (" of '" + cand.callee_name + "'").c_str()
                        : "");
        break;
      case CandidateKind::kUnusedParam:
        std::printf("parameter '%s' value is never used", cand.slot_name.c_str());
        break;
      case CandidateKind::kOverwrittenParam:
        std::printf("parameter '%s' is overwritten before use", cand.slot_name.c_str());
        break;
      case CandidateKind::kPlainUnused:
        if (cand.overwritten) {
          std::printf("value of '%s' is overwritten before use", cand.slot_name.c_str());
        } else {
          std::printf("value of '%s' is never used", cand.slot_name.c_str());
        }
        break;
    }
    std::printf(" [in %s]", cand.function.c_str());
    if (repo != nullptr && cand.responsible_author != kInvalidAuthor && ranked) {
      std::printf(" (introduced by %s, familiarity %.2f)",
                  repo->GetAuthor(cand.responsible_author).name.c_str(), cand.familiarity);
    }
    std::printf("\n");
  }
}

// Non-default analysis options, rendered into the ledger record so a run's
// provenance is reconstructible from history alone.
std::string SummarizeOptions(const CliOptions& options, bool has_history) {
  std::vector<std::string> parts;
  if (!has_history) {
    parts.push_back("no-history");
  }
  if (options.all_scopes) {
    parts.push_back("all-scopes");
  }
  const vc::PruneOptions& prune = options.analysis.prune;
  if (!prune.config_dependency) {
    parts.push_back("no-prune-config");
  }
  if (!prune.cursor) {
    parts.push_back("no-prune-cursor");
  }
  if (!prune.unused_hints) {
    parts.push_back("no-prune-hints");
  }
  if (!prune.peer_definition) {
    parts.push_back("no-prune-peer");
  }
  if (prune.stale_code) {
    parts.push_back("stale-code");
  }
  if (options.analysis.ranking.use_ea_model) {
    parts.push_back("ea-model");
  }
  if (!options.analysis.checkers.empty()) {
    parts.push_back("checkers=" + vc::Join(options.analysis.checkers, ","));
  }
  if (options.analysis.fault.enabled()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "fault-inject=%llu:%g",
                  static_cast<unsigned long long>(options.analysis.fault.seed()),
                  options.analysis.fault.rate());
    parts.push_back(buf);
  }
  if (options.strict) {
    parts.push_back("strict");
  }
  return vc::Join(parts, " ");
}

int RunAnalyze(const std::vector<std::string>& args) {
  using namespace vc;
  CliOptions options;
  if (!ParseAnalyzeArgs(args, options)) {
    return 2;
  }
  // First SIGINT/SIGTERM requests a graceful stop: the run finishes its
  // current unit of work (the current commit in --incremental replays, the
  // whole run otherwise), every artifact epilogue below still executes, and
  // the exit status is the conventional 128+signal.
  InstallGracefulShutdown();

  if (!options.trace_path.empty()) {
    if (!EnsureParentDir(options.trace_path)) {
      return 2;
    }
    TraceCollector::Global().Enable();
  }
  // The collapsed-stack profile and the perf report are derived from the
  // same spans as --trace, so each alone also turns the collector on.
  if (!options.profile_path.empty()) {
    if (!EnsureParentDir(options.profile_path)) {
      return 2;
    }
    TraceCollector::Global().Enable();
  }
  if (!options.perf_report_path.empty()) {
    if (!EnsureParentDir(options.perf_report_path)) {
      return 2;
    }
    TraceCollector::Global().Enable();
    // Steal latencies and per-worker busy time are clocked only while the
    // metrics registry is on (collect_metrics was set at flag parse).
    MetricsRegistry::Global().Enable();
  }
  if (options.metrics) {
    MetricsRegistry::Global().Enable();
  }
  if (!options.metrics_out_path.empty()) {
    if (!EnsureParentDir(options.metrics_out_path)) {
      return 2;
    }
    MetricsRegistry::Global().Enable();
  }
  if (!options.events_path.empty()) {
    if (!EnsureParentDir(options.events_path) ||
        !RunEventLog::Global().Open(options.events_path)) {
      std::fprintf(stderr, "valuecheck: cannot write events to %s\n",
                   options.events_path.c_str());
      return 2;
    }
    RunEvent("run_start")
        .Str("mode", options.history_path.empty() ? "sources" : "history")
        .Num("jobs", static_cast<int64_t>(options.analysis.jobs))
        .Emit();
  }
  if (options.progress) {
    ProgressMeter::Global().Start(stderr);
  }

  Repository repo;
  bool has_history = !options.history_path.empty();
  if (has_history) {
    std::string error;
    std::optional<Repository> loaded =
        LoadHistory(ReadFileOrDie(options.history_path), &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "valuecheck: %s: %s\n", options.history_path.c_str(),
                   error.c_str());
      return 2;
    }
    repo = std::move(*loaded);
  } else {
    // No authorship: fall back to reporting all scopes, unranked.
    options.analysis.cross_scope_only = false;
    options.analysis.ranking.enabled = false;
  }
  if (options.all_scopes) {
    options.analysis.cross_scope_only = false;
  }

  Analysis analysis(options.analysis);
  AnalysisReport report;
  std::optional<IncrementalResult> inc_head;
  if (options.incremental) {
    // Replay the whole history commit-by-commit through one warm engine.
    // Each commit's report is complete (equal to a full run truncated at that
    // commit); stdout carries the head commit's report through the normal
    // formatting path, stderr the per-commit work accounting.
    if (repo.NumCommits() == 0) {
      std::fprintf(stderr, "valuecheck: --incremental: history has no commits\n");
      return 2;
    }
    IncrementalOptions inc_options;
    inc_options.cache_dir = options.cache_dir;
    IncrementalEngine engine(options.analysis, inc_options);
    std::string label = options.label.empty() ? options.history_path : options.label;
    for (CommitId commit = 0; commit < repo.NumCommits(); ++commit) {
      IncrementalResult result = engine.AnalyzeCommit(repo, commit);
      std::fprintf(stderr,
                   "valuecheck: commit %d/%d: reparsed %d of %d changed file(s), "
                   "%d/%d function(s) dirty, findings +%d -%d =%d, %.1f ms\n",
                   commit + 1, repo.NumCommits(), result.files_reparsed, result.files_changed,
                   result.functions_dirty, result.functions_total, result.findings_new,
                   result.findings_fixed, static_cast<int>(result.findings().size()),
                   result.seconds * 1000.0);
      // One ledger record per commit, so `history`/`report` can trend the
      // incremental run the same way CI trends full runs.
      if (!options.ledger_dir.empty()) {
        RunRecord record = MakeRunRecord(result.report,
                                         label + "@c" + std::to_string(commit), NowMs());
        record.options_summary = SummarizeOptions(options, has_history);
        FillIncrementalMetrics(result, record.metrics);
        std::string error;
        RunLedger ledger(options.ledger_dir);
        if (ledger.Append(std::move(record), &error).empty()) {
          std::fprintf(stderr, "valuecheck: ledger append failed: %s\n", error.c_str());
          return 2;
        }
      }
      bool last = commit + 1 == repo.NumCommits();
      inc_head = std::move(result);
      if (!last && ShutdownRequested()) {
        // Graceful stop between commits: report the last completed commit and
        // fall through to the normal artifact epilogues.
        std::fprintf(stderr,
                     "valuecheck: interrupted after commit %d/%d; flushing artifacts\n",
                     commit + 1, repo.NumCommits());
        break;
      }
    }
    const CacheStats& cache = inc_head->cache;
    std::fprintf(stderr,
                 "valuecheck: incremental replay: parse cache %llu hit / %llu miss; "
                 "detect cache %.1f%% hit (%llu carried, %llu recomputed); "
                 "disk cache %llu loaded, %llu stored, %llu corrupt\n",
                 static_cast<unsigned long long>(cache.parse_hits),
                 static_cast<unsigned long long>(cache.parse_misses),
                 cache.DetectHitRate() * 100.0,
                 static_cast<unsigned long long>(cache.detect_carried),
                 static_cast<unsigned long long>(cache.detect_recomputed),
                 static_cast<unsigned long long>(cache.disk_loads),
                 static_cast<unsigned long long>(cache.disk_stores),
                 static_cast<unsigned long long>(cache.disk_corrupt));
    report = inc_head->report;
  } else {
    Project project = has_history
                          ? analysis.BuildFromRepository(repo)
                          : analysis.BuildFromSources(CollectSources(options.inputs));
    if (project.diags().HasErrors()) {
      std::fputs(project.diags().Render(project.sources()).c_str(), stderr);
      return 2;
    }
    report = analysis.Run(project, has_history ? &repo : nullptr);
  }

  // The heartbeat line ends (with a final render + newline) before anything
  // else is printed, so the report never interleaves with a redraw.
  if (options.progress) {
    ProgressMeter::Global().AddFindings(report.findings.size());
    ProgressMeter::Global().Stop();
  }
  if (RunEventsEnabled()) {
    RunEvent("run_end")
        .Num("findings", static_cast<uint64_t>(report.findings.size()))
        .Num("quarantined", static_cast<uint64_t>(report.quarantined.size()))
        .Flag("degraded", report.degraded)
        .Dbl("analysis_seconds", report.analysis_seconds)
        .Emit();
    RunEventLog::Global().Close();
  }

  // Quarantine summary on stderr (stdout is reserved for the report, which
  // carries the same data in the schema-v5 "quarantined" block).
  if (report.degraded) {
    std::fprintf(stderr, "valuecheck: degraded run: %zu unit(s) quarantined\n",
                 report.quarantined.size());
    for (const QuarantinedUnit& unit : report.quarantined) {
      std::string where = unit.path;
      if (!unit.function.empty()) {
        where += where.empty() ? unit.function : ":" + unit.function;
      }
      if (where.empty()) {
        where = "<stage>";
      }
      std::fprintf(stderr, "  quarantined [%s] %s: %s\n", unit.stage.c_str(), where.c_str(),
                   unit.reason.c_str());
    }
  }

  if (options.format == "json") {
    std::printf("%s\n", ReportToJson(report, has_history ? &repo : nullptr,
                                     inc_head.has_value() ? &*inc_head : nullptr)
                            .c_str());
  } else if (options.format == "sarif") {
    std::printf("%s\n", ReportToSarif(report).c_str());
  } else if (options.format == "csv") {
    std::fputs(report.ToCsv().c_str(), stdout);
  } else {
    PrintText(report, has_history ? &repo : nullptr, options.top,
              options.analysis.ranking.enabled);
  }

  // Perf analytics: post-process the span buffers before the ledger
  // epilogue so the summary columns can ride along in the run record.
  std::optional<PerfReport> perf;
  if (!options.perf_report_path.empty()) {
    TraceCollector& collector = TraceCollector::Global();
    collector.Disable();
    PerfInputs inputs;
    // A replay's trace spans every commit, not just the head's report: its
    // span window is the wall clock (0 selects it).
    inputs.wall_seconds = options.incremental ? 0.0 : report.analysis_seconds;
    inputs.jobs = report.jobs;
    inputs.hardware_threads = HardwareThreads();
    inputs.dropped_spans = collector.dropped_count();
    inputs.pool = &report.stage.pool;
    perf = AnalyzeSpans(collector.SnapshotEvents(), inputs);
    if (!WritePerfReport(*perf, options.perf_report_path)) {
      std::fprintf(stderr, "valuecheck: cannot write perf report to %s\n",
                   options.perf_report_path.c_str());
      return 2;
    }
    VC_LOG_INFO("wrote perf report to " + options.perf_report_path);
  }

  // Ledger epilogue: persist the run for later `diff`/`history`/`report`.
  // Incremental replays already appended one record per commit above.
  if (!options.ledger_dir.empty() && !options.incremental) {
    std::string label = options.label;
    if (label.empty()) {
      label = has_history ? options.history_path : Join(options.inputs, " ");
    }
    RunRecord record = MakeRunRecord(report, label, NowMs());
    record.options_summary = SummarizeOptions(options, has_history);
    if (perf.has_value()) {
      record.metrics.perf_collected = true;
      record.metrics.perf_wall_seconds = perf->wall_seconds;
      record.metrics.perf_critical_path_seconds = perf->critical_path_seconds;
      record.metrics.perf_serial_fraction = perf->serial_fraction;
      record.metrics.perf_utilization = perf->mean_utilization;
      record.metrics.perf_max_busy_seconds = perf->max_busy_seconds;
      record.metrics.perf_mean_busy_seconds = perf->mean_busy_seconds;
      record.metrics.perf_imbalance_ratio = perf->imbalance_ratio;
    }
    std::string error;
    RunLedger ledger(options.ledger_dir);
    std::string run_id = ledger.Append(std::move(record), &error);
    if (run_id.empty()) {
      std::fprintf(stderr, "valuecheck: ledger append failed: %s\n", error.c_str());
      return 2;
    }
    VC_LOG_INFO("recorded run " + run_id + " in " + ledger.LedgerFile());
  }

  // Observability epilogue — all on stderr, so findings on stdout are
  // byte-identical with and without --metrics/--trace.
  if (options.metrics) {
    std::fputs("\n=== pipeline stage metrics ===\n", stderr);
    std::fputs(RenderStageMetricsTable(report).c_str(), stderr);
    std::fputs("\n=== metrics registry ===\n", stderr);
    std::fputs(MetricsRegistry::Global().RenderTable().c_str(), stderr);
  }
  if (!options.metrics_out_path.empty()) {
    std::ofstream prom(options.metrics_out_path, std::ios::trunc | std::ios::binary);
    prom << MetricsRegistry::Global().RenderPrometheus();
    prom.flush();
    if (!prom) {
      std::fprintf(stderr, "valuecheck: cannot write metrics to %s\n",
                   options.metrics_out_path.c_str());
      return 2;
    }
    VC_LOG_INFO("wrote Prometheus metrics to " + options.metrics_out_path);
  }
  if (!options.trace_path.empty() || !options.profile_path.empty()) {
    TraceCollector& collector = TraceCollector::Global();
    collector.Disable();
    if (!options.trace_path.empty() && !collector.WriteJson(options.trace_path)) {
      std::fprintf(stderr, "valuecheck: cannot write trace to %s\n",
                   options.trace_path.c_str());
      return 2;
    }
    if (!options.profile_path.empty() && !WriteCollapsedProfile(options.profile_path)) {
      std::fprintf(stderr, "valuecheck: cannot write profile to %s\n",
                   options.profile_path.c_str());
      return 2;
    }
    VC_LOG_INFO("wrote " + std::to_string(collector.EventCount()) + " trace event(s)");
  }
  if (ShutdownRequested()) {
    return 128 + ShutdownSignal();  // graceful stop — artifacts flushed above
  }
  if (options.strict && report.degraded) {
    return 3;  // quarantine is an error under --strict (see exit-code table)
  }
  return report.findings.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

struct ServeArgs {
  vc::ServerOptions server;
  std::string ledger_dir;
  std::string label = "serve";
  std::string metrics_out_path;
  std::string events_path;
};

void PrintServeUsage(FILE* out) {
  std::fputs(
      "usage: valuecheck serve [--socket PATH | --port N] [options]\n"
      "\n"
      "  --socket=PATH        listen on a Unix-domain socket (stale file replaced)\n"
      "  --port=N             listen on TCP loopback (0 = ephemeral; the resolved\n"
      "                       address is printed on stdout either way)\n"
      "  --max-inflight=N     concurrently executing requests (default 2)\n"
      "  --max-queue=N        queued requests beyond that before shedding with\n"
      "                       RETRY_AFTER (default 8)\n"
      "  --deadline-ms=X      default per-request deadline when a request carries\n"
      "                       none (0 = unlimited)\n"
      "  --idle-timeout=SEC   drop a connection idle mid-frame this long\n"
      "                       (slow-loris guard; default 30)\n"
      "  --history-limit=N    per-project run summaries kept for diff/history\n"
      "                       (default 64)\n"
      "  --jobs=N             worker lanes for requests that don't set jobs\n"
      "  --ledger=DIR         append a serve-session record (request accounting,\n"
      "                       QPS, p50/p95/p99) to the run ledger on drain\n"
      "  --label=NAME         ledger record label (default: serve)\n"
      "  --metrics-out=FILE   dump the vc_serve_* metric family (Prometheus text\n"
      "                       format) after the drain\n"
      "  --events=FILE        stream serve_start/serve_drain/serve_end run events\n"
      "  --allow-debug-sleep  honor the request debug_sleep_ms field (tests only)\n"
      "  --log-level=LEVEL    stderr log verbosity\n"
      "\n"
      "The daemon drains on SIGINT/SIGTERM (or a client `shutdown` request):\n"
      "new work is shed, in-flight requests finish and respond, artifacts are\n"
      "flushed, and the exit status reports whether accounting balanced.\n",
      out);
}

bool ParseServeArgs(const std::vector<std::string>& args, ServeArgs& out) {
  auto bad = [&](const std::string& message) {
    std::fprintf(stderr, "valuecheck serve: %s\n", message.c_str());
    PrintServeUsage(stderr);
    return false;
  };
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      PrintServeUsage(stdout);
      std::exit(0);
    }
    std::string name = arg;
    std::string value;
    bool has_value = false;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    auto need_value = [&]() {
      if (has_value) {
        return true;
      }
      if (i + 1 >= args.size()) {
        return bad(name + " expects a value");
      }
      value = args[++i];
      return true;
    };
    auto parse_nonneg_int = [&](int& into) {
      char* end = nullptr;
      long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < 0) {
        return bad(name + " expects a non-negative integer, got '" + value + "'");
      }
      into = static_cast<int>(parsed);
      return true;
    };
    auto parse_nonneg_double = [&](double& into) {
      char* end = nullptr;
      double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || parsed < 0) {
        return bad(name + " expects a non-negative number, got '" + value + "'");
      }
      into = parsed;
      return true;
    };
    if (name == "--socket") {
      if (!need_value()) return false;
      out.server.socket_path = value;
    } else if (name == "--port") {
      if (!need_value()) return false;
      if (!parse_nonneg_int(out.server.tcp_port)) return false;
    } else if (name == "--max-inflight") {
      if (!need_value()) return false;
      if (!parse_nonneg_int(out.server.max_inflight)) return false;
      if (out.server.max_inflight < 1) {
        return bad("--max-inflight must be at least 1");
      }
    } else if (name == "--max-queue") {
      if (!need_value()) return false;
      if (!parse_nonneg_int(out.server.max_queue)) return false;
    } else if (name == "--deadline-ms") {
      if (!need_value()) return false;
      if (!parse_nonneg_double(out.server.default_deadline_ms)) return false;
    } else if (name == "--idle-timeout") {
      if (!need_value()) return false;
      if (!parse_nonneg_double(out.server.idle_read_timeout_seconds)) return false;
    } else if (name == "--history-limit") {
      if (!need_value()) return false;
      int limit = 0;
      if (!parse_nonneg_int(limit)) return false;
      out.server.history_limit = static_cast<size_t>(limit);
    } else if (name == "--jobs") {
      if (!need_value()) return false;
      if (!parse_nonneg_int(out.server.analysis.jobs)) return false;
    } else if (name == "--ledger") {
      if (!need_value()) return false;
      out.ledger_dir = value;
    } else if (name == "--label") {
      if (!need_value()) return false;
      out.label = value;
    } else if (name == "--metrics-out") {
      if (!need_value()) return false;
      out.metrics_out_path = value;
    } else if (name == "--events") {
      if (!need_value()) return false;
      out.events_path = value;
    } else if (name == "--allow-debug-sleep") {
      out.server.allow_debug_sleep = true;
    } else if (name == "--log-level") {
      if (!need_value()) return false;
      std::optional<vc::LogLevel> level = vc::ParseLogLevel(value);
      if (!level.has_value()) {
        return bad("unknown log level '" + value + "'");
      }
      vc::SetLogLevel(*level);
    } else {
      return bad("unknown option " + arg);
    }
  }
  return true;
}

int RunServeCommand(const std::vector<std::string>& args) {
  using namespace vc;
  ServeArgs parsed;
  if (!ParseServeArgs(args, parsed)) {
    return 2;
  }
  if (!parsed.metrics_out_path.empty()) {
    if (!EnsureParentDir(parsed.metrics_out_path)) {
      return 2;
    }
    MetricsRegistry::Global().Enable();
  }
  if (!parsed.events_path.empty()) {
    if (!EnsureParentDir(parsed.events_path) ||
        !RunEventLog::Global().Open(parsed.events_path)) {
      std::fprintf(stderr, "valuecheck serve: cannot write events to %s\n",
                   parsed.events_path.c_str());
      return 2;
    }
  }
  // The ledger record wants exact request accounting either way; the registry
  // family additionally feeds --metrics-out and scrapes.
  MetricsRegistry::Global().Enable();

  InstallGracefulShutdown();
  AnalysisServer server(parsed.server);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "valuecheck serve: %s\n", error.c_str());
    return 2;
  }
  // The address line is the startup handshake for wrappers (check.sh waits
  // for it; TCP mode resolves the ephemeral port here).
  std::printf("valuecheck: serving on %s (max-inflight=%d, max-queue=%d)\n",
              server.address().c_str(), parsed.server.max_inflight,
              parsed.server.max_queue);
  std::fflush(stdout);

  // Park until a signal or a client `shutdown` request starts the drain.
  while (!ShutdownRequested() && !server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.RequestDrain();
  server.Wait();
  ServeTotals totals = server.totals();

  std::fprintf(stderr,
               "valuecheck serve: drained: %llu request(s) over %llu connection(s) "
               "in %.2fs — %llu ok, %llu degraded, %llu shed, %llu deadline, "
               "%llu failed (%llu protocol error(s)); %llu cached, %llu engine "
               "rebuild(s), %llu project(s); p50 %.1f ms, p99 %.1f ms\n",
               static_cast<unsigned long long>(totals.requests),
               static_cast<unsigned long long>(totals.connections),
               totals.wall_seconds, static_cast<unsigned long long>(totals.succeeded),
               static_cast<unsigned long long>(totals.degraded),
               static_cast<unsigned long long>(totals.shed),
               static_cast<unsigned long long>(totals.deadline),
               static_cast<unsigned long long>(totals.failed),
               static_cast<unsigned long long>(totals.protocol_errors),
               static_cast<unsigned long long>(totals.cached),
               static_cast<unsigned long long>(totals.engine_rebuilds),
               static_cast<unsigned long long>(totals.projects), totals.p50_ms,
               totals.p99_ms);

  bool balanced = totals.requests == totals.Accounted();
  if (!balanced) {
    std::fprintf(stderr,
                 "valuecheck serve: ACCOUNTING IMBALANCE: %llu request(s) but "
                 "outcomes sum to %llu\n",
                 static_cast<unsigned long long>(totals.requests),
                 static_cast<unsigned long long>(totals.Accounted()));
  }

  if (!parsed.ledger_dir.empty()) {
    RunRecord record;
    record.label = parsed.label;
    record.timestamp_ms = NowMs();
    record.jobs = parsed.server.analysis.jobs;
    record.options_summary =
        "serve max-inflight=" + std::to_string(parsed.server.max_inflight) +
        " max-queue=" + std::to_string(parsed.server.max_queue);
    record.metrics.serve_collected = true;
    record.metrics.serve_wall_seconds = totals.wall_seconds;
    record.metrics.serve_clients = static_cast<int64_t>(totals.connections);
    record.metrics.serve_requests = static_cast<int64_t>(totals.requests);
    record.metrics.serve_succeeded = static_cast<int64_t>(totals.succeeded);
    record.metrics.serve_degraded = static_cast<int64_t>(totals.degraded);
    record.metrics.serve_shed = static_cast<int64_t>(totals.shed);
    record.metrics.serve_deadline = static_cast<int64_t>(totals.deadline);
    record.metrics.serve_failed = static_cast<int64_t>(totals.failed);
    record.metrics.serve_qps = totals.wall_seconds > 0.0
                                   ? static_cast<double>(totals.requests) /
                                         totals.wall_seconds
                                   : 0.0;
    record.metrics.serve_p50_ms = totals.p50_ms;
    record.metrics.serve_p95_ms = totals.p95_ms;
    record.metrics.serve_p99_ms = totals.p99_ms;
    std::string append_error;
    RunLedger ledger(parsed.ledger_dir);
    std::string run_id = ledger.Append(std::move(record), &append_error);
    if (run_id.empty()) {
      std::fprintf(stderr, "valuecheck serve: ledger append failed: %s\n",
                   append_error.c_str());
      return 2;
    }
    VC_LOG_INFO("recorded serve session " + run_id + " in " + ledger.LedgerFile());
  }
  if (!parsed.metrics_out_path.empty()) {
    std::ofstream prom(parsed.metrics_out_path, std::ios::trunc | std::ios::binary);
    prom << MetricsRegistry::Global().RenderPrometheus();
    prom.flush();
    if (!prom) {
      std::fprintf(stderr, "valuecheck serve: cannot write metrics to %s\n",
                   parsed.metrics_out_path.c_str());
      return 2;
    }
  }
  if (RunEventsEnabled()) {
    RunEventLog::Global().Close();
  }
  return balanced ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Shared flag scanning for the ledger subcommands (small enough that the
// table machinery above would be overhead).
// ---------------------------------------------------------------------------

struct LedgerArgs {
  std::string ledger_dir = ".vc-ledger";
  std::vector<std::string> positionals;
  // diff
  bool check = false;
  bool timings = false;
  std::string format = "text";
  vc::RegressionThresholds thresholds;
  // history
  int limit = -1;
  int compact = -1;
  // report
  std::string html_path;
};

// Parses "--name=value" / "--name value" / boolean flags from a spec of
// recognized names. Returns false on an unknown flag or missing value.
bool ParseLedgerArgs(const std::string& subcommand, const std::vector<std::string>& args,
                     LedgerArgs& out) {
  auto bad = [&](const std::string& message) {
    std::fprintf(stderr, "valuecheck %s: %s\n", subcommand.c_str(), message.c_str());
    PrintUsage(stderr);
    return false;
  };
  auto parse_double = [&](const std::string& name, const std::string& value, double& into) {
    char* end = nullptr;
    double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || parsed < 0) {
      return bad(name + " expects a non-negative number, got '" + value + "'");
    }
    into = parsed;
    return true;
  };
  auto parse_int = [&](const std::string& name, const std::string& value, int& into) {
    char* end = nullptr;
    long parsed = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || parsed < 0) {
      return bad(name + " expects a non-negative integer, got '" + value + "'");
    }
    into = static_cast<int>(parsed);
    return true;
  };

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0 || arg == "--") {
      if (arg != "--") {
        out.positionals.push_back(arg);
      }
      continue;
    }
    std::string name = arg;
    std::string value;
    bool has_value = false;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    auto need_value = [&]() {
      if (has_value) {
        return true;
      }
      if (i + 1 >= args.size()) {
        return bad(name + " expects a value");
      }
      value = args[++i];
      return true;
    };
    if (name == "--ledger") {
      if (!need_value()) return false;
      out.ledger_dir = value;
    } else if (name == "--check" && subcommand == "diff") {
      out.check = true;
    } else if (name == "--timings" && subcommand == "diff") {
      out.timings = true;
    } else if (name == "--format" && subcommand == "diff") {
      if (!need_value()) return false;
      if (value != "text" && value != "json") {
        return bad("unknown format '" + value + "' (expected text, json)");
      }
      out.format = value;
    } else if (name == "--max-new" && subcommand == "diff") {
      if (!need_value()) return false;
      if (!parse_int(name, value, out.thresholds.max_new_findings)) return false;
    } else if (name == "--stage-ratio" && subcommand == "diff") {
      if (!need_value()) return false;
      if (!parse_double(name, value, out.thresholds.stage_ratio)) return false;
    } else if (name == "--stage-floor" && subcommand == "diff") {
      if (!need_value()) return false;
      if (!parse_double(name, value, out.thresholds.stage_floor_seconds)) return false;
    } else if (name == "--prune-drop" && subcommand == "diff") {
      if (!need_value()) return false;
      if (!parse_double(name, value, out.thresholds.prune_rate_drop)) return false;
    } else if (name == "--limit" && subcommand == "history") {
      if (!need_value()) return false;
      if (!parse_int(name, value, out.limit)) return false;
    } else if (name == "--compact" && subcommand == "history") {
      if (!need_value()) return false;
      if (!parse_int(name, value, out.compact)) return false;
    } else if (name == "--html" && subcommand == "report") {
      if (!need_value()) return false;
      out.html_path = value;
    } else {
      return bad("unknown option " + arg);
    }
  }
  return true;
}

int RunDiffCommand(const std::vector<std::string>& args) {
  using namespace vc;
  LedgerArgs parsed;
  if (!ParseLedgerArgs("diff", args, parsed)) {
    return 2;
  }
  if (parsed.positionals.size() != 0 && parsed.positionals.size() != 2) {
    std::fprintf(stderr, "valuecheck diff: expected zero or two run selectors, got %zu\n",
                 parsed.positionals.size());
    return 2;
  }
  std::string sel_a = parsed.positionals.empty() ? "prev" : parsed.positionals[0];
  std::string sel_b = parsed.positionals.empty() ? "latest" : parsed.positionals[1];

  RunLedger ledger(parsed.ledger_dir);
  std::string error;
  std::optional<RunRecord> run_a = ledger.Find(sel_a, &error);
  if (!run_a.has_value()) {
    std::fprintf(stderr, "valuecheck diff: %s\n", error.c_str());
    return 2;
  }
  std::optional<RunRecord> run_b = ledger.Find(sel_b, &error);
  if (!run_b.has_value()) {
    std::fprintf(stderr, "valuecheck diff: %s\n", error.c_str());
    return 2;
  }

  RunDiff diff = ComputeRunDiff(*run_a, *run_b, parsed.thresholds);
  if (parsed.format == "json") {
    std::printf("%s\n", DiffToJson(diff).c_str());
  } else {
    std::fputs(RenderDiffText(diff, parsed.timings).c_str(), stdout);
  }
  if (parsed.check) {
    if (diff.HasRegressions()) {
      std::printf("check: FAILED (%zu regression(s))\n", diff.regressions.size());
      return 1;
    }
    std::printf("check: PASSED\n");
  }
  return 0;
}

int RunHistoryCommand(const std::vector<std::string>& args) {
  using namespace vc;
  LedgerArgs parsed;
  if (!ParseLedgerArgs("history", args, parsed)) {
    return 2;
  }
  if (!parsed.positionals.empty()) {
    std::fprintf(stderr, "valuecheck history: unexpected argument '%s'\n",
                 parsed.positionals[0].c_str());
    return 2;
  }
  RunLedger ledger(parsed.ledger_dir);
  std::string error;
  if (parsed.compact >= 0) {
    int dropped = ledger.Compact(parsed.compact, &error);
    if (dropped < 0) {
      std::fprintf(stderr, "valuecheck history: compact failed: %s\n", error.c_str());
      return 2;
    }
    std::printf("compacted: dropped %d run(s), kept newest %d\n", dropped, parsed.compact);
  }
  int skipped = 0;
  std::optional<std::vector<RunRecord>> runs = ledger.Load(&error, &skipped);
  if (!runs.has_value()) {
    std::fprintf(stderr, "valuecheck history: %s\n", error.c_str());
    return 2;
  }
  if (skipped > 0) {
    std::fprintf(stderr, "valuecheck history: skipped %d unparsable ledger line(s)\n", skipped);
  }
  if (runs->empty()) {
    std::printf("ledger %s: no runs recorded\n", ledger.LedgerFile().c_str());
    return 0;
  }
  TableWriter table({"run", "timestamp (UTC)", "label", "jobs", "findings", "analysis_s",
                     "options"});
  size_t first = 0;
  if (parsed.limit >= 0 && runs->size() > static_cast<size_t>(parsed.limit)) {
    first = runs->size() - static_cast<size_t>(parsed.limit);
  }
  for (size_t i = first; i < runs->size(); ++i) {
    const RunRecord& run = (*runs)[i];
    table.AddRow({run.run_id, FormatTimestamp(run.timestamp_ms), run.label,
                  std::to_string(run.jobs), std::to_string(run.findings.size()),
                  FormatDouble(run.metrics.analysis_seconds, 3), run.options_summary});
  }
  std::fputs(table.RenderText().c_str(), stdout);
  return 0;
}

int RunReportCommand(const std::vector<std::string>& args) {
  using namespace vc;
  LedgerArgs parsed;
  if (!ParseLedgerArgs("report", args, parsed)) {
    return 2;
  }
  if (parsed.html_path.empty()) {
    std::fprintf(stderr, "valuecheck report: --html FILE is required\n");
    return 2;
  }
  RunLedger ledger(parsed.ledger_dir);
  std::string error;
  std::optional<std::vector<RunRecord>> runs = ledger.Load(&error);
  if (!runs.has_value()) {
    std::fprintf(stderr, "valuecheck report: %s\n", error.c_str());
    return 2;
  }
  if (!EnsureParentDir(parsed.html_path)) {
    return 2;
  }
  std::ofstream out(parsed.html_path, std::ios::trunc | std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "valuecheck report: cannot write %s\n", parsed.html_path.c_str());
    return 2;
  }
  out << RenderHtmlDashboard(*runs);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "valuecheck report: write to %s failed\n", parsed.html_path.c_str());
    return 2;
  }
  std::printf("wrote dashboard for %zu run(s) to %s\n", runs->size(), parsed.html_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string subcommand = "analyze";
  if (!args.empty() &&
      (args[0] == "analyze" || args[0] == "diff" || args[0] == "history" ||
       args[0] == "report" || args[0] == "serve")) {
    subcommand = args[0];
    args.erase(args.begin());
  }
  if (subcommand == "serve") {
    return RunServeCommand(args);
  }
  if (subcommand == "diff") {
    return RunDiffCommand(args);
  }
  if (subcommand == "history") {
    return RunHistoryCommand(args);
  }
  if (subcommand == "report") {
    return RunReportCommand(args);
  }
  return RunAnalyze(args);
}
