// Integration tests for the `valuecheck` CLI binary: runs the real executable
// (path injected by CMake) against fixtures written to a temp directory and
// checks exit codes and output.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#ifndef VALUECHECK_CLI_PATH
#define VALUECHECK_CLI_PATH "valuecheck"
#endif

namespace vc {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunCommand(const std::string& command) {
  std::array<char, 4096> buffer;
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

RunResult RunCli(const std::string& args) {
  return RunCommand(std::string(VALUECHECK_CLI_PATH) + " " + args + " 2>&1");
}

// stdout only — used by the determinism checks, where stderr deliberately
// differs (metrics table, logs) but findings must be byte-identical.
RunResult RunCliStdout(const std::string& args) {
  return RunCommand(std::string(VALUECHECK_CLI_PATH) + " " + args + " 2>/dev/null");
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vc_cli_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Write(const std::string& name, const std::string& content) {
    std::filesystem::path path = dir_ / name;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path);
    out << content;
    return path.string();
  }

  std::filesystem::path dir_;
};

constexpr const char* kBuggy =
    "int get_status(int entry) {\n"
    "  return entry + 1;\n"
    "}\n"
    "int handle(int entry, int mode) {\n"
    "  int ret = get_status(entry);\n"
    "  ret = mode * 2;\n"
    "  if (ret) {\n"
    "    return 0;\n"
    "  }\n"
    "  return 1;\n"
    "}\n";

constexpr const char* kClean =
    "int add(int a, int b) {\n"
    "  int s = a + b;\n"
    "  return s;\n"
    "}\n";

TEST_F(CliTest, CleanFileExitsZero) {
  std::string path = Write("clean.c", kClean);
  RunResult result = RunCli(path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("0 unused definition(s)"), std::string::npos);
}

TEST_F(CliTest, FindingExitsOneWithWarning) {
  std::string path = Write("buggy.c", kBuggy);
  RunResult result = RunCli(path);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("buggy.c:5: warning:"), std::string::npos);
  EXPECT_NE(result.output.find("'ret' is overwritten before use"), std::string::npos);
}

// Every finding's text line carries a message, including the kinds of the
// checkers beyond unused-def, which name their checker and slot.
TEST_F(CliTest, EveryCheckerFindingHasAMessage) {
  std::string path = Write("stores.c",
                           "int g_count;\n"
                           "int fill(int *out);\n"
                           "int work(int a) {\n"
                           "  g_count = a;\n"
                           "  g_count = a + 2;\n"
                           "  return a;\n"
                           "}\n"
                           "int user(void) {\n"
                           "  int v;\n"
                           "  fill(&v);\n"
                           "  return 0;\n"
                           "}\n");
  RunResult result = RunCli(path);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("stores.c:4: warning: dead-global-store: 'g_count'"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("stores.c:10: warning: out-param-unused: 'v'"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("warning:  ["), std::string::npos) << result.output;
}

TEST_F(CliTest, DirectoryModeScansRecursively) {
  Write("sub/buggy.c", kBuggy);
  Write("clean.c", kClean);
  Write("ignored.txt", "not c code {{{");
  RunResult result = RunCli(dir_.string());
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("1 unused definition(s)"), std::string::npos);
}

TEST_F(CliTest, JsonFormat) {
  std::string path = Write("buggy.c", kBuggy);
  RunResult result = RunCli(path + " --format=json");
  EXPECT_NE(result.output.find("\"variable\":\"ret\""), std::string::npos);
  EXPECT_NE(result.output.find("\"value_from_call\":\"get_status\""), std::string::npos);
}

TEST_F(CliTest, SarifFormat) {
  std::string path = Write("buggy.c", kBuggy);
  RunResult result = RunCli(path + " --format=sarif");
  EXPECT_NE(result.output.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(result.output.find("\"startLine\":5"), std::string::npos);
}

TEST_F(CliTest, DefineFlagControlsConfig) {
  std::string code =
      "int mk(int);\n"
      "int f(int x) {\n"
      "  int host = mk(x);\n"
      "  int n = 1;\n"
      "#if USE_ICMP\n"
      "  n = host;\n"
      "#endif\n"
      "  return n;\n"
      "}\n";
  std::string path = Write("cfg.c", code);
  // Feature off: the candidate is config-pruned -> exit 0.
  RunResult off = RunCli(path);
  EXPECT_EQ(off.exit_code, 0) << off.output;
  EXPECT_NE(off.output.find("1 config"), std::string::npos);
  // With config pruning disabled, the finding depends on the configuration:
  // feature off leaves 'host' dead, feature on leaves the 'n = 1' initializer
  // dead (the guarded line both uses host and overwrites n).
  RunResult off_noprune = RunCli(path + " --no-prune-config");
  EXPECT_EQ(off_noprune.exit_code, 1) << off_noprune.output;
  EXPECT_NE(off_noprune.output.find("'host'"), std::string::npos);
  RunResult on_noprune = RunCli(path + " --define=USE_ICMP --no-prune-config");
  EXPECT_EQ(on_noprune.exit_code, 1) << on_noprune.output;
  EXPECT_NE(on_noprune.output.find("'n'"), std::string::npos);
}

TEST_F(CliTest, HistoryModeRanksAndAttributes) {
  std::string hist =
      "commit\nauthor alice\ntime 1000\nmessage add handler\nwrite h.c\n<<<\n"
      "int get_status(int entry) {\n"
      "  return entry + 1;\n"
      "}\n"
      "int handle(int entry, int mode) {\n"
      "  int ret = get_status(entry);\n"
      "  if (ret) {\n"
      "    return 0;\n"
      "  }\n"
      "  return mode;\n"
      "}\n"
      ">>>\nend\n"
      "commit\nauthor bob\ntime 2000\nmessage recompute\nwrite h.c\n<<<\n"
      "int get_status(int entry) {\n"
      "  return entry + 1;\n"
      "}\n"
      "int handle(int entry, int mode) {\n"
      "  int ret = get_status(entry);\n"
      "  ret = mode * 2;\n"
      "  if (ret) {\n"
      "    return 0;\n"
      "  }\n"
      "  return mode;\n"
      "}\n"
      ">>>\nend\n";
  std::string path = Write("proj.vchist", hist);
  RunResult result = RunCli("--history=" + path);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("introduced by bob"), std::string::npos);
  EXPECT_NE(result.output.find("familiarity"), std::string::npos);
}

TEST_F(CliTest, BadHistoryReportsError) {
  std::string path = Write("bad.vchist", "not a history\n");
  RunResult result = RunCli("--history=" + path);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("line 1"), std::string::npos);
}

TEST_F(CliTest, UnknownFlagFails) {
  RunResult result = RunCli("--bogus");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown option"), std::string::npos);
}

TEST_F(CliTest, ParseErrorExitsTwo) {
  std::string path = Write("broken.c", "int f( {{{\n");
  RunResult result = RunCli(path);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("error"), std::string::npos);
}

TEST_F(CliTest, TraceFlagWritesWellFormedChromeTrace) {
  Write("sub/buggy.c", kBuggy);
  Write("clean.c", kClean);
  std::string trace_path = (dir_ / "trace.json").string();
  RunResult result =
      RunCli("--trace=" + trace_path + " --metrics --jobs=0 " + dir_.string());
  EXPECT_EQ(result.exit_code, 1) << result.output;

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << "trace file not written: " << trace_path;
  std::string trace((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  // Chrome trace-event envelope with complete ("X") events carrying
  // timestamps, durations, and thread ids.
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u) << trace.substr(0, 120);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ts\":"), std::string::npos);
  EXPECT_NE(trace.find("\"dur\":"), std::string::npos);
  EXPECT_NE(trace.find("\"tid\":"), std::string::npos);
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Spans from every pipeline layer made it into the export.
  EXPECT_NE(trace.find("\"analysis.run\""), std::string::npos);
  EXPECT_NE(trace.find("\"parse_lower\""), std::string::npos);
  EXPECT_NE(trace.find("\"detect_fn\""), std::string::npos);
  EXPECT_NE(trace.find("\"prune.match\""), std::string::npos);
  // The outer rank span always fires; rank.score only when ranking is
  // enabled, which needs history (authorship) — not the case here.
  EXPECT_NE(trace.find("\"rank\""), std::string::npos);
}

TEST_F(CliTest, MetricsFlagPrintsStageTable) {
  Write("buggy.c", kBuggy);
  RunResult result = RunCli("--metrics " + dir_.string());
  EXPECT_EQ(result.exit_code, 1) << result.output;
  // The stage table covers every pipeline phase, including per-pattern prune
  // rows, and the registry table lists the hot-path counters.
  EXPECT_NE(result.output.find("pipeline stage metrics"), std::string::npos);
  EXPECT_NE(result.output.find("parse"), std::string::npos);
  EXPECT_NE(result.output.find("detect"), std::string::npos);
  EXPECT_NE(result.output.find("prune:cursor"), std::string::npos);
  EXPECT_NE(result.output.find("rank"), std::string::npos);
  EXPECT_NE(result.output.find("thread-pool"), std::string::npos);
  EXPECT_NE(result.output.find("metrics registry"), std::string::npos);
  EXPECT_NE(result.output.find("detect.functions"), std::string::npos);
}

TEST_F(CliTest, ObservabilityDoesNotChangeFindings) {
  Write("sub/buggy.c", kBuggy);
  Write("clean.c", kClean);
  std::string trace_path = (dir_ / "trace.json").string();
  for (const char* format : {"text", "json", "csv"}) {
    std::string fmt = std::string(" --format=") + format + " " + dir_.string();
    RunResult plain = RunCliStdout(fmt);
    RunResult observed = RunCliStdout("--metrics --trace=" + trace_path +
                                      " --log-level=debug --jobs=2" + fmt);
    EXPECT_EQ(plain.exit_code, observed.exit_code) << format;
    if (std::string(format) == "json") {
      // The JSON report legitimately gains the metrics + memory blocks;
      // the findings array (not the checker_stats "findings" counts, hence
      // the "[" anchor) must agree byte for byte.
      EXPECT_NE(observed.output.find("\"metrics\":"), std::string::npos);
      size_t plain_findings = plain.output.find("\"findings\":[");
      size_t observed_findings = observed.output.find("\"findings\":[");
      ASSERT_NE(plain_findings, std::string::npos);
      ASSERT_NE(observed_findings, std::string::npos);
      EXPECT_EQ(plain.output.substr(plain_findings),
                observed.output.substr(observed_findings));
    } else {
      EXPECT_EQ(plain.output, observed.output) << format;
    }
  }
}

TEST_F(CliTest, BadFormatValueRejectedWithUsage) {
  std::string path = Write("clean.c", kClean);
  RunResult result = RunCli("--format=yaml " + path);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown format 'yaml'"), std::string::npos);
  EXPECT_NE(result.output.find("usage: valuecheck"), std::string::npos);
}

TEST_F(CliTest, BadLogLevelRejectedWithUsage) {
  std::string path = Write("clean.c", kClean);
  RunResult result = RunCli("--log-level=chatty " + path);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown log level 'chatty'"), std::string::npos);
  EXPECT_NE(result.output.find("usage: valuecheck"), std::string::npos);
}

TEST_F(CliTest, JsonReportCarriesDiagnosticsBlock) {
  std::string path = Write("buggy.c", kBuggy);
  RunResult result = RunCli(path + " --format=json");
  EXPECT_NE(result.output.find("\"schema_version\":11"), std::string::npos);
  EXPECT_NE(result.output.find("\"diagnostics\":{\"warnings\":"), std::string::npos);
}

TEST_F(CliTest, JsonFindingsCarryFingerprints) {
  std::string path = Write("buggy.c", kBuggy);
  RunResult result = RunCli(path + " --format=json");
  EXPECT_NE(result.output.find("\"fingerprint\":\""), std::string::npos);
  RunResult sarif = RunCli(path + " --format=sarif");
  EXPECT_NE(sarif.output.find("\"valueCheckFingerprint/v1\":\""), std::string::npos);
}

TEST_F(CliTest, DashDashTreatsFollowingArgsAsInputs) {
  // A file literally named like a flag must be analyzable after `--`.
  std::string path = Write("--metrics.c", kClean);
  RunResult result = RunCli("-- " + path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("0 unused definition(s)"), std::string::npos);
}

TEST_F(CliTest, TraceCreatesParentDirectories) {
  std::string path = Write("buggy.c", kBuggy);
  std::string trace_path = (dir_ / "nested" / "deep" / "trace.json").string();
  RunResult result = RunCli("--trace=" + trace_path + " " + path);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  std::ifstream in(trace_path);
  EXPECT_TRUE(in.good()) << "trace not written under created parents: " << trace_path;
}

TEST_F(CliTest, LedgerSelfDiffIsCleanAndCheckPasses) {
  std::string path = Write("buggy.c", kBuggy);
  std::string ledger = (dir_ / "ledger").string();
  // Two identical runs; findings exist, so analyze exits 1 both times.
  EXPECT_EQ(RunCli("analyze --ledger=" + ledger + " " + path).exit_code, 1);
  EXPECT_EQ(RunCli("analyze --ledger=" + ledger + " " + path).exit_code, 1);
  RunResult diff = RunCli("diff --ledger=" + ledger + " --check");
  EXPECT_EQ(diff.exit_code, 0) << diff.output;
  EXPECT_NE(diff.output.find("0 new, 0 fixed, 1 persistent"), std::string::npos);
  EXPECT_NE(diff.output.find("check: PASSED"), std::string::npos);
}

TEST_F(CliTest, LedgerDiffFlagsNewFindingAndFailsCheck) {
  std::string path = Write("evolving.c", kBuggy);
  std::string ledger = (dir_ / "ledger").string();
  EXPECT_EQ(RunCli("analyze --ledger=" + ledger + " " + path).exit_code, 1);
  // Introduce a second unused definition in a new function.
  Write("evolving.c", std::string(kBuggy) +
                          "int extra(int entry, int mode) {\n"
                          "  int val = get_status(entry);\n"
                          "  val = mode + 3;\n"
                          "  return val;\n"
                          "}\n");
  EXPECT_EQ(RunCli("analyze --ledger=" + ledger + " " + path).exit_code, 1);
  RunResult diff = RunCli("diff --ledger=" + ledger + " --check");
  EXPECT_EQ(diff.exit_code, 1) << diff.output;
  EXPECT_NE(diff.output.find("1 new, 0 fixed, 1 persistent"), std::string::npos);
  EXPECT_NE(diff.output.find("check: FAILED"), std::string::npos);
  EXPECT_NE(diff.output.find("extra(): val"), std::string::npos);
}

TEST_F(CliTest, LedgerDiffFlagsFixedFinding) {
  std::string path = Write("evolving.c", kBuggy);
  std::string ledger = (dir_ / "ledger").string();
  EXPECT_EQ(RunCli("analyze --ledger=" + ledger + " " + path).exit_code, 1);
  Write("evolving.c", kClean);
  EXPECT_EQ(RunCli("analyze --ledger=" + ledger + " " + path).exit_code, 0);
  RunResult diff = RunCli("diff --ledger=" + ledger + " --check");
  EXPECT_EQ(diff.exit_code, 0) << diff.output;  // fixes don't fail the gate
  EXPECT_NE(diff.output.find("0 new, 1 fixed, 0 persistent"), std::string::npos);
}

TEST_F(CliTest, DiffOutputByteIdenticalAcrossJobs) {
  Write("sub/buggy.c", kBuggy);
  Write("clean.c", kClean);
  std::string serial = (dir_ / "ledger_j1").string();
  std::string parallel = (dir_ / "ledger_j8").string();
  for (int i = 0; i < 2; ++i) {
    RunCli("analyze --ledger=" + serial + " --jobs=1 " + dir_.string());
    RunCli("analyze --ledger=" + parallel + " --jobs=8 " + dir_.string());
  }
  RunResult diff_serial = RunCliStdout("diff --ledger=" + serial);
  RunResult diff_parallel = RunCliStdout("diff --ledger=" + parallel);
  EXPECT_EQ(diff_serial.exit_code, 0);
  EXPECT_EQ(diff_serial.output, diff_parallel.output);
}

TEST_F(CliTest, HistoryListsRunsAndHonorsLimit) {
  std::string path = Write("buggy.c", kBuggy);
  std::string ledger = (dir_ / "ledger").string();
  RunCli("analyze --ledger=" + ledger + " --label=first " + path);
  RunCli("analyze --ledger=" + ledger + " --label=second " + path);
  RunResult history = RunCli("history --ledger=" + ledger);
  EXPECT_EQ(history.exit_code, 0) << history.output;
  EXPECT_NE(history.output.find("r0001"), std::string::npos);
  EXPECT_NE(history.output.find("r0002"), std::string::npos);
  EXPECT_NE(history.output.find("first"), std::string::npos);
  EXPECT_NE(history.output.find("second"), std::string::npos);
  RunResult limited = RunCli("history --ledger=" + ledger + " --limit=1");
  EXPECT_EQ(limited.output.find("r0001"), std::string::npos) << limited.output;
  EXPECT_NE(limited.output.find("r0002"), std::string::npos);
}

TEST_F(CliTest, ReportHtmlRendersTrendDashboard) {
  std::string path = Write("buggy.c", kBuggy);
  std::string ledger = (dir_ / "ledger").string();
  RunCli("analyze --ledger=" + ledger + " " + path);
  RunCli("analyze --ledger=" + ledger + " " + path);
  std::string html_path = (dir_ / "dash" / "index.html").string();
  RunResult report = RunCli("report --ledger=" + ledger + " --html=" + html_path);
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("2 run(s)"), std::string::npos);
  std::ifstream in(html_path);
  ASSERT_TRUE(in.good()) << "dashboard not written: " << html_path;
  std::string html((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(html.find("<svg"), std::string::npos) << "no trend sparkline";
  EXPECT_NE(html.find("valuecheck run ledger"), std::string::npos);
  EXPECT_NE(html.find("r0002"), std::string::npos);
}

TEST_F(CliTest, ObservabilityFlagsProduceArtifactsWithoutPerturbingFindings) {
  Write("sub/buggy.c", kBuggy);
  Write("clean.c", kClean);
  std::string events_path = (dir_ / "obs" / "events.jsonl").string();
  std::string profile_path = (dir_ / "obs" / "profile.folded").string();
  std::string prom_path = (dir_ / "obs" / "metrics.prom").string();

  RunResult plain = RunCliStdout("--format=json --jobs=2 " + dir_.string());
  RunResult observed = RunCliStdout(
      "--format=json --jobs=2 --progress --events=" + events_path +
      " --profile=" + profile_path + " --metrics-out=" + prom_path + " " + dir_.string());
  EXPECT_EQ(plain.exit_code, observed.exit_code);
  // --metrics-out implies metrics collection, so the JSON gains the metrics
  // and memory blocks; the findings tail must be byte-identical.
  EXPECT_NE(observed.output.find("\"memory\":{"), std::string::npos);
  EXPECT_NE(observed.output.find("\"tracked_bytes\":"), std::string::npos);
  size_t plain_findings = plain.output.find("\"findings\":[");
  size_t observed_findings = observed.output.find("\"findings\":[");
  ASSERT_NE(plain_findings, std::string::npos);
  ASSERT_NE(observed_findings, std::string::npos);
  EXPECT_EQ(plain.output.substr(plain_findings), observed.output.substr(observed_findings));

  // Events stream: JSONL bracketed by run_start/run_end, with per-file stages.
  std::ifstream events_in(events_path);
  ASSERT_TRUE(events_in.good()) << "events not written: " << events_path;
  std::string events((std::istreambuf_iterator<char>(events_in)),
                     std::istreambuf_iterator<char>());
  EXPECT_EQ(events.rfind("{\"event\":\"run_start\",\"seq\":0,", 0), 0u)
      << events.substr(0, 120);
  EXPECT_NE(events.find("\"event\":\"stage_end\""), std::string::npos);
  EXPECT_NE(events.find("\"event\":\"checker_done\""), std::string::npos);
  EXPECT_NE(events.find("\"event\":\"run_end\""), std::string::npos);
  EXPECT_NE(events.find("\"findings\":"), std::string::npos);

  // Collapsed profile: non-empty, every line "frame[;frame...] weight".
  std::ifstream profile_in(profile_path);
  ASSERT_TRUE(profile_in.good()) << "profile not written: " << profile_path;
  std::string line;
  int profile_lines = 0;
  while (std::getline(profile_in, line)) {
    ++profile_lines;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
  }
  EXPECT_GT(profile_lines, 0);

  // Prometheus dump: typed vc_-prefixed families incl. the mem gauges.
  std::ifstream prom_in(prom_path);
  ASSERT_TRUE(prom_in.good()) << "metrics not written: " << prom_path;
  std::string prom((std::istreambuf_iterator<char>(prom_in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(prom.find("# TYPE vc_detect_functions_total counter"), std::string::npos);
  EXPECT_NE(prom.find("vc_mem_tracked_bytes"), std::string::npos);
  EXPECT_NE(prom.find("_bucket{le="), std::string::npos);
}

TEST_F(CliTest, PerfReportWritesAnalyticsWithoutPerturbingFindings) {
  Write("sub/buggy.c", kBuggy);
  Write("clean.c", kClean);
  std::string perf_path = (dir_ / "obs" / "perf.json").string();

  RunResult plain = RunCliStdout("--format=csv --jobs=2 " + dir_.string());
  RunResult observed = RunCliStdout("--format=csv --jobs=2 --perf-report=" +
                                    perf_path + " " + dir_.string());
  EXPECT_EQ(plain.exit_code, observed.exit_code);
  EXPECT_EQ(plain.output, observed.output);

  std::ifstream in(perf_path);
  ASSERT_TRUE(in.good()) << "perf report not written: " << perf_path;
  std::string perf((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Stable field order from the first byte; vc_obs_lint perf checks the rest.
  EXPECT_EQ(perf.rfind("{\"schema_version\":2,\"wall_seconds\":", 0), 0u)
      << perf.substr(0, 120);
  for (const char* key :
       {"\"serial_fraction\":", "\"workers\":[", "\"utilization\":", "\"timeline\":[",
        "\"mean_utilization\":", "\"imbalance\":{", "\"steals\":{",
        "\"latency_ns_log2\":["}) {
    EXPECT_NE(perf.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(perf.find("critical_path"), std::string::npos);
}

// A batch run destroys its project, which records the `teardown` span and
// lanes, before the spans are analyzed, so the report's wall must cover that
// too: no worker's span window (busy + idle) may outlast it.
TEST_F(CliTest, BatchPerfReportWallCoversTheTeardown) {
  for (int file = 0; file < 12; ++file) {
    Write("src/f" + std::to_string(file) + ".c", kBuggy);
  }
  for (const char* jobs : {"1", "4"}) {
    std::string perf_path = (dir_ / ("perf_" + std::string(jobs) + ".json")).string();
    RunResult result = RunCli("analyze --jobs=" + std::string(jobs) + " --perf-report=" +
                              perf_path + " " + (dir_ / "src").string());
    EXPECT_LT(result.exit_code, 2) << result.output;
    std::ifstream perf_in(perf_path);
    ASSERT_TRUE(perf_in.good()) << "perf report not written: " << perf_path;
    std::string perf((std::istreambuf_iterator<char>(perf_in)),
                     std::istreambuf_iterator<char>());
    auto number_after = [&perf](const std::string& key, size_t from) {
      size_t at = perf.find("\"" + key + "\":", from);
      EXPECT_NE(at, std::string::npos) << key;
      return at == std::string::npos ? 0.0 : std::stod(perf.substr(at + key.size() + 3));
    };
    const double wall = number_after("wall_seconds", 0);
    int workers = 0;
    for (size_t at = perf.find("\"busy_seconds\":"); at != std::string::npos;
         at = perf.find("\"busy_seconds\":", at + 1)) {
      const double window = number_after("busy_seconds", at) + number_after("idle_seconds", at);
      // 10 us of timestamp rounding, and the JSON's six significant digits.
      EXPECT_GE(wall, window - (10e-6 + 1e-5 * window)) << "jobs " << jobs;
      ++workers;
    }
    EXPECT_GE(workers, 1) << "jobs " << jobs;
  }
}

TEST_F(CliTest, IncrementalPerfReportWallCoversTheWholeReplay) {
  std::string hist;
  for (int commit = 0; commit < 4; ++commit) {
    hist += "commit\nauthor dev" + std::to_string(commit % 2) + "\ntime " +
            std::to_string(1000 * (commit + 1)) + "\nmessage step\nwrite f" +
            std::to_string(commit) + ".c\n<<<\n" + kBuggy + ">>>\nend\n";
  }
  std::string history = Write("replay.vchist", hist);
  std::string trace_path = (dir_ / "trace.json").string();
  std::string perf_path = (dir_ / "perf.json").string();
  RunResult result = RunCli("analyze --history=" + history + " --incremental --jobs=2 --trace=" +
                            trace_path + " --perf-report=" + perf_path);
  EXPECT_EQ(result.exit_code, 1) << result.output;

  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good()) << "trace not written: " << trace_path;
  std::string trace((std::istreambuf_iterator<char>(trace_in)),
                    std::istreambuf_iterator<char>());
  long long commit_micros = 0;
  int commits = 0;
  for (size_t at = trace.find("\"name\":\"incremental.commit\""); at != std::string::npos;
       at = trace.find("\"name\":\"incremental.commit\"", at + 1)) {
    size_t dur = trace.find("\"dur\":", at);
    ASSERT_NE(dur, std::string::npos);
    commit_micros += std::stoll(trace.substr(dur + 6));
    ++commits;
  }
  EXPECT_EQ(commits, 4);

  std::ifstream perf_in(perf_path);
  ASSERT_TRUE(perf_in.good()) << "perf report not written: " << perf_path;
  std::string perf((std::istreambuf_iterator<char>(perf_in)),
                   std::istreambuf_iterator<char>());
  size_t wall = perf.find("\"wall_seconds\":");
  ASSERT_NE(wall, std::string::npos);
  // The trace covers every commit of the replay, not just the head's report
  // (the tolerance covers the JSON's six significant digits).
  EXPECT_GE(std::stod(perf.substr(wall + 15)) * 1e6 * (1 + 1e-5),
            static_cast<double>(commit_micros));
}

TEST_F(CliTest, DashboardRendersPerCheckerAndMemoryTrends) {
  std::string path = Write("buggy.c", kBuggy);
  std::string ledger = (dir_ / "ledger").string();
  // Three ledger runs (--ledger implies metrics, hence memory accounting).
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(RunCli("analyze --ledger=" + ledger + " " + path).exit_code, 1);
  }
  std::string html_path = (dir_ / "dashboard.html").string();
  RunResult report = RunCli("report --ledger=" + ledger + " --html=" + html_path);
  EXPECT_EQ(report.exit_code, 0) << report.output;
  std::ifstream in(html_path);
  ASSERT_TRUE(in.good());
  std::string html((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(html.find("Per-checker trends"), std::string::npos);
  EXPECT_NE(html.find("unused-def findings"), std::string::npos);
  EXPECT_NE(html.find("precision % (findings/candidates)"), std::string::npos);
  EXPECT_NE(html.find("Memory (3 run(s) with accounting)"), std::string::npos);
  EXPECT_NE(html.find("tracked MB (exact)"), std::string::npos);
  EXPECT_NE(html.find("peak RSS MB (sampled)"), std::string::npos);
}

TEST_F(CliTest, DiffOnMissingLedgerExitsTwo) {
  RunResult result = RunCli("diff --ledger=" + (dir_ / "nope").string());
  EXPECT_EQ(result.exit_code, 2);
}

TEST_F(CliTest, TopLimitsTextOutput) {
  std::string code;
  for (int i = 0; i < 5; ++i) {
    code += "int g" + std::to_string(i) + "(int);\n";
    code += "int f" + std::to_string(i) + "(int x) {\n";
    code += "  int r" + std::to_string(i) + " = g" + std::to_string(i) + "(x);\n";
    code += "  r" + std::to_string(i) + " = x;\n";
    code += "  return r" + std::to_string(i) + ";\n}\n";
  }
  std::string path = Write("many.c", code);
  RunResult result = RunCli(path + " --top=2");
  EXPECT_NE(result.output.find("... 3 more"), std::string::npos);
}

TEST_F(CliTest, MalformedTopValueExitsTwo) {
  std::string path = Write("buggy.c", kBuggy);
  for (const char* bad : {"abc", "2x", "-1"}) {
    RunResult result = RunCli(path + " --top " + bad);
    EXPECT_EQ(result.exit_code, 2) << bad << ": " << result.output;
    EXPECT_NE(result.output.find("--top expects a non-negative integer"), std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("warning:"), std::string::npos) << result.output;
  }
}

TEST_F(CliTest, MalformedDefineValueExitsTwo) {
  std::string path = Write("buggy.c", kBuggy);
  RunResult result = RunCli(path + " --define X=abc");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--define expects NAME or NAME=INTEGER"), std::string::npos)
      << result.output;
  // Whole-value decimal, hex and octal integers stay accepted.
  for (const char* good : {"X=12", "X=0x1f", "X=017", "X=-3", "X"}) {
    EXPECT_EQ(RunCli(path + " --define " + good).exit_code, 1) << good;
  }
}

// --- Fault isolation ----------------------------------------------------------

TEST_F(CliTest, FaultInjectRateOneDegradesGracefully) {
  Write("buggy.c", kBuggy);
  Write("clean.c", kClean);
  // Every parse faults: no findings survive, but the run completes and exits
  // 0 (no findings) in the default graceful mode.
  RunResult result = RunCli(dir_.string() + " --fault-inject 1:1.0");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("degraded run"), std::string::npos);
  EXPECT_NE(result.output.find("quarantined [parse]"), std::string::npos);
}

TEST_F(CliTest, StrictModeTurnsQuarantineIntoExitThree) {
  Write("buggy.c", kBuggy);
  RunResult result = RunCli(dir_.string() + " --strict --fault-inject 1:1.0");
  EXPECT_EQ(result.exit_code, 3) << result.output;
  // Without injected faults, --strict changes nothing.
  RunResult clean = RunCli(dir_.string() + " --strict");
  EXPECT_EQ(clean.exit_code, 1) << clean.output;
}

TEST_F(CliTest, FaultInjectJsonReportCarriesQuarantineBlock) {
  Write("buggy.c", kBuggy);
  RunResult result = RunCliStdout(dir_.string() + " --format=json --fault-inject 1:1.0");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("\"schema_version\":11"), std::string::npos);
  EXPECT_NE(result.output.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(result.output.find("\"quarantined\":[{"), std::string::npos);
  EXPECT_NE(result.output.find("\"stage\":\"parse\""), std::string::npos);
}

TEST_F(CliTest, CleanJsonReportHasEmptyQuarantineBlock) {
  Write("buggy.c", kBuggy);
  RunResult result = RunCliStdout(dir_.string() + " --format=json");
  EXPECT_NE(result.output.find("\"degraded\":false"), std::string::npos);
  EXPECT_NE(result.output.find("\"quarantined\":[]"), std::string::npos);
}

TEST_F(CliTest, BadFaultInjectSpecExitsTwo) {
  std::string path = Write("clean.c", kClean);
  RunResult result = RunCli(path + " --fault-inject not-a-spec");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--fault-inject"), std::string::npos);
}

TEST_F(CliTest, FaultInjectOutputIdenticalAcrossJobs) {
  for (int i = 0; i < 6; ++i) {
    Write("file" + std::to_string(i) + ".c",
          "int g" + std::to_string(i) + "(int);\n"
          "int f" + std::to_string(i) + "(int x) {\n"
          "  int r = g" + std::to_string(i) + "(x);\n"
          "  r = x;\n"
          "  return r;\n}\n");
  }
  // CSV carries only findings (no timings or the jobs count, which
  // legitimately differ); the stderr quarantine lines cover the rest.
  std::string args = dir_.string() + " --format=csv --fault-inject 7:0.5";
  auto stderr_only = [&](const std::string& a) {
    return RunCommand(std::string(VALUECHECK_CLI_PATH) + " " + a + " 2>&1 1>/dev/null");
  };
  RunResult serial = RunCliStdout(args + " --jobs 1");
  RunResult parallel = RunCliStdout(args + " --jobs 8");
  EXPECT_EQ(serial.output, parallel.output);
  EXPECT_EQ(serial.exit_code, parallel.exit_code);
  RunResult serial_err = stderr_only(args + " --jobs 1");
  RunResult parallel_err = stderr_only(args + " --jobs 8");
  EXPECT_EQ(serial_err.output, parallel_err.output);
  EXPECT_NE(serial_err.output.find("quarantined ["), std::string::npos)
      << "seed 7 rate 0.5 quarantined nothing; the comparison is vacuous";
}

}  // namespace
}  // namespace vc
