#include "src/support/run_ledger.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/support/json_reader.h"
#include "src/support/json_writer.h"

namespace vc {

namespace {

std::string FormatRunId(size_t ordinal) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "r%04zu", ordinal);
  return buf;
}

void WriteMetrics(JsonWriter& json, const LedgerMetrics& m) {
  json.Key("metrics").BeginObject();
  json.Bool("collected", m.collected);
  json.Double("analysis_seconds", m.analysis_seconds);
  json.Key("stages").BeginObject();
  json.Double("parse", m.parse_seconds);
  json.Double("detect", m.detect_seconds);
  json.Double("authorship", m.authorship_seconds);
  json.Double("filter", m.filter_seconds);
  json.Double("prune", m.prune_seconds);
  json.Double("rank", m.rank_seconds);
  json.EndObject();
  json.Key("counters").BeginObject();
  json.Int("files_parsed", m.files_parsed);
  json.Int("functions_analyzed", m.functions_analyzed);
  json.Int("candidates_detected", m.candidates_detected);
  json.Int("prune_original", m.prune_original);
  json.Int("prune_total", m.prune_total);
  json.Int("prune_remaining", m.prune_remaining);
  json.Int("quarantined_units", m.quarantined_units);
  json.EndObject();
  json.Key("prune_patterns").BeginArray();
  for (const LedgerPrunePattern& pattern : m.prune_patterns) {
    json.BeginObject();
    json.String("name", pattern.name);
    json.Int("tested", pattern.tested);
    json.Int("pruned", pattern.pruned);
    json.EndObject();
  }
  json.EndArray();
  json.Key("thread_pool").BeginObject();
  json.Int("workers", m.pool_workers);
  json.Int("tasks", m.pool_tasks);
  json.Int("steals", m.pool_steals);
  json.Double("idle_seconds", m.pool_idle_seconds);
  json.EndObject();
  // v2: memory accounting. Only written when collected, so records from runs
  // without --metrics stay byte-compatible with v1 readers (which ignore
  // unknown keys anyway).
  if (m.mem_collected) {
    json.Key("memory").BeginObject();
    json.Bool("collected", true);
    json.Int("ast_bytes", m.mem_ast_bytes);
    json.Int("ast_objects", m.mem_ast_objects);
    json.Int("ir_bytes", m.mem_ir_bytes);
    json.Int("ir_objects", m.mem_ir_objects);
    json.Int("strings_bytes", m.mem_strings_bytes);
    json.Int("strings_objects", m.mem_strings_objects);
    json.Int("tracked_bytes", m.mem_tracked_bytes);
    json.Int("peak_rss_bytes", m.mem_peak_rss_bytes);
    json.EndObject();
  }
  // v3: scalability-observatory summary. Written only for --perf-report
  // runs, same compatibility story as the v2 memory block.
  if (m.perf_collected) {
    json.Key("perf").BeginObject();
    json.Bool("collected", true);
    json.Double("wall_seconds", m.perf_wall_seconds);
    json.Double("serial_fraction", m.perf_serial_fraction);
    json.Double("utilization", m.perf_utilization);
    json.Double("max_busy_seconds", m.perf_max_busy_seconds);
    json.Double("mean_busy_seconds", m.perf_mean_busy_seconds);
    json.Double("imbalance_ratio", m.perf_imbalance_ratio);
    json.EndObject();
  }
  // v4: incremental-engine summary. Written only for per-commit runs, same
  // compatibility story as the v2/v3 optional blocks.
  if (m.inc_collected) {
    json.Key("incremental").BeginObject();
    json.Bool("collected", true);
    json.Int("commit", m.inc_commit);
    json.Int("files_changed", m.inc_files_changed);
    json.Int("files_reparsed", m.inc_files_reparsed);
    json.Int("functions_total", m.inc_functions_total);
    json.Int("functions_dirty", m.inc_functions_dirty);
    json.Int("findings_carried", m.inc_findings_carried);
    json.Int("findings_new", m.inc_findings_new);
    json.Int("findings_fixed", m.inc_findings_fixed);
    json.Double("cache_hit_rate", m.inc_cache_hit_rate);
    json.Double("seconds", m.inc_seconds);
    json.EndObject();
  }
  // v5: serving summary. Written only for daemon/loadgen sessions, same
  // compatibility story as the earlier optional blocks.
  if (m.serve_collected) {
    json.Key("serve").BeginObject();
    json.Bool("collected", true);
    json.Double("wall_seconds", m.serve_wall_seconds);
    json.Int("clients", m.serve_clients);
    json.Int("requests", m.serve_requests);
    json.Int("succeeded", m.serve_succeeded);
    json.Int("degraded", m.serve_degraded);
    json.Int("shed", m.serve_shed);
    json.Int("deadline", m.serve_deadline);
    json.Int("failed", m.serve_failed);
    json.Int("retried", m.serve_retried);
    json.Double("qps", m.serve_qps);
    json.Double("p50_ms", m.serve_p50_ms);
    json.Double("p95_ms", m.serve_p95_ms);
    json.Double("p99_ms", m.serve_p99_ms);
    json.EndObject();
  }
  json.EndObject();  // metrics
}

LedgerMetrics ReadMetrics(const JsonValue& value) {
  LedgerMetrics m;
  m.collected = value.GetBool("collected");
  m.analysis_seconds = value.GetDouble("analysis_seconds");
  const JsonValue& stages = value.Get("stages");
  m.parse_seconds = stages.GetDouble("parse");
  m.detect_seconds = stages.GetDouble("detect");
  m.authorship_seconds = stages.GetDouble("authorship");
  m.filter_seconds = stages.GetDouble("filter");
  m.prune_seconds = stages.GetDouble("prune");
  m.rank_seconds = stages.GetDouble("rank");
  const JsonValue& counters = value.Get("counters");
  m.files_parsed = counters.GetInt("files_parsed");
  m.functions_analyzed = counters.GetInt("functions_analyzed");
  m.candidates_detected = counters.GetInt("candidates_detected");
  m.prune_original = counters.GetInt("prune_original");
  m.prune_total = counters.GetInt("prune_total");
  m.prune_remaining = counters.GetInt("prune_remaining");
  m.quarantined_units = counters.GetInt("quarantined_units");
  for (const JsonValue& pattern : value.Get("prune_patterns").Items()) {
    LedgerPrunePattern p;
    p.name = pattern.GetString("name");
    p.tested = pattern.GetInt("tested");
    p.pruned = pattern.GetInt("pruned");
    m.prune_patterns.push_back(std::move(p));
  }
  const JsonValue& pool = value.Get("thread_pool");
  m.pool_workers = static_cast<int>(pool.GetInt("workers"));
  m.pool_tasks = pool.GetInt("tasks");
  m.pool_steals = pool.GetInt("steals");
  m.pool_idle_seconds = pool.GetDouble("idle_seconds");
  // Absent in pre-v2 records; every field defaults to zero / not-collected.
  // Older records may also carry points_to_bytes/points_to_objects, from a
  // category report schema v9 removed; they are ignored.
  if (value.Has("memory")) {
    const JsonValue& mem = value.Get("memory");
    m.mem_collected = mem.GetBool("collected");
    m.mem_ast_bytes = mem.GetInt("ast_bytes");
    m.mem_ast_objects = mem.GetInt("ast_objects");
    m.mem_ir_bytes = mem.GetInt("ir_bytes");
    m.mem_ir_objects = mem.GetInt("ir_objects");
    m.mem_strings_bytes = mem.GetInt("strings_bytes");
    m.mem_strings_objects = mem.GetInt("strings_objects");
    m.mem_tracked_bytes = mem.GetInt("tracked_bytes");
    m.mem_peak_rss_bytes = mem.GetInt("peak_rss_bytes");
  }
  // Absent in pre-v3 records and runs without --perf-report.
  if (value.Has("perf")) {
    const JsonValue& perf = value.Get("perf");
    m.perf_collected = perf.GetBool("collected");
    m.perf_wall_seconds = perf.GetDouble("wall_seconds");
    m.perf_serial_fraction = perf.GetDouble("serial_fraction");
    m.perf_utilization = perf.GetDouble("utilization");
    m.perf_max_busy_seconds = perf.GetDouble("max_busy_seconds");
    m.perf_mean_busy_seconds = perf.GetDouble("mean_busy_seconds");
    m.perf_imbalance_ratio = perf.GetDouble("imbalance_ratio");
  }
  // Absent in pre-v4 records and full (non-incremental) runs.
  if (value.Has("incremental")) {
    const JsonValue& inc = value.Get("incremental");
    m.inc_collected = inc.GetBool("collected");
    m.inc_commit = inc.GetInt("commit");
    m.inc_files_changed = inc.GetInt("files_changed");
    m.inc_files_reparsed = inc.GetInt("files_reparsed");
    m.inc_functions_total = inc.GetInt("functions_total");
    m.inc_functions_dirty = inc.GetInt("functions_dirty");
    m.inc_findings_carried = inc.GetInt("findings_carried");
    m.inc_findings_new = inc.GetInt("findings_new");
    m.inc_findings_fixed = inc.GetInt("findings_fixed");
    m.inc_cache_hit_rate = inc.GetDouble("cache_hit_rate");
    m.inc_seconds = inc.GetDouble("seconds");
  }
  // Absent in pre-v5 records and batch (non-serving) runs.
  if (value.Has("serve")) {
    const JsonValue& serve = value.Get("serve");
    m.serve_collected = serve.GetBool("collected");
    m.serve_wall_seconds = serve.GetDouble("wall_seconds");
    m.serve_clients = serve.GetInt("clients");
    m.serve_requests = serve.GetInt("requests");
    m.serve_succeeded = serve.GetInt("succeeded");
    m.serve_degraded = serve.GetInt("degraded");
    m.serve_shed = serve.GetInt("shed");
    m.serve_deadline = serve.GetInt("deadline");
    m.serve_failed = serve.GetInt("failed");
    m.serve_retried = serve.GetInt("retried");
    m.serve_qps = serve.GetDouble("qps");
    m.serve_p50_ms = serve.GetDouble("p50_ms");
    m.serve_p95_ms = serve.GetDouble("p95_ms");
    m.serve_p99_ms = serve.GetDouble("p99_ms");
  }
  return m;
}

}  // namespace

std::string RunRecordToJson(const RunRecord& record) {
  JsonWriter json;
  json.BeginObject();
  json.Int("ledger_schema", RunRecord::kSchemaVersion);
  json.String("run_id", record.run_id);
  json.Int("timestamp_ms", record.timestamp_ms);
  json.String("label", record.label);
  json.String("options", record.options_summary);
  json.Int("jobs", record.jobs);
  json.Bool("degraded", record.degraded);
  json.Key("checkers").BeginArray();
  for (const std::string& name : record.checkers) {
    json.StringValue(name);
  }
  json.EndArray();
  // v2: per-checker stats. Skipped when empty so records round-trip without
  // inventing data for pre-v2 runs.
  if (!record.checker_stats.empty()) {
    json.Key("checker_stats").BeginArray();
    for (const LedgerCheckerStat& stat : record.checker_stats) {
      json.BeginObject();
      json.String("checker", stat.name);
      json.Int("candidates", stat.candidates);
      json.Int("findings", stat.findings);
      json.EndObject();
    }
    json.EndArray();
  }
  json.Key("findings").BeginArray();
  for (const LedgerFinding& finding : record.findings) {
    json.BeginObject();
    json.String("fingerprint", finding.fingerprint);
    json.String("checker", finding.checker);
    json.String("file", finding.file);
    json.Int("line", finding.line);
    json.String("function", finding.function);
    json.String("variable", finding.variable);
    json.String("kind", finding.kind);
    json.Double("familiarity", finding.familiarity);
    json.EndObject();
  }
  json.EndArray();
  WriteMetrics(json, record.metrics);
  json.EndObject();
  return json.str();
}

std::optional<RunRecord> RunRecordFromJson(const std::string& line, std::string* error) {
  std::optional<JsonValue> value = ParseJson(line, error);
  if (!value.has_value()) {
    return std::nullopt;
  }
  if (!value->IsObject() || !value->Has("run_id")) {
    if (error != nullptr) {
      *error = "not a run record object";
    }
    return std::nullopt;
  }
  RunRecord record;
  record.run_id = value->GetString("run_id");
  record.timestamp_ms = value->GetInt("timestamp_ms");
  record.label = value->GetString("label");
  record.options_summary = value->GetString("options");
  record.jobs = static_cast<int>(value->GetInt("jobs", 1));
  // Absent in pre-fault-isolation records; default reads as a clean run.
  record.degraded = value->GetBool("degraded");
  // Absent in pre-framework records, which could only have run unused-def.
  if (value->Has("checkers")) {
    for (const JsonValue& entry : value->Get("checkers").Items()) {
      record.checkers.push_back(entry.AsString());
    }
  } else {
    record.checkers.push_back("unused-def");
  }
  // Absent in pre-v2 records: stays empty ("not recorded").
  if (value->Has("checker_stats")) {
    for (const JsonValue& entry : value->Get("checker_stats").Items()) {
      LedgerCheckerStat stat;
      stat.name = entry.GetString("checker");
      stat.candidates = entry.GetInt("candidates");
      stat.findings = entry.GetInt("findings");
      record.checker_stats.push_back(std::move(stat));
    }
  }
  for (const JsonValue& entry : value->Get("findings").Items()) {
    LedgerFinding finding;
    finding.fingerprint = entry.GetString("fingerprint");
    finding.checker = entry.GetString("checker", "unused-def");
    finding.file = entry.GetString("file");
    finding.line = static_cast<int>(entry.GetInt("line"));
    finding.function = entry.GetString("function");
    finding.variable = entry.GetString("variable");
    finding.kind = entry.GetString("kind");
    finding.familiarity = entry.GetDouble("familiarity");
    record.findings.push_back(std::move(finding));
  }
  record.metrics = ReadMetrics(value->Get("metrics"));
  return record;
}

RunLedger::RunLedger(std::string dir) : dir_(std::move(dir)) {}

std::string RunLedger::LedgerFile() const {
  return (std::filesystem::path(dir_) / "runs.jsonl").string();
}

std::string RunLedger::Append(RunRecord record, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create ledger dir " + dir_ + ": " + ec.message();
    }
    return "";
  }
  if (record.run_id.empty()) {
    std::optional<std::vector<RunRecord>> existing = Load(error);
    if (!existing.has_value()) {
      return "";
    }
    // Number past the highest surviving id, not the record count — after a
    // Compact the count shrinks but reusing dropped ids would collide with
    // the kept tail.
    size_t next = existing->size() + 1;
    for (const RunRecord& prior : *existing) {
      if (prior.run_id.size() > 1 && prior.run_id[0] == 'r') {
        long id = std::strtol(prior.run_id.c_str() + 1, nullptr, 10);
        if (id > 0 && static_cast<size_t>(id) >= next) {
          next = static_cast<size_t>(id) + 1;
        }
      }
    }
    record.run_id = FormatRunId(next);
  }
  // O_APPEND + a single write() of the whole line: POSIX makes each append
  // atomic with respect to other appenders, so two concurrent runs (CI jobs
  // sharing one ledger) can never interleave bytes mid-record. A buffered
  // ofstream would flush in chunks and lose that guarantee.
  const std::string line = RunRecordToJson(record) + '\n';
  int fd = ::open(LedgerFile().c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot open " + LedgerFile() + " for append: " + std::strerror(errno);
    }
    return "";
  }
  ssize_t written;
  do {
    written = ::write(fd, line.data(), line.size());
  } while (written < 0 && errno == EINTR);
  const bool ok = written == static_cast<ssize_t>(line.size());
  ::close(fd);
  if (!ok) {
    if (error != nullptr) {
      *error = "write to " + LedgerFile() + " failed";
    }
    return "";
  }
  return record.run_id;
}

std::optional<std::vector<RunRecord>> RunLedger::Load(std::string* error, int* skipped) const {
  std::vector<RunRecord> records;
  std::ifstream in(LedgerFile(), std::ios::binary);
  if (!in) {
    // No ledger yet — an empty history, not an error (first run of a fresh
    // checkout appends to it moments later).
    return records;
  }
  std::string line;
  int bad = 0;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::optional<RunRecord> record = RunRecordFromJson(line);
    if (record.has_value()) {
      records.push_back(std::move(*record));
    } else {
      ++bad;
    }
  }
  if (skipped != nullptr) {
    *skipped = bad;
  }
  (void)error;
  return records;
}

std::optional<RunRecord> RunLedger::Find(const std::string& selector, std::string* error) const {
  std::optional<std::vector<RunRecord>> records = Load(error);
  if (!records.has_value()) {
    return std::nullopt;
  }
  auto fail = [&](const std::string& message) -> std::optional<RunRecord> {
    if (error != nullptr) {
      *error = message;
    }
    return std::nullopt;
  };
  if (records->empty()) {
    return fail("ledger at " + dir_ + " has no runs");
  }
  std::string sel = selector;
  if (sel.empty() || sel == "latest") {
    sel = "-1";
  } else if (sel == "prev") {
    sel = "-2";
  }
  if (!sel.empty() && sel[0] == 'r') {
    for (const RunRecord& record : *records) {
      if (record.run_id == sel) {
        return record;
      }
    }
    return fail("no run with id '" + sel + "' in " + dir_);
  }
  char* end = nullptr;
  long index = std::strtol(sel.c_str(), &end, 10);
  if (end == sel.c_str() || *end != '\0') {
    return fail("bad run selector '" + selector + "' (expected latest, prev, rNNNN, N, or -N)");
  }
  long size = static_cast<long>(records->size());
  long resolved = index < 0 ? size + index : index - 1;  // 1-based positives
  if (resolved < 0 || resolved >= size) {
    return fail("run selector '" + selector + "' out of range (ledger has " +
                std::to_string(size) + " run(s))");
  }
  return (*records)[static_cast<size_t>(resolved)];
}

int RunLedger::Compact(int keep_last, std::string* error) {
  std::optional<std::vector<RunRecord>> records = Load(error);
  if (!records.has_value()) {
    return -1;
  }
  if (keep_last < 0) {
    keep_last = 0;
  }
  int dropped = static_cast<int>(records->size()) - keep_last;
  if (dropped <= 0) {
    return 0;
  }
  // Rewrite via a temp file + rename so a crash mid-compact never loses the
  // ledger (rename within one directory is atomic on POSIX).
  std::string tmp = LedgerFile() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) {
      if (error != nullptr) {
        *error = "cannot open " + tmp;
      }
      return -1;
    }
    for (size_t i = records->size() - static_cast<size_t>(keep_last); i < records->size(); ++i) {
      out << RunRecordToJson((*records)[i]) << '\n';
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, LedgerFile(), ec);
  if (ec) {
    if (error != nullptr) {
      *error = "rename failed: " + ec.message();
    }
    return -1;
  }
  return dropped;
}

}  // namespace vc
