// Persistent run history for longitudinal analysis ("what changed since the
// last run?"). Each analysis run is serialized as one JSON object per line in
// DIR/runs.jsonl — append-only, so concurrent CI jobs can O_APPEND their
// records and a crashed run never corrupts earlier history (a torn final line
// is skipped on load).
//
// The record is deliberately plain data (strings + numbers, no core types):
// the ledger lives in support so that both the core differ and standalone
// tools (benches, the CLI subcommands) can read it without dragging in the
// analysis pipeline. Findings are identified by their stable content
// fingerprint (src/core/fingerprint.h), which is what makes run-to-run diffs
// line-shift-robust.

#ifndef VALUECHECK_SRC_SUPPORT_RUN_LEDGER_H_
#define VALUECHECK_SRC_SUPPORT_RUN_LEDGER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace vc {

// One finding as stored in the ledger. `fingerprint` is the identity used by
// diffs; the location fields are informational (they move when unrelated code
// shifts, the fingerprint does not).
struct LedgerFinding {
  std::string fingerprint;
  // The checker that produced the finding. Diff identity is the
  // (checker, fingerprint) pair; records written before the checker framework
  // read back as "unused-def" (the only checker that existed then).
  std::string checker = "unused-def";
  std::string file;
  int line = 0;
  std::string function;
  std::string variable;
  std::string kind;
  double familiarity = 0.0;
};

// Per-pattern pruning outcome (tested vs actually pruned).
struct LedgerPrunePattern {
  std::string name;
  int64_t tested = 0;
  int64_t pruned = 0;
};

// Per-checker candidate/finding counts (ledger-schema v2; feeds the
// dashboard's precision trend). Pre-v2 records read back with an empty list.
struct LedgerCheckerStat {
  std::string name;
  int64_t candidates = 0;
  int64_t findings = 0;
};

// The metrics slice of a run: schema-v3 StageMetrics flattened to plain
// numbers. `collected` mirrors AnalysisOptions::collect_metrics; when false
// only the always-available timings are meaningful.
struct LedgerMetrics {
  bool collected = false;
  double analysis_seconds = 0.0;
  double parse_seconds = 0.0;
  double detect_seconds = 0.0;
  double authorship_seconds = 0.0;
  double filter_seconds = 0.0;
  double prune_seconds = 0.0;
  double rank_seconds = 0.0;
  int64_t files_parsed = 0;
  int64_t functions_analyzed = 0;
  int64_t candidates_detected = 0;
  int64_t prune_original = 0;
  int64_t prune_total = 0;
  int64_t prune_remaining = 0;
  // Units dropped by fault isolation (0 in clean runs and pre-v5 records).
  int64_t quarantined_units = 0;
  std::vector<LedgerPrunePattern> prune_patterns;
  int pool_workers = 0;
  int64_t pool_tasks = 0;
  int64_t pool_steals = 0;
  double pool_idle_seconds = 0.0;
  // Memory accounting (ledger-schema v2, report-schema v7). Byte/object
  // counts are exact and deterministic; peak RSS is a per-run sample. All
  // zero (mem_collected false) in pre-v2 records.
  bool mem_collected = false;
  int64_t mem_ast_bytes = 0;
  int64_t mem_ast_objects = 0;
  int64_t mem_ir_bytes = 0;
  int64_t mem_ir_objects = 0;
  int64_t mem_strings_bytes = 0;
  int64_t mem_strings_objects = 0;
  int64_t mem_tracked_bytes = 0;
  int64_t mem_peak_rss_bytes = 0;
  // Scalability observatory summary (ledger-schema v3): the headline numbers
  // of a --perf-report run, so the dashboard can trend utilization and
  // imbalance without re-reading perf-report files. All zero
  // (perf_collected false) in pre-v3 records and runs without --perf-report.
  bool perf_collected = false;
  double perf_wall_seconds = 0.0;
  double perf_serial_fraction = 0.0;
  double perf_utilization = 0.0;  // mean across observed workers
  double perf_max_busy_seconds = 0.0;
  double perf_mean_busy_seconds = 0.0;
  double perf_imbalance_ratio = 0.0;
  // Incremental-engine summary (ledger-schema v4): work accounting for a
  // per-commit run produced by `valuecheck analyze --incremental` or the
  // incremental bench. All zero (inc_collected false) in full-run records
  // and pre-v4 lines.
  bool inc_collected = false;
  int64_t inc_commit = 0;
  int64_t inc_files_changed = 0;
  int64_t inc_files_reparsed = 0;
  int64_t inc_functions_total = 0;
  int64_t inc_functions_dirty = 0;
  int64_t inc_findings_carried = 0;
  int64_t inc_findings_new = 0;
  int64_t inc_findings_fixed = 0;
  double inc_cache_hit_rate = 0.0;  // carried / (carried + recomputed)
  double inc_seconds = 0.0;         // per-commit wall seconds
  // Serving summary (ledger-schema v5): headline numbers of a `valuecheck
  // serve` session or a vc_loadgen run — request accounting that must balance
  // (requests == succeeded + degraded + shed + deadline + failed) plus the
  // latency/throughput envelope. All zero (serve_collected false) in batch
  // records and pre-v5 lines.
  bool serve_collected = false;
  double serve_wall_seconds = 0.0;
  int64_t serve_clients = 0;
  int64_t serve_requests = 0;
  int64_t serve_succeeded = 0;
  int64_t serve_degraded = 0;
  int64_t serve_shed = 0;
  int64_t serve_deadline = 0;
  int64_t serve_failed = 0;
  int64_t serve_retried = 0;
  double serve_qps = 0.0;
  double serve_p50_ms = 0.0;
  double serve_p95_ms = 0.0;
  double serve_p99_ms = 0.0;
};

// One analysis run. `run_id` is assigned by RunLedger::Append when empty
// ("r0001", "r0002", ... in append order).
struct RunRecord {
  // v1: initial schema. v2: per-checker stats + memory accounting fields.
  // v3: perf (scalability observatory) summary fields. v4: incremental-engine
  // summary fields. v5: serve (daemon/loadgen) summary fields. Every addition
  // reads back as zero/empty from older lines, so mixed-version ledgers load
  // and diff cleanly.
  static constexpr int kSchemaVersion = 5;

  std::string run_id;
  int64_t timestamp_ms = 0;     // caller-supplied wall clock (0 = unknown)
  std::string label;            // free-form: corpus name, git rev, "bench:jobs=4"
  std::string options_summary;  // rendered non-default analysis options
  int jobs = 1;
  // True when the producing run quarantined units (its findings are a subset
  // of what a clean run would report) — diffs against it should be read with
  // that in mind.
  bool degraded = false;
  // The checker set the run executed, in registry order. Pre-framework
  // records read back as {"unused-def"}; the differ uses this to tell "the
  // finding was fixed" apart from "its checker wasn't enabled".
  std::vector<std::string> checkers;
  // Per-checker candidates/findings in registry order (empty in pre-v2
  // records — consumers must treat "absent" as "not recorded", not zero).
  std::vector<LedgerCheckerStat> checker_stats;
  std::vector<LedgerFinding> findings;
  LedgerMetrics metrics;
};

// Serialization. One compact JSON object, no trailing newline.
std::string RunRecordToJson(const RunRecord& record);
std::optional<RunRecord> RunRecordFromJson(const std::string& line, std::string* error = nullptr);

class RunLedger {
 public:
  // `dir` is created on first Append (parents included); Load on a
  // nonexistent dir yields an empty history, not an error.
  explicit RunLedger(std::string dir);

  const std::string& dir() const { return dir_; }
  std::string LedgerFile() const;

  // Appends one record, assigning record.run_id when empty. Returns the run
  // id, or empty string on I/O failure (message in *error).
  std::string Append(RunRecord record, std::string* error = nullptr);

  // All records in append order. Unparsable lines (e.g. a torn final line
  // from a crashed writer) are skipped and counted in *skipped if given.
  std::optional<std::vector<RunRecord>> Load(std::string* error = nullptr,
                                             int* skipped = nullptr) const;

  // Resolves a run selector against the history:
  //   "latest" / "-1"      newest run
  //   "prev" / "-2"        one before newest (and -3, -4, ...)
  //   "r0007"              explicit run id
  //   "7"                  1-based position in append order
  // Returns nullopt (with *error) when the selector matches nothing.
  std::optional<RunRecord> Find(const std::string& selector, std::string* error = nullptr) const;

  // Rewrites the ledger keeping only the newest `keep_last` records.
  // Returns the number of records dropped, or -1 on error.
  int Compact(int keep_last, std::string* error = nullptr);

 private:
  std::string dir_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_RUN_LEDGER_H_
