#include "src/core/report_formats.h"

#include "src/checkers/checker.h"
#include "src/checkers/registry.h"
#include "src/core/incremental.h"
#include "src/support/json_writer.h"
#include "src/support/table_writer.h"

namespace vc {

namespace {

void WriteFinding(JsonWriter& json, const UnusedDefCandidate& cand, const Repository* repo) {
  json.BeginObject();
  if (!cand.fingerprint.empty()) {
    json.String("fingerprint", cand.fingerprint);
  }
  json.String("file", cand.file);
  json.Int("line", cand.def_loc.line);
  json.Int("column", cand.def_loc.column);
  json.String("function", cand.function);
  json.String("variable", cand.slot_name);
  json.String("checker", cand.checker);
  json.String("kind", CandidateKindName(cand.kind));
  json.Bool("cross_scope", cand.cross_scope);
  json.Bool("is_parameter", cand.is_param);
  json.Bool("ignored_call_result", cand.is_synthetic);
  json.Bool("field_sensitive", cand.is_field_slot);
  if (!cand.callee_name.empty()) {
    json.String("value_from_call", cand.callee_name);
  }
  if (!cand.overwriter_locs.empty()) {
    json.Key("overwritten_at").BeginArray();
    for (const SourceLoc& loc : cand.overwriter_locs) {
      json.IntValue(loc.line);
    }
    json.EndArray();
  }
  if (repo != nullptr && cand.def_author != kInvalidAuthor) {
    json.String("defined_by", repo->GetAuthor(cand.def_author).name);
  }
  if (repo != nullptr && cand.responsible_author != kInvalidAuthor) {
    json.String("responsible", repo->GetAuthor(cand.responsible_author).name);
  }
  json.Double("familiarity", cand.familiarity);
  json.EndObject();
}

}  // namespace

std::string ReportToJson(const AnalysisReport& report, const Repository* repo,
                         const IncrementalResult* incremental) {
  JsonWriter json;
  json.BeginObject();
  json.String("tool", "valuecheck");
  // Schema history: v1 had no version field; v2 added schema_version plus the
  // timing/parallelism block (jobs, parse_seconds, detect_seconds); v3 added
  // the diagnostics block and, when the run collected metrics, the metrics
  // object (per-stage seconds, per-pattern prune counters, thread-pool
  // activity); v4 adds the per-finding "fingerprint" — the stable
  // content-based identity the run ledger diffs on (src/core/fingerprint.h);
  // v5 adds the always-present fault-isolation block: "degraded" plus the
  // "quarantined" array of {path, function, stage, reason} records; v6 adds
  // the checker framework's identity channel — the top-level "checkers" array
  // (the resolved checker set, registry order), a "checker" field on every
  // finding, and a "checker" field on quarantine records that name one; v7
  // adds the always-present "checker_stats" array (per-checker candidate and
  // finding counts) and, when the run collected metrics, the "memory" block —
  // per-category byte/object counts, the per-stage tracked-byte peaks, and
  // the (nondeterministic) peak-RSS samples; v8 adds the optional
  // "incremental" block (present only for per-commit engine runs): commit id,
  // files/functions work accounting, fingerprint-level carried/new/fixed
  // deltas, and the parse/detect cache hit counters; v9 drops the
  // "points_to_sets" key from memory.categories (no stage produced it); v10
  // drops the two tracked-byte columns from memory.stages, whose rows are
  // now {stage, rss_bytes} read from the stage records.
  // See DESIGN.md §"JSON report schema" for the contract.
  json.Int("schema_version", 10);
  json.Double("analysis_seconds", report.analysis_seconds);
  json.Double("parse_seconds", report.stages[Stage::kParse].seconds);
  json.Double("detect_seconds", report.stages[Stage::kDetect].seconds);
  json.Int("jobs", report.jobs);
  json.Key("checkers").BeginArray();
  for (const std::string& name : report.checkers) {
    json.StringValue(name);
  }
  json.EndArray();
  json.Key("checker_stats").BeginArray();
  for (const AnalysisReport::CheckerStat& stat : report.checker_stats) {
    json.BeginObject();
    json.String("checker", stat.name);
    json.Int("candidates", static_cast<int64_t>(stat.candidates));
    json.Int("findings", static_cast<int64_t>(stat.findings));
    json.EndObject();
  }
  json.EndArray();
  json.Bool("degraded", report.degraded);

  json.Key("diagnostics").BeginObject();
  json.Int("warnings", report.diagnostic_warnings);
  json.Int("errors", report.diagnostic_errors);
  json.EndObject();

  json.Key("quarantined").BeginArray();
  for (const QuarantinedUnit& unit : report.quarantined) {
    json.BeginObject();
    json.String("path", unit.path);
    json.String("function", unit.function);
    json.String("stage", unit.stage);
    json.String("reason", unit.reason);
    if (!unit.checker.empty()) {
      json.String("checker", unit.checker);
    }
    json.EndObject();
  }
  json.EndArray();

  if (incremental != nullptr) {
    json.Key("incremental").BeginObject();
    json.Int("commit", static_cast<int64_t>(incremental->commit));
    json.Int("files_changed", incremental->files_changed);
    json.Int("files_reparsed", incremental->files_reparsed);
    json.Int("functions_total", incremental->functions_total);
    json.Int("functions_dirty", incremental->functions_dirty);
    json.Int("findings_carried", incremental->findings_carried);
    json.Int("findings_new", incremental->findings_new);
    json.Int("findings_fixed", incremental->findings_fixed);
    json.Double("seconds", incremental->seconds);
    const CacheStats& cache = incremental->cache;
    json.Key("cache").BeginObject();
    json.Int("parse_hits", static_cast<int64_t>(cache.parse_hits));
    json.Int("parse_misses", static_cast<int64_t>(cache.parse_misses));
    json.Int("detect_carried", static_cast<int64_t>(cache.detect_carried));
    json.Int("detect_recomputed", static_cast<int64_t>(cache.detect_recomputed));
    json.Double("detect_hit_rate", cache.DetectHitRate());
    json.Int("disk_loads", static_cast<int64_t>(cache.disk_loads));
    json.Int("disk_stores", static_cast<int64_t>(cache.disk_stores));
    json.Int("disk_corrupt", static_cast<int64_t>(cache.disk_corrupt));
    json.EndObject();
    json.EndObject();
  }

  json.Key("prune_stats").BeginObject();
  json.Int("candidates", report.prune_stats.original);
  json.Int("config_dependency", report.prune_stats.config_dependency);
  json.Int("cursor", report.prune_stats.cursor);
  json.Int("unused_hints", report.prune_stats.unused_hints);
  json.Int("peer_definition", report.prune_stats.peer_definition);
  json.Int("stale_code", report.prune_stats.stale_code);
  json.Int("remaining", report.prune_stats.remaining);
  json.EndObject();

  if (report.stage.collected) {
    const StageMetrics& stage = report.stage;
    json.Key("metrics").BeginObject();

    json.Key("stages").BeginObject();
    for (Stage s : kStages) {
      json.Key(StageName(s)).BeginObject();
      json.Double("seconds", report.stages[s].seconds);
      json.EndObject();
    }
    json.EndObject();  // stages

    json.Key("counters").BeginObject();
    json.Int("files_parsed", static_cast<int64_t>(stage.files_parsed));
    json.Int("functions_analyzed", static_cast<int64_t>(stage.functions_analyzed));
    json.Int("candidates_detected", static_cast<int64_t>(stage.candidates_detected));
    json.Int("rank_scored", static_cast<int64_t>(stage.rank_scored));
    json.Int("rank_unknown", static_cast<int64_t>(stage.rank_unknown));
    json.Double("rank_model_seconds", stage.rank_model_seconds);
    json.EndObject();

    json.Key("prune_patterns").BeginObject();
    const PruneStats& prune = report.prune_stats;
    struct {
      const char* name;
      int tested;
      int pruned;
    } patterns[] = {
        {"config_dependency", prune.config_tested, prune.config_dependency},
        {"cursor", prune.cursor_tested, prune.cursor},
        {"unused_hints", prune.hints_tested, prune.unused_hints},
        {"peer_definition", prune.peer_tested, prune.peer_definition},
        {"stale_code", prune.stale_tested, prune.stale_code},
    };
    for (const auto& pattern : patterns) {
      json.Key(pattern.name).BeginObject();
      json.Int("tested", pattern.tested);
      json.Int("pruned", pattern.pruned);
      json.Int("rejected", pattern.tested - pattern.pruned);
      json.EndObject();
    }
    json.EndObject();  // prune_patterns

    json.Key("thread_pool").BeginObject();
    json.Int("workers", stage.pool.workers);
    json.Int("parallel_fors", static_cast<int64_t>(stage.pool.parallel_fors));
    json.Int("tasks_executed", static_cast<int64_t>(stage.pool.tasks_executed));
    json.Int("chunks_executed", static_cast<int64_t>(stage.pool.chunks_executed));
    json.Int("steals", static_cast<int64_t>(stage.pool.steals));
    json.Int("queue_depth_hwm", static_cast<int64_t>(stage.pool.queue_depth_hwm));
    json.Double("worker_idle_seconds", stage.pool.worker_idle_seconds);
    json.EndObject();

    json.EndObject();  // metrics
  }

  if (report.memory.collected) {
    const MemoryStats& mem = report.memory;
    json.Key("memory").BeginObject();
    json.Key("categories").BeginObject();
    for (int c = 0; c < kMemCategoryCount; ++c) {
      json.Key(MemCategoryName(static_cast<MemCategory>(c))).BeginObject();
      json.Int("bytes", static_cast<int64_t>(mem.categories[c].bytes));
      json.Int("objects", static_cast<int64_t>(mem.categories[c].objects));
      json.EndObject();
    }
    json.EndObject();  // categories
    json.Int("tracked_bytes", static_cast<int64_t>(mem.TrackedBytes()));
    json.Int("tracked_objects", static_cast<int64_t>(mem.TrackedObjects()));
    json.Int("peak_rss_bytes", static_cast<int64_t>(mem.peak_rss_bytes));
    json.Key("stages").BeginArray();
    for (Stage stage : kStages) {
      json.BeginObject();
      json.String("stage", StageName(stage));
      json.Int("rss_bytes", static_cast<int64_t>(report.stages[stage].rss_bytes));
      json.EndObject();
    }
    json.EndArray();  // stages
    json.EndObject();  // memory
  }

  json.Int("non_cross_scope", report.non_cross_scope);
  json.Key("findings").BeginArray();
  for (const UnusedDefCandidate& cand : report.findings) {
    WriteFinding(json, cand, repo);
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::string ReportToSarif(const AnalysisReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.String("$schema",
              "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/"
              "sarif-schema-2.1.0.json");
  json.String("version", "2.1.0");
  json.Key("runs").BeginArray().BeginObject();

  json.Key("tool").BeginObject().Key("driver").BeginObject();
  json.String("name", "valuecheck");
  json.String("informationUri", "https://github.com/FloridSleeves/ValueCheck");
  json.String("version", "1.0.0");
  json.Key("rules").BeginArray();
  const char* rule_ids[] = {"overwritten-def", "unused-retval", "unused-param",
                            "overwritten-param", "plain-unused"};
  const char* rule_text[] = {
      "Definition overwritten by another developer before any use",
      "Function return value ignored or overwritten across author scopes",
      "Caller-provided argument value never used by the callee",
      "Caller-provided argument value overwritten inside the callee",
      "Unused definition (not on an authorship boundary)"};
  for (size_t i = 0; i < 5; ++i) {
    json.BeginObject();
    json.String("id", rule_ids[i]);
    json.Key("shortDescription").BeginObject();
    json.String("text", rule_text[i]);
    json.EndObject();
    json.EndObject();
  }
  // Checkers beyond unused-def get one rule each, named after the checker
  // (the per-kind rules above cover the five unused-def kinds).
  for (const std::string& name : report.checkers) {
    if (name == "unused-def") {
      continue;
    }
    const Checker* checker = CheckerRegistry::Global().Find(name);
    json.BeginObject();
    json.String("id", name);
    json.Key("shortDescription").BeginObject();
    json.String("text", checker != nullptr ? checker->description() : name);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();    // rules
  json.EndObject();   // driver
  json.EndObject();   // tool

  json.Key("results").BeginArray();
  for (const UnusedDefCandidate& cand : report.findings) {
    const bool unused_def = cand.checker == "unused-def";
    json.BeginObject();
    // unused-def keeps its historical per-kind rule ids; every other checker
    // reports under its own single rule.
    json.String("ruleId", unused_def ? CandidateKindName(cand.kind) : cand.checker);
    json.String("level", "warning");
    json.Key("message").BeginObject();
    if (unused_def) {
      json.String("text", "Unused definition of '" + cand.slot_name + "' in function '" +
                              cand.function + "' (" + CandidateKindName(cand.kind) + ")");
    } else {
      json.String("text", cand.checker + ": '" + cand.slot_name + "' in function '" +
                              cand.function + "' (" + CandidateKindName(cand.kind) + ")");
    }
    json.EndObject();
    json.Key("locations").BeginArray().BeginObject();
    json.Key("physicalLocation").BeginObject();
    json.Key("artifactLocation").BeginObject();
    json.String("uri", cand.file);
    json.EndObject();
    json.Key("region").BeginObject();
    json.Int("startLine", cand.def_loc.line);
    json.Int("startColumn", cand.def_loc.column > 0 ? cand.def_loc.column : 1);
    json.EndObject();
    json.EndObject();   // physicalLocation
    json.EndObject().EndArray();  // locations
    if (!cand.fingerprint.empty()) {
      // SARIF's stable-identity channel; code-scanning UIs use it to match
      // results across runs exactly like the run ledger does.
      json.Key("partialFingerprints").BeginObject();
      json.String("valueCheckFingerprint/v1", cand.fingerprint);
      json.EndObject();
    }
    json.Key("properties").BeginObject();
    json.Double("familiarity", cand.familiarity);
    json.Bool("crossScope", cand.cross_scope);
    json.EndObject();
    json.EndObject();  // result
  }
  json.EndArray();   // results
  json.EndObject();  // run
  json.EndArray();   // runs
  json.EndObject();
  return json.str();
}

std::string RenderStageMetricsTable(const AnalysisReport& report) {
  if (!report.stage.collected) {
    return "";
  }
  const StageMetrics& stage = report.stage;
  const PruneStats& prune = report.prune_stats;
  auto ms = [](double seconds) { return FormatDouble(seconds * 1e3, 3); };

  TableWriter table({"stage", "ms", "detail"});
  table.AddRow({"parse", ms(report.stages[Stage::kParse].seconds),
                std::to_string(stage.files_parsed) + " file(s)"});
  table.AddRow({"detect", ms(report.stages[Stage::kDetect].seconds),
                std::to_string(stage.functions_analyzed) + " function(s), " +
                    std::to_string(stage.candidates_detected) + " candidate(s)"});
  table.AddRow({"authorship", ms(report.stages[Stage::kAuthorship].seconds), ""});
  table.AddRow({"cross-scope-filter", ms(report.stages[Stage::kCrossScopeFilter].seconds),
                std::to_string(report.non_cross_scope) + " dropped"});
  table.AddRow({"prune", ms(report.stages[Stage::kPrune].seconds),
                std::to_string(prune.TotalPruned()) + "/" + std::to_string(prune.original) +
                    " pruned"});
  struct {
    const char* name;
    int tested;
    int pruned;
  } patterns[] = {
      {"prune:config-dependency", prune.config_tested, prune.config_dependency},
      {"prune:cursor", prune.cursor_tested, prune.cursor},
      {"prune:unused-hints", prune.hints_tested, prune.unused_hints},
      {"prune:peer-definition", prune.peer_tested, prune.peer_definition},
      {"prune:stale-code", prune.stale_tested, prune.stale_code},
  };
  for (const auto& pattern : patterns) {
    table.AddRow({pattern.name, "",
                  std::to_string(pattern.pruned) + " pruned / " +
                      std::to_string(pattern.tested - pattern.pruned) + " rejected of " +
                      std::to_string(pattern.tested) + " tested"});
  }
  table.AddRow({"rank", ms(report.stages[Stage::kRank].seconds),
                std::to_string(stage.rank_scored) + " scored, " +
                    std::to_string(stage.rank_unknown) + " unknown; model " +
                    ms(stage.rank_model_seconds) + "ms"});
  table.AddRow({"total", ms(report.analysis_seconds), "jobs=" + std::to_string(report.jobs)});

  TableWriter pool({"thread-pool", "value"});
  pool.AddRow({"workers", std::to_string(stage.pool.workers)});
  pool.AddRow({"parallel_fors", std::to_string(stage.pool.parallel_fors)});
  pool.AddRow({"tasks_executed", std::to_string(stage.pool.tasks_executed)});
  pool.AddRow({"chunks_executed", std::to_string(stage.pool.chunks_executed)});
  pool.AddRow({"steals", std::to_string(stage.pool.steals)});
  pool.AddRow({"queue_depth_hwm", std::to_string(stage.pool.queue_depth_hwm)});
  pool.AddRow({"worker_idle_seconds", FormatDouble(stage.pool.worker_idle_seconds, 3)});

  std::string out = table.RenderText() + "\n" + pool.RenderText();
  if (report.memory.collected) {
    const MemoryStats& mem = report.memory;
    auto mb = [](uint64_t bytes) {
      return FormatDouble(static_cast<double>(bytes) / (1024.0 * 1024.0), 3);
    };
    TableWriter memory({"memory", "bytes", "MB", "objects"});
    for (int c = 0; c < kMemCategoryCount; ++c) {
      memory.AddRow({MemCategoryName(static_cast<MemCategory>(c)),
                     std::to_string(mem.categories[c].bytes), mb(mem.categories[c].bytes),
                     std::to_string(mem.categories[c].objects)});
    }
    memory.AddRow({"tracked_total", std::to_string(mem.TrackedBytes()),
                   mb(mem.TrackedBytes()), std::to_string(mem.TrackedObjects())});
    memory.AddRow(
        {"peak_rss", std::to_string(mem.peak_rss_bytes), mb(mem.peak_rss_bytes), ""});
    out += "\n" + memory.RenderText();
  }
  return out;
}

}  // namespace vc
