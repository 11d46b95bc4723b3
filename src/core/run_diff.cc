#include "src/core/run_diff.h"

#include <algorithm>
#include <set>

#include "src/core/incremental.h"
#include "src/support/json_writer.h"
#include "src/support/table_writer.h"

namespace vc {

namespace {

LedgerFinding ToLedgerFinding(const UnusedDefCandidate& cand) {
  LedgerFinding finding;
  finding.fingerprint = cand.fingerprint;
  finding.checker = cand.checker;
  finding.file = cand.file;
  finding.line = cand.def_loc.line;
  finding.function = cand.function;
  finding.variable = cand.slot_name;
  finding.kind = CandidateKindName(cand.kind);
  finding.familiarity = cand.familiarity;
  return finding;
}

// Findings sorted by (file, fingerprint) so diff sections render in a stable
// order independent of either run's internal ordering.
void SortFindings(std::vector<LedgerFinding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const LedgerFinding& a, const LedgerFinding& b) {
              if (a.file != b.file) {
                return a.file < b.file;
              }
              if (a.checker != b.checker) {
                return a.checker < b.checker;
              }
              return a.fingerprint < b.fingerprint;
            });
}

// Diff identity: fingerprints are already namespaced per checker, but the
// explicit pair keeps identity correct even for checkers with an empty
// namespace (unused-def's legacy fingerprints).
std::string FindingKey(const LedgerFinding& finding) {
  return finding.checker + "\x1f" + finding.fingerprint;
}

double PruneRate(int64_t pruned, int64_t tested) {
  return tested > 0 ? static_cast<double>(pruned) / static_cast<double>(tested) : 0.0;
}

}  // namespace

RunRecord MakeRunRecord(const AnalysisReport& report, const std::string& label,
                        int64_t timestamp_ms) {
  RunRecord record;
  record.timestamp_ms = timestamp_ms;
  record.label = label;
  record.jobs = report.jobs;
  record.degraded = report.degraded;
  record.checkers = report.checkers;
  for (const UnusedDefCandidate& cand : report.findings) {
    record.findings.push_back(ToLedgerFinding(cand));
  }

  LedgerMetrics& m = record.metrics;
  m.collected = report.stage.collected;
  m.analysis_seconds = report.analysis_seconds;
  m.parse_seconds = report.stages[Stage::kParse].seconds;
  m.detect_seconds = report.stages[Stage::kDetect].seconds;
  m.authorship_seconds = report.stages[Stage::kAuthorship].seconds;
  m.filter_seconds = report.stages[Stage::kCrossScopeFilter].seconds;
  m.prune_seconds = report.stages[Stage::kPrune].seconds;
  m.rank_seconds = report.stages[Stage::kRank].seconds;
  m.files_parsed = static_cast<int64_t>(report.stage.files_parsed);
  m.functions_analyzed = static_cast<int64_t>(report.stage.functions_analyzed);
  m.candidates_detected = static_cast<int64_t>(report.stage.candidates_detected);
  const PruneStats& prune = report.prune_stats;
  m.prune_original = prune.original;
  m.prune_total = prune.TotalPruned();
  m.prune_remaining = prune.remaining;
  m.quarantined_units = static_cast<int64_t>(report.quarantined.size());
  m.prune_patterns = {
      {"config_dependency", prune.config_tested, prune.config_dependency},
      {"cursor", prune.cursor_tested, prune.cursor},
      {"unused_hints", prune.hints_tested, prune.unused_hints},
      {"peer_definition", prune.peer_tested, prune.peer_definition},
      {"stale_code", prune.stale_tested, prune.stale_code},
  };
  m.pool_workers = report.stage.pool.workers;
  m.pool_tasks = static_cast<int64_t>(report.stage.pool.tasks_executed);
  m.pool_steals = static_cast<int64_t>(report.stage.pool.steals);
  m.pool_idle_seconds = report.stage.pool.worker_idle_seconds;

  for (const AnalysisReport::CheckerStat& stat : report.checker_stats) {
    record.checker_stats.push_back({stat.name, static_cast<int64_t>(stat.candidates),
                                    static_cast<int64_t>(stat.findings)});
  }
  if (report.memory.collected) {
    auto cat = [&](MemCategory category) {
      return report.memory.categories[static_cast<size_t>(category)];
    };
    m.mem_collected = true;
    m.mem_ast_bytes = static_cast<int64_t>(cat(MemCategory::kAstNodes).bytes);
    m.mem_ast_objects = static_cast<int64_t>(cat(MemCategory::kAstNodes).objects);
    m.mem_ir_bytes = static_cast<int64_t>(cat(MemCategory::kIrInstructions).bytes);
    m.mem_ir_objects = static_cast<int64_t>(cat(MemCategory::kIrInstructions).objects);
    m.mem_strings_bytes = static_cast<int64_t>(cat(MemCategory::kInternedStrings).bytes);
    m.mem_strings_objects = static_cast<int64_t>(cat(MemCategory::kInternedStrings).objects);
    m.mem_tracked_bytes = static_cast<int64_t>(report.memory.TrackedBytes());
    m.mem_peak_rss_bytes = static_cast<int64_t>(report.memory.peak_rss_bytes);
  }
  return record;
}

void FillIncrementalMetrics(const IncrementalResult& result, LedgerMetrics& metrics) {
  metrics.inc_collected = true;
  metrics.inc_commit = result.commit;
  metrics.inc_files_changed = result.files_changed;
  metrics.inc_files_reparsed = result.files_reparsed;
  metrics.inc_functions_total = result.functions_total;
  metrics.inc_functions_dirty = result.functions_dirty;
  metrics.inc_findings_carried = result.findings_carried;
  metrics.inc_findings_new = result.findings_new;
  metrics.inc_findings_fixed = result.findings_fixed;
  metrics.inc_cache_hit_rate = result.cache.DetectHitRate();
  metrics.inc_seconds = result.seconds;
}

RunDiff ComputeRunDiff(const RunRecord& a, const RunRecord& b,
                       const RegressionThresholds& thresholds) {
  RunDiff diff;
  diff.run_a = a.run_id;
  diff.run_b = b.run_id;

  // Checker-set drift. A finding is only classified new/fixed when the other
  // run could have produced it (its checker was enabled there). Records
  // written before the checker framework carry no checker list; treat an
  // absent list as "every checker" so their findings still classify.
  std::set<std::string> checkers_a(a.checkers.begin(), a.checkers.end());
  std::set<std::string> checkers_b(b.checkers.begin(), b.checkers.end());
  auto enabled_in_a = [&](const std::string& checker) {
    return checkers_a.empty() || checkers_a.count(checker) > 0;
  };
  auto enabled_in_b = [&](const std::string& checker) {
    return checkers_b.empty() || checkers_b.count(checker) > 0;
  };
  for (const std::string& name : checkers_b) {
    if (!checkers_a.count(name)) {
      diff.checkers_added.push_back(name);
    }
  }
  for (const std::string& name : checkers_a) {
    if (!checkers_b.count(name)) {
      diff.checkers_removed.push_back(name);
    }
  }

  std::set<std::string> in_a;
  std::set<std::string> in_b;
  for (const LedgerFinding& finding : a.findings) {
    in_a.insert(FindingKey(finding));
  }
  for (const LedgerFinding& finding : b.findings) {
    in_b.insert(FindingKey(finding));
  }
  for (const LedgerFinding& finding : b.findings) {
    if (in_a.count(FindingKey(finding))) {
      diff.persistent.push_back(finding);
    } else if (enabled_in_a(finding.checker)) {
      diff.added.push_back(finding);
    }
  }
  for (const LedgerFinding& finding : a.findings) {
    if (!in_b.count(FindingKey(finding)) && enabled_in_b(finding.checker)) {
      diff.fixed.push_back(finding);
    }
  }
  SortFindings(diff.added);
  SortFindings(diff.fixed);
  SortFindings(diff.persistent);

  // Deterministic counter deltas first, then timings. The counters come from
  // the slot-indexed merge so they're identical at any job count.
  const LedgerMetrics& ma = a.metrics;
  const LedgerMetrics& mb = b.metrics;
  auto counter = [&](const std::string& name, double before, double after) {
    diff.deltas.push_back(
        {name, before, after, /*timing=*/false, /*sampled=*/false, /*regressed=*/false});
  };
  counter("findings", static_cast<double>(a.findings.size()),
          static_cast<double>(b.findings.size()));
  counter("files_parsed", static_cast<double>(ma.files_parsed),
          static_cast<double>(mb.files_parsed));
  counter("functions_analyzed", static_cast<double>(ma.functions_analyzed),
          static_cast<double>(mb.functions_analyzed));
  counter("candidates_detected", static_cast<double>(ma.candidates_detected),
          static_cast<double>(mb.candidates_detected));
  counter("pruned_total", static_cast<double>(ma.prune_total),
          static_cast<double>(mb.prune_total));
  // Memory: tracked bytes are exact/deterministic; peak RSS is a per-run
  // sample (reported, never gated — no counter is). Only comparable when both
  // runs actually collected memory (pre-v2 records read back as not
  // collected), so mixed-version diffs skip the rows instead of inventing
  // zero baselines.
  if (ma.mem_collected && mb.mem_collected) {
    counter("mem_tracked_bytes", static_cast<double>(ma.mem_tracked_bytes),
            static_cast<double>(mb.mem_tracked_bytes));
    diff.deltas.push_back({"mem_peak_rss_bytes", static_cast<double>(ma.mem_peak_rss_bytes),
                           static_cast<double>(mb.mem_peak_rss_bytes),
                           /*timing=*/false, /*sampled=*/true, /*regressed=*/false});
  }

  // Per-pattern prune rates, joined by name (patterns may differ across tool
  // versions; unmatched ones are compared against an absent 0/0 side).
  for (const LedgerPrunePattern& pb : mb.prune_patterns) {
    const LedgerPrunePattern* pa = nullptr;
    for (const LedgerPrunePattern& candidate : ma.prune_patterns) {
      if (candidate.name == pb.name) {
        pa = &candidate;
        break;
      }
    }
    double before = pa != nullptr ? PruneRate(pa->pruned, pa->tested) : 0.0;
    double after = PruneRate(pb.pruned, pb.tested);
    MetricDelta delta{"prune_rate." + pb.name, before, after, false, false};
    // Only meaningful when both runs actually exercised the pattern.
    bool comparable = pa != nullptr && pa->tested > 0 && pb.tested > 0;
    if (comparable && before - after > thresholds.prune_rate_drop) {
      delta.regressed = true;
      diff.regressions.push_back("prune rate of " + pb.name + " dropped " +
                                 FormatDouble(before * 100, 1) + "% -> " +
                                 FormatDouble(after * 100, 1) + "%");
    }
    diff.deltas.push_back(delta);
  }

  struct StagePair {
    const char* name;
    double before;
    double after;
  } stages[] = {
      {"analysis_seconds", ma.analysis_seconds, mb.analysis_seconds},
      {"parse_seconds", ma.parse_seconds, mb.parse_seconds},
      {"detect_seconds", ma.detect_seconds, mb.detect_seconds},
      {"authorship_seconds", ma.authorship_seconds, mb.authorship_seconds},
      {"filter_seconds", ma.filter_seconds, mb.filter_seconds},
      {"prune_seconds", ma.prune_seconds, mb.prune_seconds},
      {"rank_seconds", ma.rank_seconds, mb.rank_seconds},
  };
  for (const StagePair& stage : stages) {
    MetricDelta delta{stage.name, stage.before, stage.after, /*timing=*/true, false};
    bool breached = stage.after > stage.before * thresholds.stage_ratio &&
                    stage.after - stage.before > thresholds.stage_floor_seconds;
    if (breached) {
      delta.regressed = true;
      diff.regressions.push_back(std::string(stage.name) + " regressed " +
                                 FormatDouble(stage.before, 3) + "s -> " +
                                 FormatDouble(stage.after, 3) + "s (ratio threshold " +
                                 FormatDouble(thresholds.stage_ratio, 2) + "x)");
    }
    diff.deltas.push_back(delta);
  }

  if (static_cast<int>(diff.added.size()) > thresholds.max_new_findings) {
    diff.regressions.insert(
        diff.regressions.begin(),
        std::to_string(diff.added.size()) + " new finding(s) (allowed: " +
            std::to_string(thresholds.max_new_findings) + ")");
  }
  return diff;
}

std::string RenderDiffText(const RunDiff& diff, bool include_timings) {
  std::string out;
  out += "diff " + diff.run_a + " -> " + diff.run_b + ": " +
         std::to_string(diff.added.size()) + " new, " + std::to_string(diff.fixed.size()) +
         " fixed, " + std::to_string(diff.persistent.size()) + " persistent\n";
  if (!diff.checkers_added.empty() || !diff.checkers_removed.empty()) {
    out += "checkers changed:";
    for (const std::string& name : diff.checkers_added) {
      out += " +" + name;
    }
    for (const std::string& name : diff.checkers_removed) {
      out += " -" + name;
    }
    out += " (their findings are not classified as new/fixed)\n";
  }

  auto section = [&](const char* title, const std::vector<LedgerFinding>& findings,
                     const char* marker) {
    if (findings.empty()) {
      return;
    }
    out += "\n";
    out += title;
    out += ":\n";
    for (const LedgerFinding& finding : findings) {
      out += std::string("  ") + marker + " [" + finding.checker + ":" + finding.fingerprint +
             "] " + finding.file + " " + finding.function + "(): " + finding.variable + " (" +
             finding.kind + ")\n";
    }
  };
  section("new findings", diff.added, "+");
  section("fixed findings", diff.fixed, "-");

  TableWriter counters({"metric", "before", "after", "delta"});
  bool any_counter = false;
  for (const MetricDelta& delta : diff.deltas) {
    if (delta.timing) {
      continue;
    }
    // Sampled rows (peak RSS) vary run to run even on identical inputs, so
    // they ride with the equally nondeterministic --timings view; the
    // default rendering stays byte-identical for identical analyses.
    if (delta.sampled && !include_timings) {
      continue;
    }
    any_counter = true;
    bool rate = delta.name.rfind("prune_rate.", 0) == 0;
    auto fmt = [&](double value) {
      return rate ? FormatDouble(value * 100, 1) + "%" : std::to_string(static_cast<long long>(value));
    };
    std::string change = rate ? FormatDouble((delta.after - delta.before) * 100, 1) + "%"
                              : std::to_string(static_cast<long long>(delta.after) -
                                               static_cast<long long>(delta.before));
    counters.AddRow({delta.name, fmt(delta.before), fmt(delta.after),
                     change + (delta.regressed ? "  <-- REGRESSED" : "")});
  }
  if (any_counter) {
    out += "\n" + counters.RenderText();
  }

  if (include_timings) {
    TableWriter timings({"stage", "before_s", "after_s", "note"});
    for (const MetricDelta& delta : diff.deltas) {
      if (!delta.timing) {
        continue;
      }
      timings.AddRow({delta.name, FormatDouble(delta.before, 4), FormatDouble(delta.after, 4),
                      delta.regressed ? "REGRESSED" : ""});
    }
    out += "\n" + timings.RenderText();
  }

  if (!diff.regressions.empty()) {
    out += "\nregressions:\n";
    for (const std::string& line : diff.regressions) {
      out += "  ! " + line + "\n";
    }
  }
  return out;
}

std::string DiffToJson(const RunDiff& diff) {
  JsonWriter json;
  json.BeginObject();
  json.String("run_a", diff.run_a);
  json.String("run_b", diff.run_b);
  json.Key("checkers_added").BeginArray();
  for (const std::string& name : diff.checkers_added) {
    json.StringValue(name);
  }
  json.EndArray();
  json.Key("checkers_removed").BeginArray();
  for (const std::string& name : diff.checkers_removed) {
    json.StringValue(name);
  }
  json.EndArray();
  auto findings = [&](const char* key, const std::vector<LedgerFinding>& list) {
    json.Key(key).BeginArray();
    for (const LedgerFinding& finding : list) {
      json.BeginObject();
      json.String("fingerprint", finding.fingerprint);
      json.String("checker", finding.checker);
      json.String("file", finding.file);
      json.Int("line", finding.line);
      json.String("function", finding.function);
      json.String("variable", finding.variable);
      json.String("kind", finding.kind);
      json.EndObject();
    }
    json.EndArray();
  };
  findings("new", diff.added);
  findings("fixed", diff.fixed);
  findings("persistent", diff.persistent);
  json.Key("metrics").BeginArray();
  for (const MetricDelta& delta : diff.deltas) {
    json.BeginObject();
    json.String("name", delta.name);
    json.Double("before", delta.before);
    json.Double("after", delta.after);
    json.Bool("timing", delta.timing);
    json.Bool("sampled", delta.sampled);
    json.Bool("regressed", delta.regressed);
    json.EndObject();
  }
  json.EndArray();
  json.Key("regressions").BeginArray();
  for (const std::string& line : diff.regressions) {
    json.StringValue(line);
  }
  json.EndArray();
  json.Bool("check_passed", diff.regressions.empty());
  json.EndObject();
  return json.str();
}

}  // namespace vc
