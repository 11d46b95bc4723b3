#include "src/core/html_dashboard.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <map>

#include "src/core/run_diff.h"
#include "src/support/table_writer.h"

namespace vc {

namespace {

std::string EscapeHtml(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
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

double PruneRatePercent(const LedgerMetrics& m) {
  int64_t tested = 0;
  int64_t pruned = 0;
  for (const LedgerPrunePattern& pattern : m.prune_patterns) {
    tested += pattern.tested;
    pruned += pattern.pruned;
  }
  return tested > 0 ? 100.0 * static_cast<double>(pruned) / static_cast<double>(tested) : 0.0;
}

// One single-series sparkline: a 2px polyline plus hoverable point markers
// (native <title> tooltips — the zero-script stand-in for a tooltip layer).
// Single series, so no legend; the tile caption names it and the last value
// is direct-labeled. `labels` names each point in its tooltip (empty =
// "run N", the ledger-trend default); `empty_note` is shown when there are
// too few points to draw a line.
std::string LabeledSparkline(const std::vector<double>& values,
                             const std::vector<std::string>& labels, int decimals,
                             const std::string& empty_note) {
  const double width = 260.0;
  const double height = 56.0;
  const double pad = 6.0;
  std::string svg = "<svg class=\"spark\" viewBox=\"0 0 260 72\" role=\"img\" "
                    "preserveAspectRatio=\"none\">";
  if (values.size() < 2) {
    svg += "<text x=\"8\" y=\"40\" class=\"spark-empty\">" + EscapeHtml(empty_note) +
           "</text></svg>";
    return svg;
  }
  double lo = values[0];
  double hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  double span = hi - lo;
  if (span <= 0) {
    span = 1.0;  // flat line renders mid-height
  }
  auto x_at = [&](size_t i) {
    return pad + (width - 2 * pad) * static_cast<double>(i) /
               static_cast<double>(values.size() - 1);
  };
  auto y_at = [&](double v) { return pad + (height - 2 * pad) * (1.0 - (v - lo) / span) + 8.0; };

  std::string points;
  for (size_t i = 0; i < values.size(); ++i) {
    if (!points.empty()) {
      points += ' ';
    }
    points += FormatDouble(x_at(i), 1) + "," + FormatDouble(y_at(values[i]), 1);
  }
  svg += "<polyline class=\"spark-line\" fill=\"none\" points=\"" + points + "\"/>";
  for (size_t i = 0; i < values.size(); ++i) {
    std::string label = i < labels.size() ? labels[i] : "run " + std::to_string(i + 1);
    svg += "<circle class=\"spark-dot\" cx=\"" + FormatDouble(x_at(i), 1) + "\" cy=\"" +
           FormatDouble(y_at(values[i]), 1) + "\" r=\"4\"><title>" + EscapeHtml(label) +
           ": " + FormatDouble(values[i], decimals) + "</title></circle>";
  }
  // Direct label on the newest value only (selective labeling).
  svg += "<text class=\"spark-label\" x=\"" + FormatDouble(x_at(values.size() - 1) - 4, 1) +
         "\" y=\"" + FormatDouble(std::max(14.0, y_at(values.back()) - 8), 1) +
         "\" text-anchor=\"end\">" + FormatDouble(values.back(), decimals) + "</text>";
  svg += "</svg>";
  return svg;
}

std::string Sparkline(const std::vector<double>& values, int decimals) {
  return LabeledSparkline(values, {}, decimals, "need \xe2\x89\xa5 2 runs for a trend");
}

void StatTile(std::string& out, const std::string& value, const std::string& caption,
              const std::string& badge_class = "") {
  out += "<div class=\"tile\"><div class=\"tile-value";
  if (!badge_class.empty()) {
    out += " " + badge_class;
  }
  out += "\">" + value + "</div><div class=\"tile-caption\">" + caption + "</div></div>";
}

const char* kStyle = R"css(
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb;
  --surface-2: #f0efec;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --series-1: #2a78d6;
  --status-good: #0ca30c;
  --status-critical: #d03b3b;
  --border: #dddcd8;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19;
    --surface-2: #262624;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --series-1: #3987e5;
    --border: #3c3b38;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.5 -apple-system, "Segoe UI", Roboto, "Helvetica Neue", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.subtitle { color: var(--text-secondary); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface-2); border: 1px solid var(--border); border-radius: 8px;
  padding: 12px 16px; min-width: 130px;
}
.tile-value { font-size: 24px; font-weight: 600; font-variant-numeric: tabular-nums; }
.tile-caption { color: var(--text-secondary); font-size: 12px; }
.delta-new { color: var(--status-critical); }
.delta-fixed { color: var(--status-good); }
.cards { display: flex; flex-wrap: wrap; gap: 12px; }
.card {
  background: var(--surface-2); border: 1px solid var(--border); border-radius: 8px;
  padding: 12px 16px;
}
.card h3 { margin: 0 0 6px; font-size: 13px; font-weight: 600; color: var(--text-secondary); }
.spark { width: 260px; height: 72px; display: block; }
.spark-line { stroke: var(--series-1); stroke-width: 2; }
.spark-dot { fill: var(--series-1); stroke: var(--surface-2); stroke-width: 2; }
.spark-label { fill: var(--text-primary); font-size: 11px; font-weight: 600; }
.spark-empty { fill: var(--text-secondary); font-size: 11px; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 6px 10px; border-bottom: 1px solid var(--border); }
th { color: var(--text-secondary); font-size: 12px; font-weight: 600; }
td { font-variant-numeric: tabular-nums; }
tr:hover td { background: var(--surface-2); }
.badge {
  display: inline-block; padding: 1px 8px; border-radius: 10px; font-size: 11px;
  font-weight: 600; border: 1px solid var(--border); color: var(--text-secondary);
}
.badge-new { border-color: var(--status-critical); color: var(--status-critical); }
.badge-fixed { border-color: var(--status-good); color: var(--status-good); }
.fp { font-family: ui-monospace, SFMono-Regular, Menlo, monospace; font-size: 12px;
      color: var(--text-secondary); }
.empty { color: var(--text-secondary); padding: 24px 0; }
)css";

}  // namespace

std::string RenderHtmlDashboard(const std::vector<RunRecord>& runs) {
  std::string out;
  out += "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
         "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n"
         "<title>valuecheck run ledger</title>\n<style>";
  out += kStyle;
  out += "</style>\n</head>\n<body>\n";
  out += "<h1>valuecheck run ledger</h1>\n";

  if (runs.empty()) {
    out += "<p class=\"empty\">The ledger has no runs yet. Record one with "
           "<code>valuecheck analyze --ledger DIR ...</code></p>\n</body>\n</html>\n";
    return out;
  }

  const RunRecord& latest = runs.back();
  const RunRecord* previous = runs.size() >= 2 ? &runs[runs.size() - 2] : nullptr;

  // New/fixed against the previous run: exactly what `valuecheck diff`
  // reports, so a checker the previous run did not enable adds no "new".
  RunDiff diff;
  if (previous != nullptr) {
    diff = ComputeRunDiff(*previous, latest);
  }
  const size_t new_count = diff.added.size();
  const size_t fixed_count = diff.fixed.size();

  out += "<p class=\"subtitle\">" + std::to_string(runs.size()) + " run(s) \xc2\xb7 latest " +
         EscapeHtml(latest.run_id) + " (" + FormatTimestamp(latest.timestamp_ms) + " UTC)" +
         (latest.label.empty() ? "" : " \xc2\xb7 " + EscapeHtml(latest.label)) + "</p>\n";

  out += "<div class=\"tiles\">";
  StatTile(out, std::to_string(latest.findings.size()), "findings (latest)");
  if (previous != nullptr) {
    StatTile(out, (new_count > 0 ? "+" : "") + std::to_string(new_count), "new vs " +
             EscapeHtml(previous->run_id), new_count > 0 ? "delta-new" : "");
    StatTile(out, "\xe2\x88\x92" + std::to_string(fixed_count), "fixed vs " +
             EscapeHtml(previous->run_id), fixed_count > 0 ? "delta-fixed" : "");
  }
  StatTile(out, FormatDouble(latest.metrics.analysis_seconds, 3) + "s", "analysis time");
  StatTile(out, std::to_string(latest.jobs), "jobs");
  StatTile(out, std::to_string(latest.metrics.functions_analyzed), "functions analyzed");
  out += "</div>\n";

  // Trends across every ledger run.
  std::vector<double> findings_trend;
  std::vector<double> seconds_trend;
  std::vector<double> prune_trend;
  std::vector<double> detect_trend;
  std::vector<double> parse_trend;
  for (const RunRecord& run : runs) {
    findings_trend.push_back(static_cast<double>(run.findings.size()));
    seconds_trend.push_back(run.metrics.analysis_seconds);
    prune_trend.push_back(PruneRatePercent(run.metrics));
    detect_trend.push_back(run.metrics.detect_seconds);
    parse_trend.push_back(run.metrics.parse_seconds);
  }
  out += "<h2>Trends (" + std::to_string(runs.size()) + " runs)</h2>\n<div class=\"cards\">";
  out += "<div class=\"card\"><h3>findings</h3>" + Sparkline(findings_trend, 0) + "</div>";
  out += "<div class=\"card\"><h3>analysis seconds</h3>" + Sparkline(seconds_trend, 3) + "</div>";
  out += "<div class=\"card\"><h3>prune rate %</h3>" + Sparkline(prune_trend, 1) + "</div>";
  out += "<div class=\"card\"><h3>parse seconds</h3>" + Sparkline(parse_trend, 3) + "</div>";
  out += "<div class=\"card\"><h3>detect seconds</h3>" + Sparkline(detect_trend, 3) + "</div>";
  out += "</div>\n";

  // Per-checker trends: findings count and precision (surviving findings /
  // raw candidates). Series are built per checker name over the runs that
  // recorded stats for it — pre-v2 records carry none and simply don't
  // contribute points, so mixed-version ledgers still render.
  std::vector<std::string> checker_names;
  for (const RunRecord& run : runs) {
    for (const LedgerCheckerStat& stat : run.checker_stats) {
      if (std::find(checker_names.begin(), checker_names.end(), stat.name) ==
          checker_names.end()) {
        checker_names.push_back(stat.name);
      }
    }
  }
  if (!checker_names.empty()) {
    out += "<h2>Per-checker trends</h2>\n<div class=\"cards\">";
    for (const std::string& name : checker_names) {
      std::vector<double> checker_findings;
      std::vector<double> checker_precision;
      for (const RunRecord& run : runs) {
        for (const LedgerCheckerStat& stat : run.checker_stats) {
          if (stat.name != name) {
            continue;
          }
          checker_findings.push_back(static_cast<double>(stat.findings));
          checker_precision.push_back(
              stat.candidates > 0
                  ? 100.0 * static_cast<double>(stat.findings) /
                        static_cast<double>(stat.candidates)
                  : 0.0);
        }
      }
      out += "<div class=\"card\"><h3>" + EscapeHtml(name) + " findings</h3>" +
             Sparkline(checker_findings, 0) + "</div>";
      out += "<div class=\"card\"><h3>" + EscapeHtml(name) +
             " precision % (findings/candidates)</h3>" + Sparkline(checker_precision, 1) +
             "</div>";
    }
    out += "</div>\n";
  }

  // Memory trends over the runs that collected accounting (--metrics). The
  // tracked series is exact and deterministic; peak RSS is a per-run sample.
  std::vector<double> mem_tracked_mb;
  std::vector<double> mem_rss_mb;
  for (const RunRecord& run : runs) {
    if (!run.metrics.mem_collected) {
      continue;
    }
    mem_tracked_mb.push_back(static_cast<double>(run.metrics.mem_tracked_bytes) / 1e6);
    mem_rss_mb.push_back(static_cast<double>(run.metrics.mem_peak_rss_bytes) / 1e6);
  }
  if (!mem_tracked_mb.empty()) {
    out += "<h2>Memory (" + std::to_string(mem_tracked_mb.size()) +
           " run(s) with accounting)</h2>\n<div class=\"cards\">";
    out += "<div class=\"card\"><h3>tracked MB (exact)</h3>" + Sparkline(mem_tracked_mb, 2) +
           "</div>";
    out += "<div class=\"card\"><h3>peak RSS MB (sampled)</h3>" + Sparkline(mem_rss_mb, 1) +
           "</div>";
    out += "</div>\n";
  }

  // Scalability observatory: utilization and imbalance trends over
  // the runs that produced a perf report (--perf-report or the scalability
  // bench). Pre-v3 records carry no perf block and contribute no points.
  std::vector<double> util_trend;
  std::vector<double> imbalance_trend;
  for (const RunRecord& run : runs) {
    if (!run.metrics.perf_collected) {
      continue;
    }
    util_trend.push_back(100.0 * run.metrics.perf_utilization);
    imbalance_trend.push_back(run.metrics.perf_imbalance_ratio);
  }
  if (!util_trend.empty()) {
    out += "<h2>Scalability (" + std::to_string(util_trend.size()) +
           " run(s) with perf reports)</h2>\n<div class=\"cards\">";
    out += "<div class=\"card\"><h3>worker utilization % (mean)</h3>" +
           Sparkline(util_trend, 1) + "</div>";
    out += "<div class=\"card\"><h3>imbalance (max/mean busy)</h3>" +
           Sparkline(imbalance_trend, 2) + "</div>";
    out += "</div>\n";
  }

  // Incremental engine: full-vs-incremental trend over the runs that carry
  // the v4 metrics.incremental block (`analyze --incremental` replays and
  // bench_incremental's sampled points). For bench records analysis_seconds
  // holds the sampled full-run time, so the two seconds cards together are
  // the full-vs-incremental comparison; hit rate and dirty-slice cards track
  // whether the cache keeps doing the work.
  std::vector<double> inc_seconds_trend;
  std::vector<double> inc_full_trend;
  std::vector<double> inc_hit_trend;
  std::vector<double> inc_dirty_trend;
  for (const RunRecord& run : runs) {
    if (!run.metrics.inc_collected) {
      continue;
    }
    inc_seconds_trend.push_back(run.metrics.inc_seconds);
    inc_full_trend.push_back(run.metrics.analysis_seconds);
    inc_hit_trend.push_back(100.0 * run.metrics.inc_cache_hit_rate);
    inc_dirty_trend.push_back(
        run.metrics.inc_functions_total > 0
            ? 100.0 * static_cast<double>(run.metrics.inc_functions_dirty) /
                  static_cast<double>(run.metrics.inc_functions_total)
            : 0.0);
  }
  if (!inc_seconds_trend.empty()) {
    out += "<h2>Incremental engine (" + std::to_string(inc_seconds_trend.size()) +
           " incremental run(s))</h2>\n<div class=\"cards\">";
    out += "<div class=\"card\"><h3>incremental seconds per commit</h3>" +
           Sparkline(inc_seconds_trend, 4) + "</div>";
    out += "<div class=\"card\"><h3>full-run seconds (same commits)</h3>" +
           Sparkline(inc_full_trend, 4) + "</div>";
    out += "<div class=\"card\"><h3>detect cache hit rate %</h3>" +
           Sparkline(inc_hit_trend, 1) + "</div>";
    out += "<div class=\"card\"><h3>dirty slice % of functions</h3>" +
           Sparkline(inc_dirty_trend, 1) + "</div>";
    out += "</div>\n";
  }

  // Serve envelope: latency/throughput/robustness trends over the runs that
  // carry the v5 serve block (`valuecheck serve` drains and vc_loadgen
  // reports). Shed/degraded/deadline are plotted as a percentage of requests
  // so bursts of different sizes stay comparable.
  std::vector<double> serve_qps_trend;
  std::vector<double> serve_p50_trend;
  std::vector<double> serve_p99_trend;
  std::vector<double> serve_nonok_trend;
  for (const RunRecord& run : runs) {
    const LedgerMetrics& m = run.metrics;
    if (!m.serve_collected) {
      continue;
    }
    serve_qps_trend.push_back(m.serve_qps);
    serve_p50_trend.push_back(m.serve_p50_ms);
    serve_p99_trend.push_back(m.serve_p99_ms);
    const double requests = static_cast<double>(m.serve_requests);
    serve_nonok_trend.push_back(
        requests > 0
            ? 100.0 *
                  static_cast<double>(m.serve_shed + m.serve_degraded +
                                      m.serve_deadline + m.serve_failed) /
                  requests
            : 0.0);
  }
  if (!serve_qps_trend.empty()) {
    out += "<h2>Serve envelope (" + std::to_string(serve_qps_trend.size()) +
           " run(s) with serve blocks)</h2>\n<div class=\"cards\">";
    out += "<div class=\"card\"><h3>throughput QPS</h3>" +
           Sparkline(serve_qps_trend, 1) + "</div>";
    out += "<div class=\"card\"><h3>p50 latency ms</h3>" +
           Sparkline(serve_p50_trend, 1) + "</div>";
    out += "<div class=\"card\"><h3>p99 latency ms</h3>" +
           Sparkline(serve_p99_trend, 1) + "</div>";
    out += "<div class=\"card\"><h3>shed+degraded+deadline+failed %</h3>" +
           Sparkline(serve_nonok_trend, 1) + "</div>";
    out += "</div>\n";
  }

  // Speedup curves from the newest scalability bench sweep: records labeled
  // "bench:scalability <profile> jobs=N" by bench_table7_scalability. Newest
  // record wins per (profile, jobs); a curve renders once its profile has a
  // jobs=1 baseline.
  const std::string kBenchPrefix = "bench:scalability ";
  std::vector<std::string> sweep_profiles;                       // first-seen order
  std::map<std::string, std::map<int, double>> sweep_seconds;    // profile -> jobs -> s
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
    if (it->label.rfind(kBenchPrefix, 0) != 0) {
      continue;
    }
    size_t jobs_pos = it->label.rfind(" jobs=");
    if (jobs_pos == std::string::npos || jobs_pos <= kBenchPrefix.size()) {
      continue;
    }
    std::string profile = it->label.substr(kBenchPrefix.size(), jobs_pos - kBenchPrefix.size());
    int jobs = std::atoi(it->label.c_str() + jobs_pos + 6);
    if (jobs < 1 || sweep_seconds[profile].count(jobs)) {
      continue;  // older duplicate of a point we already have
    }
    if (std::find(sweep_profiles.begin(), sweep_profiles.end(), profile) ==
        sweep_profiles.end()) {
      sweep_profiles.push_back(profile);
    }
    sweep_seconds[profile][jobs] = it->metrics.analysis_seconds;
  }
  if (!sweep_profiles.empty()) {
    out += "<h2>Speedup vs jobs (latest bench sweep)</h2>\n<div class=\"cards\">";
    for (const std::string& profile : sweep_profiles) {
      const std::map<int, double>& points = sweep_seconds[profile];
      auto base = points.find(1);
      if (base == points.end() || base->second <= 0.0) {
        continue;
      }
      std::vector<double> speedups;
      std::vector<std::string> labels;
      for (const auto& [jobs, seconds] : points) {
        speedups.push_back(seconds > 0.0 ? base->second / seconds : 0.0);
        labels.push_back("jobs=" + std::to_string(jobs));
      }
      out += "<div class=\"card\"><h3>" + EscapeHtml(profile) + " speedup</h3>" +
             LabeledSparkline(speedups, labels, 2, "need jobs=1 and one more point") +
             "</div>";
    }
    out += "</div>\n";
  }

  // Latest findings, new ones flagged (badge carries a text label, so the
  // state never rides on color alone).
  out += "<h2>Findings in " + EscapeHtml(latest.run_id) + "</h2>\n";
  if (latest.findings.empty()) {
    out += "<p class=\"empty\">No findings \xe2\x80\x94 clean run.</p>\n";
  } else {
    out += "<table>\n<tr><th>status</th><th>checker</th><th>fingerprint</th><th>file</th>"
           "<th>line</th><th>function</th><th>variable</th><th>kind</th>"
           "<th>familiarity</th></tr>\n";
    for (const LedgerFinding& finding : latest.findings) {
      const bool is_new = std::binary_search(diff.added.begin(), diff.added.end(), finding,
                                             RunDiffOrder);
      out += "<tr><td><span class=\"badge" + std::string(is_new ? " badge-new" : "") + "\">" +
             (is_new ? "new" : "persistent") + "</span></td>";
      out += "<td>" + EscapeHtml(finding.checker) + "</td>";
      out += "<td class=\"fp\">" + EscapeHtml(finding.fingerprint) + "</td>";
      out += "<td>" + EscapeHtml(finding.file) + "</td>";
      out += "<td>" + std::to_string(finding.line) + "</td>";
      out += "<td>" + EscapeHtml(finding.function) + "</td>";
      out += "<td>" + EscapeHtml(finding.variable) + "</td>";
      out += "<td>" + EscapeHtml(finding.kind) + "</td>";
      out += "<td>" + FormatDouble(finding.familiarity, 2) + "</td></tr>\n";
    }
    out += "</table>\n";
  }
  if (previous != nullptr && fixed_count > 0) {
    out += "<h2>Fixed since " + EscapeHtml(previous->run_id) + "</h2>\n<table>\n"
           "<tr><th>status</th><th>checker</th><th>fingerprint</th><th>file</th>"
           "<th>function</th><th>variable</th><th>kind</th></tr>\n";
    for (const LedgerFinding& finding : diff.fixed) {
      out += "<tr><td><span class=\"badge badge-fixed\">fixed</span></td>";
      out += "<td>" + EscapeHtml(finding.checker) + "</td>";
      out += "<td class=\"fp\">" + EscapeHtml(finding.fingerprint) + "</td>";
      out += "<td>" + EscapeHtml(finding.file) + "</td>";
      out += "<td>" + EscapeHtml(finding.function) + "</td>";
      out += "<td>" + EscapeHtml(finding.variable) + "</td>";
      out += "<td>" + EscapeHtml(finding.kind) + "</td></tr>\n";
    }
    out += "</table>\n";
  }

  // Run history, newest first (the table view of every trend above).
  out += "<h2>Run history</h2>\n<table>\n<tr><th>run</th><th>timestamp (UTC)</th>"
         "<th>label</th><th>jobs</th><th>findings</th><th>analysis s</th>"
         "<th>prune rate %</th><th>options</th></tr>\n";
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
    out += "<tr><td>" + EscapeHtml(it->run_id) + "</td>";
    out += "<td>" + FormatTimestamp(it->timestamp_ms) + "</td>";
    out += "<td>" + EscapeHtml(it->label) + "</td>";
    out += "<td>" + std::to_string(it->jobs) + "</td>";
    out += "<td>" + std::to_string(it->findings.size()) + "</td>";
    out += "<td>" + FormatDouble(it->metrics.analysis_seconds, 3) + "</td>";
    out += "<td>" + FormatDouble(PruneRatePercent(it->metrics), 1) + "</td>";
    out += "<td>" + EscapeHtml(it->options_summary) + "</td></tr>\n";
  }
  out += "</table>\n</body>\n</html>\n";
  return out;
}

}  // namespace vc
