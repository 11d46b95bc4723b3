// Machine-readable exports of an analysis report:
//
//   * JSON — the full finding records (locations, kinds, checker identity,
//     authorship, familiarity, prune statistics) for downstream triage
//     tooling;
//   * SARIF 2.1.0 — the interchange format CI code-scanning UIs ingest
//     (one result per finding; rule ids per candidate kind for unused-def,
//     per checker name for every other checker).

#ifndef VALUECHECK_SRC_CORE_REPORT_FORMATS_H_
#define VALUECHECK_SRC_CORE_REPORT_FORMATS_H_

#include <string>

#include "src/core/analysis.h"
#include "src/vcs/repository.h"

namespace vc {

// The JSON report's schema_version (history in report_formats.cc).
inline constexpr int kReportSchemaVersion = 11;

// `repo` resolves author ids to names; pass null to omit author names.
// `incremental`, when given, adds the schema-v8 "incremental" block (commit,
// work accounting, fingerprint deltas, cache hit rates) to the JSON.
struct IncrementalResult;
std::string ReportToJson(const AnalysisReport& report, const Repository* repo = nullptr,
                         const IncrementalResult* incremental = nullptr);

std::string ReportToSarif(const AnalysisReport& report);

// Aligned text table of the report's stage records and StageMetrics block:
// one row per pipeline stage (parse, detect, authorship, cross-scope filter,
// prune + one row per pruning pattern, rank) plus thread-pool activity.
// Empty string when the report was produced without collect_metrics.
std::string RenderStageMetricsTable(const AnalysisReport& report);

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_REPORT_FORMATS_H_
