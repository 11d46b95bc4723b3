#include "src/testing/oracle.h"

#include <algorithm>
#include <map>

#include "src/core/incremental.h"
#include "src/core/report_formats.h"
#include "src/dataflow/liveness.h"
#include "src/pointer/andersen.h"
#include "src/support/json_reader.h"

namespace vc {
namespace testing {

namespace {

void AppendCandidate(std::string& out, const UnusedDefCandidate& cand) {
  out += cand.checker;
  out += ':';
  out += cand.fingerprint;
  out += '|';
  out += cand.file;
  out += ':';
  out += std::to_string(cand.def_loc.line);
  out += ':';
  out += std::to_string(cand.def_loc.column);
  out += '|';
  out += cand.function;
  out += '|';
  out += cand.slot_name;
  out += '|';
  out += CandidateKindName(cand.kind);
  out += '|';
  out += cand.cross_scope ? "x" : "-";
  out += cand.is_param ? "p" : "-";
  out += cand.is_synthetic ? "s" : "-";
  out += cand.is_field_slot ? "f" : "-";
  out += cand.overwritten ? "o" : "-";
  out += '|';
  out += std::to_string(cand.def_author);
  out += ',';
  out += std::to_string(cand.responsible_author);
  out += '|';
  out += cand.callee_name;
  out += '|';
  for (const SourceLoc& loc : cand.overwriter_locs) {
    out += std::to_string(loc.line);
    out += ',';
  }
  out += '|';
  out += PruneReasonName(cand.pruned_by);
  out += '|';
  out += std::to_string(cand.familiarity);
  out += '\n';
}

// The degraded_run oracle's analysis configuration. Peer-definition pruning
// consults corpus-global occurrence statistics, so legitimately quarantining
// one unit can flip another unit's verdict; it is disabled in both the clean
// and the faulted run so subset-equality of fingerprints holds by
// construction (every other prune pattern is function- or file-local).
AnalysisReport AnalyzeForDegraded(const TestProgram& program, int jobs, uint64_t seed,
                                  double rate, bool inject,
                                  const std::vector<std::string>& checkers) {
  AnalysisOptions options;
  options.checkers = checkers;
  options.cross_scope_only = false;
  options.jobs = jobs;
  options.prune.peer_definition = false;
  if (inject) {
    options.fault = FaultInjector(seed, rate);
  }
  return Analysis(options).RunOnSources(program.ToSources());
}

std::string JoinFingerprints(const std::set<std::string>& set) {
  std::string out;
  for (const std::string& fp : set) {
    if (!out.empty()) {
      out += ",";
    }
    out += fp;
  }
  return out;
}

}  // namespace

const char* OracleKindName(OracleKind kind) {
  switch (kind) {
    case OracleKind::kCleanFrontend:
      return "clean_frontend";
    case OracleKind::kJobsDeterminism:
      return "jobs_determinism";
    case OracleKind::kMetricsParity:
      return "metrics_parity";
    case OracleKind::kJsonRoundTrip:
      return "json_round_trip";
    case OracleKind::kMetamorphic:
      return "metamorphic";
    case OracleKind::kDegradedRun:
      return "degraded_run";
    case OracleKind::kIncrementalEquivalence:
      return "incremental_equivalence";
    case OracleKind::kAliasSoundness:
      return "alias_soundness";
  }
  return "unknown";
}

std::optional<OracleKind> OracleKindFromName(const std::string& name) {
  for (OracleKind kind : AllOracles()) {
    if (name == OracleKindName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

std::vector<OracleKind> AllOracles() {
  return {OracleKind::kCleanFrontend,  OracleKind::kJobsDeterminism,
          OracleKind::kMetricsParity,  OracleKind::kJsonRoundTrip,
          OracleKind::kMetamorphic,    OracleKind::kDegradedRun,
          OracleKind::kIncrementalEquivalence, OracleKind::kAliasSoundness};
}

bool OracleVerdict::Failed(OracleKind kind) const {
  for (const OracleFailure& failure : failures) {
    if (failure.oracle == kind) {
      return true;
    }
  }
  return false;
}

OracleRunner::OracleRunner(OracleOptions options) : options_(std::move(options)) {}

AnalysisReport OracleRunner::Analyze(const TestProgram& program, int jobs,
                                     bool collect_metrics) const {
  AnalysisOptions options;
  options.checkers = options_.checkers;
  options.cross_scope_only = false;
  options.jobs = jobs;
  options.collect_metrics = collect_metrics;
  AnalysisReport report = Analysis(options).RunOnSources(program.ToSources());
  if (jobs > 1 && options_.parallel_fault) {
    options_.parallel_fault(report);
  }
  return report;
}

std::string OracleRunner::SerializeFindings(const AnalysisReport& report) {
  std::string out;
  out += "findings\n";
  for (const UnusedDefCandidate& cand : report.findings) {
    AppendCandidate(out, cand);
  }
  out += "raw\n";
  for (const UnusedDefCandidate& cand : report.raw_candidates) {
    AppendCandidate(out, cand);
  }
  const PruneStats& prune = report.prune_stats;
  out += "prune|" + std::to_string(prune.original) + "|" +
         std::to_string(prune.config_dependency) + "|" + std::to_string(prune.cursor) + "|" +
         std::to_string(prune.unused_hints) + "|" + std::to_string(prune.peer_definition) +
         "|" + std::to_string(prune.stale_code) + "|" + std::to_string(prune.remaining) + "\n";
  out += "non_cross_scope|" + std::to_string(report.non_cross_scope) + "\n";
  out += "diagnostics|" + std::to_string(report.diagnostic_warnings) + "|" +
         std::to_string(report.diagnostic_errors) + "\n";
  return out;
}

std::string OracleRunner::SerializeQuarantine(const AnalysisReport& report) {
  std::string out;
  for (const QuarantinedUnit& unit : report.quarantined) {
    out += unit.path;
    out += '|';
    out += unit.function;
    out += '|';
    out += unit.stage;
    out += '|';
    out += unit.reason;
    out += '|';
    out += unit.checker;
    out += '\n';
  }
  return out;
}

std::set<std::string> OracleRunner::FingerprintSet(const AnalysisReport& report) {
  std::set<std::string> set;
  for (const UnusedDefCandidate& cand : report.findings) {
    set.insert(cand.checker + ":" + cand.fingerprint);
  }
  return set;
}

OracleVerdict OracleRunner::Check(const TestProgram& program) const {
  OracleVerdict verdict;
  std::vector<int> jobs = options_.jobs;
  if (jobs.empty()) {
    jobs = {1, 2, 8};
  }

  AnalysisReport base = Analyze(program, jobs.front(), /*collect_metrics=*/false);
  std::string base_serialized = SerializeFindings(base);

  if (Enabled(OracleKind::kCleanFrontend)) {
    if (base.diagnostic_errors != 0) {
      verdict.failures.push_back(
          {OracleKind::kCleanFrontend, "",
           std::to_string(base.diagnostic_errors) + " diagnostic error(s) on generated input"});
    }
  }

  AnalysisReport last_parallel;
  bool have_parallel = false;
  if (Enabled(OracleKind::kJobsDeterminism) || Enabled(OracleKind::kMetricsParity)) {
    for (size_t i = 1; i < jobs.size(); ++i) {
      AnalysisReport report = Analyze(program, jobs[i], /*collect_metrics=*/false);
      if (Enabled(OracleKind::kJobsDeterminism)) {
        std::string serialized = SerializeFindings(report);
        if (serialized != base_serialized) {
          verdict.failures.push_back(
              {OracleKind::kJobsDeterminism, "",
               "jobs=" + std::to_string(jobs[i]) + " diverges from jobs=" +
                   std::to_string(jobs.front()) + " (" +
                   std::to_string(report.findings.size()) + " vs " +
                   std::to_string(base.findings.size()) + " findings)"});
        }
      }
      if (i + 1 == jobs.size()) {
        last_parallel = std::move(report);
        have_parallel = true;
      }
    }
  }

  if (Enabled(OracleKind::kMetricsParity)) {
    // Serial and (when available) widest-parallel parity: metrics collection
    // must be a pure observer.
    AnalysisReport with_metrics = Analyze(program, jobs.front(), /*collect_metrics=*/true);
    if (SerializeFindings(with_metrics) != base_serialized) {
      verdict.failures.push_back({OracleKind::kMetricsParity, "",
                                  "collect_metrics changed findings at jobs=" +
                                      std::to_string(jobs.front())});
    }
    if (have_parallel) {
      AnalysisReport parallel_metrics =
          Analyze(program, jobs.back(), /*collect_metrics=*/true);
      if (SerializeFindings(parallel_metrics) != SerializeFindings(last_parallel)) {
        verdict.failures.push_back({OracleKind::kMetricsParity, "",
                                    "collect_metrics changed findings at jobs=" +
                                        std::to_string(jobs.back())});
      }
    }
  }

  if (Enabled(OracleKind::kJsonRoundTrip)) {
    AnalysisReport with_metrics = Analyze(program, jobs.front(), /*collect_metrics=*/true);
    std::string json = ReportToJson(with_metrics);
    std::string error;
    std::optional<JsonValue> doc = ParseJson(json, &error);
    if (!doc.has_value()) {
      verdict.failures.push_back(
          {OracleKind::kJsonRoundTrip, "", "report JSON does not parse: " + error});
    } else {
      const JsonValue& findings = doc->Get("findings");
      if (doc->GetInt("schema_version") != kReportSchemaVersion) {
        verdict.failures.push_back({OracleKind::kJsonRoundTrip, "",
                                    "schema_version != " + std::to_string(kReportSchemaVersion)});
      } else if (findings.Size() != with_metrics.findings.size()) {
        verdict.failures.push_back(
            {OracleKind::kJsonRoundTrip, "",
             "finding count mismatch: " + std::to_string(findings.Size()) + " in JSON vs " +
                 std::to_string(with_metrics.findings.size())});
      } else {
        for (size_t i = 0; i < with_metrics.findings.size(); ++i) {
          const UnusedDefCandidate& cand = with_metrics.findings[i];
          const JsonValue& entry = findings.At(i);
          if (entry.GetString("fingerprint") != cand.fingerprint ||
              entry.GetString("checker") != cand.checker ||
              entry.GetString("file") != cand.file ||
              entry.GetInt("line") != cand.def_loc.line ||
              entry.GetInt("column") != cand.def_loc.column ||
              entry.GetString("function") != cand.function ||
              entry.GetString("variable") != cand.slot_name ||
              entry.GetString("kind") != CandidateKindName(cand.kind)) {
            verdict.failures.push_back({OracleKind::kJsonRoundTrip, "",
                                        "finding " + std::to_string(i) +
                                            " lost fields in the JSON round-trip"});
            break;
          }
        }
        const JsonValue& diagnostics = doc->Get("diagnostics");
        if (diagnostics.GetInt("warnings") != with_metrics.diagnostic_warnings ||
            diagnostics.GetInt("errors") != with_metrics.diagnostic_errors) {
          verdict.failures.push_back(
              {OracleKind::kJsonRoundTrip, "", "diagnostics block mismatch"});
        }
      }
    }
  }

  if (Enabled(OracleKind::kMetamorphic)) {
    ProtectedSlots protected_slots = ProtectedSlots::FromReport(base);
    std::set<std::string> base_fps = FingerprintSet(base);
    for (Transform transform : AllTransforms()) {
      TestProgram mutant =
          ApplyTransform(program, transform, options_.mutation_seed, protected_slots);
      AnalysisReport report = Analyze(mutant, jobs.front(), /*collect_metrics=*/false);
      if (report.diagnostic_errors != 0 && base.diagnostic_errors == 0) {
        verdict.failures.push_back({OracleKind::kMetamorphic, TransformName(transform),
                                    "transform broke the parse (" +
                                        std::to_string(report.diagnostic_errors) +
                                        " diagnostic error(s))"});
        continue;
      }
      std::set<std::string> mutant_fps = FingerprintSet(report);
      if (mutant_fps != base_fps) {
        std::set<std::string> lost;
        std::set_difference(base_fps.begin(), base_fps.end(), mutant_fps.begin(),
                            mutant_fps.end(), std::inserter(lost, lost.begin()));
        std::set<std::string> gained;
        std::set_difference(mutant_fps.begin(), mutant_fps.end(), base_fps.begin(),
                            base_fps.end(), std::inserter(gained, gained.begin()));
        verdict.failures.push_back({OracleKind::kMetamorphic, TransformName(transform),
                                    "fingerprint set changed; lost=[" + JoinFingerprints(lost) +
                                        "] gained=[" + JoinFingerprints(gained) + "]"});
      }
    }
  }

  if (Enabled(OracleKind::kDegradedRun)) {
    // Salt the mutation seed so the injection sites differ from campaign
    // iteration to iteration even when the same seed reruns other oracles.
    const uint64_t seed = options_.mutation_seed ^ 0x9e3779b97f4a7c15ull;
    AnalysisReport clean =
        AnalyzeForDegraded(program, jobs.front(), seed, options_.fault_rate, /*inject=*/false,
                           options_.checkers);
    if (clean.degraded || !clean.quarantined.empty()) {
      verdict.failures.push_back(
          {OracleKind::kDegradedRun, "", "clean run (no injection) reports degraded"});
    } else {
      bool aborted = false;
      AnalysisReport faulted;
      try {
        faulted =
            AnalyzeForDegraded(program, jobs.front(), seed, options_.fault_rate, /*inject=*/true,
                               options_.checkers);
      } catch (const std::exception& e) {
        aborted = true;
        verdict.failures.push_back(
            {OracleKind::kDegradedRun, "",
             std::string("pipeline aborted under injected faults: ") + e.what()});
      }
      if (!aborted) {
        if (faulted.degraded != !faulted.quarantined.empty()) {
          verdict.failures.push_back(
              {OracleKind::kDegradedRun, "",
               "degraded flag inconsistent with the quarantine list (" +
                   std::to_string(faulted.quarantined.size()) + " unit(s))"});
        }
        std::set<std::string> clean_fps = FingerprintSet(clean);
        std::set<std::string> faulted_fps = FingerprintSet(faulted);
        std::set<std::string> gained;
        std::set_difference(faulted_fps.begin(), faulted_fps.end(), clean_fps.begin(),
                            clean_fps.end(), std::inserter(gained, gained.begin()));
        if (!gained.empty()) {
          verdict.failures.push_back(
              {OracleKind::kDegradedRun, "",
               "faulted run reports fingerprints absent from the clean run: [" +
                   JoinFingerprints(gained) + "]"});
        }
        std::string faulted_findings = SerializeFindings(faulted);
        std::string faulted_quarantine = SerializeQuarantine(faulted);
        for (size_t i = 1; i < jobs.size(); ++i) {
          AnalysisReport report;
          try {
            report =
                AnalyzeForDegraded(program, jobs[i], seed, options_.fault_rate, /*inject=*/true,
                                   options_.checkers);
          } catch (const std::exception& e) {
            verdict.failures.push_back(
                {OracleKind::kDegradedRun, "",
                 "pipeline aborted under injected faults at jobs=" + std::to_string(jobs[i]) +
                     ": " + e.what()});
            continue;
          }
          if (SerializeFindings(report) != faulted_findings ||
              SerializeQuarantine(report) != faulted_quarantine) {
            verdict.failures.push_back(
                {OracleKind::kDegradedRun, "",
                 "faulted run diverges at jobs=" + std::to_string(jobs[i]) + " from jobs=" +
                     std::to_string(jobs.front()) + " (findings or quarantine list)"});
          }
        }
      }
    }
  }

  if (Enabled(OracleKind::kIncrementalEquivalence)) {
    // Replay the program as a history (one commit per file, then an edit
    // appending a probe function to the first file) and hold the incremental
    // engine to full-run equivalence at every commit. Then replay the same
    // states, plus a final one deleting the last file, as snapshots — the
    // daemon's input — each held to a sources-mode full run over its files,
    // after holding a Project mutated through those states to a fresh
    // build's function index. Serial plus the widest job count — the
    // jobs_determinism oracle already covers the middle.
    // Two authors alternate commit by commit, so cross-file calls cross an
    // authorship boundary and classification has cross-scope verdicts to get
    // right (with one author, nearly every candidate is non-cross-scope).
    Repository repo;
    const AuthorId authors[2] = {repo.AddAuthor("fuzz-a"), repo.AddAuthor("fuzz-b")};
    size_t commits = 0;
    auto next_author = [&] { return authors[commits++ % 2]; };
    int64_t timestamp = 1'650'000'000;
    std::vector<std::pair<std::string, std::string>> sources = program.ToSources();
    std::vector<std::pair<std::string, std::string>> state;
    std::vector<std::vector<std::pair<std::string, std::string>>> states;
    for (const auto& [path, content] : sources) {
      repo.AddCommit(next_author(), timestamp += 60, "add " + path, {{path, content}});
      state.emplace_back(path, content);
      states.push_back(state);
    }
    state.front().second += "\nint inc_probe(int z) {\n  int w = z + 1;\n  return w;\n}\n";
    repo.AddCommit(next_author(), timestamp += 60, "probe edit", {state.front()});
    states.push_back(state);
    state.pop_back();
    states.push_back(state);
    for (auto& files : states) {
      std::sort(files.begin(), files.end());
    }

    std::set<int> job_counts = {jobs.front(), jobs.back()};
    for (int job_count : job_counts) {
      AnalysisOptions options;
      options.checkers = options_.checkers;
      options.cross_scope_only = false;
      options.jobs = job_count;
      IncrementalEngine engine(options);
      Analysis full(options);
      for (CommitId commit = 0; commit < repo.NumCommits(); ++commit) {
        IncrementalResult result = engine.AnalyzeCommit(repo, commit);
        AnalysisReport fresh = full.RunOnRepository(repo.PrefixCopy(commit));
        if (SerializeFindings(result.report) != SerializeFindings(fresh)) {
          verdict.failures.push_back(
              {OracleKind::kIncrementalEquivalence, "",
               "incremental report diverges from the full run at commit " +
                   std::to_string(commit) + " (jobs " + std::to_string(job_count) + ")"});
          break;
        }
      }
      // One Project mutated through the states: its warm function index
      // against a fresh build's at each.
      Project warm;
      std::map<std::string, std::string> held;
      for (size_t i = 0; i < states.size(); ++i) {
        std::set<std::string> kept;
        std::vector<std::pair<std::string, std::string>> changed;
        for (const auto& [path, content] : states[i]) {
          kept.insert(path);
          auto it = held.find(path);
          if (it == held.end() || it->second != content) {
            changed.emplace_back(path, content);
            held[path] = content;
          }
        }
        for (auto it = held.begin(); it != held.end();) {
          if (kept.count(it->first) == 0) {
            warm.RemoveFile(it->first);
            it = held.erase(it);
          } else {
            ++it;
          }
        }
        warm.UpsertFiles(std::move(changed), options.config, job_count);
        warm.FinishUpdate();
        if (DumpFunctionIndex(warm) != DumpFunctionIndex(Project::FromSources(states[i]))) {
          verdict.failures.push_back(
              {OracleKind::kIncrementalEquivalence, "",
               "warm function index diverges from a fresh build at state " + std::to_string(i) +
                   " (jobs " + std::to_string(job_count) + ")"});
          break;
        }
      }

      options.ranking.enabled = false;
      IncrementalEngine snapshots(options);
      Analysis sources_mode(options);
      for (size_t i = 0; i < states.size(); ++i) {
        IncrementalResult result = snapshots.AnalyzeSnapshot(states[i]);
        if (SerializeFindings(result.report) !=
            SerializeFindings(sources_mode.RunOnSources(states[i]))) {
          verdict.failures.push_back(
              {OracleKind::kIncrementalEquivalence, "",
               "snapshot report diverges from the full run at state " + std::to_string(i) +
                   " (jobs " + std::to_string(job_count) + ")"});
          break;
        }
      }
    }
  }

  if (Enabled(OracleKind::kAliasSoundness)) {
    const Project project = Project::FromSources(program.ToSources());
    for (const auto& module : project.modules()) {
      for (const auto& func : module->functions) {
        std::vector<SlotId> outside = PointeesOutsideAddressTaken(*func);
        if (outside.empty()) {
          continue;
        }
        std::string slots;
        for (SlotId slot : outside) {
          slots += ' ';
          slots += func->slots[slot].name;
        }
        verdict.failures.push_back(
            {OracleKind::kAliasSoundness, "",
             project.sources().Path(module->file) + ":" + func->name +
                 ": pointees outside the address-taken set:" + slots});
      }
    }
  }

  return verdict;
}

std::vector<SlotId> PointeesOutsideAddressTaken(const IrFunction& func) {
  std::vector<SlotId> outside;
  const PointsTo points_to(func);
  if (points_to.capped()) {
    return outside;
  }
  const SlotSet taken = ComputeAddressTaken(func);
  for (SlotId slot = 0; slot < func.slots.size(); ++slot) {
    if (points_to.SlotIsPointee(slot) && !taken.Contains(slot)) {
      outside.push_back(slot);
    }
  }
  return outside;
}

std::string DumpFunctionIndex(const Project& project) {
  auto where = [&](FileId file, const SourceLoc& loc) {
    return project.sources().Path(file) + ":" + std::to_string(loc.line) + ":" +
           std::to_string(loc.column);
  };
  std::vector<const FunctionInfo*> entries;
  for (uint32_t id = 0; id < project.NameIdBound(); ++id) {
    if (const FunctionInfo* info = project.IndexEntry(id)) {
      entries.push_back(info);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const FunctionInfo* a, const FunctionInfo* b) { return a->name < b->name; });
  std::string out;
  for (const FunctionInfo* entry : entries) {
    const FunctionInfo& info = *entry;
    out += std::string(info.name) + "\n";
    if (info.def_decl != nullptr) {
      out += "  def " + where(info.def_file, info.def_decl->loc) +
             " ir=" + (info.ir != nullptr ? info.ir->name : "-") + "\n";
    }
    for (const CallSite& site : info.call_sites) {
      out += "  call " + where(site.loc.file, site.loc) + " in " +
             (site.caller != nullptr ? site.caller->name : "-") +
             (site.result_assigned ? " assigned" : " ignored") + "\n";
    }
  }
  return out;
}

std::function<void(AnalysisReport&)> DropOverwrittenFindingsFault() {
  return [](AnalysisReport& report) {
    report.findings.erase(
        std::remove_if(report.findings.begin(), report.findings.end(),
                       [](const UnusedDefCandidate& cand) { return cand.overwritten; }),
        report.findings.end());
  };
}

}  // namespace testing
}  // namespace vc
