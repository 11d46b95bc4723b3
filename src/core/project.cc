#include "src/core/project.h"

#include <algorithm>
#include <chrono>

#include "src/ir/ir_builder.h"
#include "src/parser/parser.h"
#include "src/support/events.h"
#include "src/support/logging.h"
#include "src/support/memstats.h"
#include "src/support/metrics.h"
#include "src/support/string_util.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace vc {

Project Project::FromRepository(const Repository& repo, Config config, int jobs,
                                const FaultInjector* fault, const ResourceBudget* budget) {
  Project project;
  std::vector<std::pair<std::string, std::string>> files;
  for (const std::string& path : repo.ListFiles()) {
    std::optional<std::string> content = repo.Head(path);
    if (content.has_value()) {
      files.emplace_back(path, std::move(*content));
    }
  }
  project.CompileAll(std::move(files), config, jobs, fault, budget);
  return project;
}

Project Project::FromRepositoryAt(const Repository& repo, CommitId commit, Config config,
                                  int jobs, const FaultInjector* fault,
                                  const ResourceBudget* budget) {
  Project project;
  std::vector<std::pair<std::string, std::string>> files;
  for (const std::string& path : repo.ListFiles()) {
    std::optional<std::string> content = repo.FileAt(path, commit);
    if (content.has_value()) {
      files.emplace_back(path, std::move(*content));
    }
  }
  project.CompileAll(std::move(files), config, jobs, fault, budget);
  return project;
}

Project Project::FromSources(const std::vector<std::pair<std::string, std::string>>& files,
                             Config config, int jobs, const FaultInjector* fault,
                             const ResourceBudget* budget) {
  Project project;
  project.CompileAll(files, config, jobs, fault, budget);
  return project;
}

void Project::CompileAll(std::vector<std::pair<std::string, std::string>> files,
                         const Config& config, int jobs, const FaultInjector* fault,
                         const ResourceBudget* budget) {
  StageScope scope(Stage::kParse, build_stage_);
  // File ids are assigned sequentially before any parallel work so ids (and
  // everything keyed on them) do not depend on worker scheduling.
  const size_t n = files.size();
  for (auto& [path, content] : files) {
    sm_.AddFile(path, std::move(content));
  }
  units_.resize(n);
  modules_.resize(n);
  pp_.resize(n);
  // Per-slot diagnostics and quarantine records persist as members so
  // incremental recompiles (UpsertFile) can rebuild the merged views later;
  // the SourceManager is only read during the parallel phase. Merging the
  // per-slot engines in file order below reproduces the serial diagnostic
  // stream exactly.
  slot_diags_.assign(n, DiagnosticEngine());
  slot_quarantine_.clear();
  slot_quarantine_.resize(n);
  // Memory tracking is decided once per build: per-file footprints fill
  // slot-indexed storage (order-independent), then merge into category
  // totals, so the counts are exact at any job count.
  if (MemoryTrackingEnabled()) {
    memory_collected_ = true;
    file_memory_.resize(n);
  }
  if (ProgressEnabled()) {
    ProgressMeter::Global().AddTotalFiles(n);
  }
  ParallelFor(jobs, n, [&](size_t i) { CompileSlot(i, config, fault, budget); });
  if (memory_collected_) {
    FileMemory total = ParseMemoryTotal();
    MemoryTracker& tracker = MemoryTracker::Global();
    tracker.Add(MemCategory::kAstNodes, total.ast);
    tracker.Add(MemCategory::kIrInstructions, total.ir);
    tracker.Add(MemCategory::kInternedStrings, total.strings);
  }
  unit_order_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    unit_order_[i] = i;
  }
  for (const DiagnosticEngine& engine : slot_diags_) {
    diags_.Append(engine);
  }
  for (const auto& record : slot_quarantine_) {
    if (record != nullptr) {
      quarantined_.push_back(*record);
    }
  }
  if (MetricsEnabled() && !quarantined_.empty()) {
    MetricsRegistry::Global().GetCounter("fault.quarantined.parse").Add(quarantined_.size());
  }
  if (MetricsEnabled()) {
    MetricsRegistry::Global().GetCounter("parse.files").Add(n);
  }
  {
    TraceSpan span("build_index", "parse");
    BuildIndex();
  }
  if (LogEnabled(LogLevel::kInfo)) {
    VC_LOG_INFO("parsed " + std::to_string(n) + " file(s), " +
                std::to_string(diags_.ErrorCount()) + " error(s), " +
                std::to_string(diags_.WarningCount()) + " warning(s)");
  }
}

void Project::CompileSlot(size_t i, const Config& config, const FaultInjector* fault,
                          const ResourceBudget* budget) {
  FileId file = static_cast<FileId>(i);
  Histogram* file_histogram =
      MetricsEnabled() ? &MetricsRegistry::Global().GetHistogram("parse.file_seconds")
                       : nullptr;
  const bool isolate = fault != nullptr || budget != nullptr;
  const double deadline_seconds =
      budget != nullptr ? budget->unit_deadline_seconds : 0.0;
  const int parse_depth = budget != nullptr ? budget->parse_depth_limit : 0;
  const bool track_memory = memory_collected_;
  TraceSpan span("parse_lower", "parse");
  span.Arg("file", sm_.Path(file));
  ScopedTimer timer(nullptr, file_histogram);
  if (RunEventsEnabled()) {
    RunEvent("stage_start").Str("stage", "parse_file").Str("file", sm_.Path(file)).Emit();
  }
  slot_diags_[i] = DiagnosticEngine();
  slot_quarantine_[i].reset();
  if (track_memory) {
    file_memory_[i] = FileMemory();
  }
  auto compile_one = [&] {
    const auto start = std::chrono::steady_clock::now();
    auto check_deadline = [&] {
      if (deadline_seconds <= 0.0) return;
      std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
      if (elapsed.count() > deadline_seconds) {
        throw BudgetExceededError("unit deadline exceeded");
      }
    };
    if (fault != nullptr) {
      fault->MaybeFault(fault_sites::kParseFile, sm_.Path(file));
    }
    pp_[i] = Preprocess(sm_.Content(file), config);
    for (const std::string& error : pp_[i].errors) {
      slot_diags_[i].Error({file, 1, 1}, "preprocessor: " + error);
    }
    check_deadline();
    TranslationUnit unit = ParseFile(sm_, file, config, slot_diags_[i], parse_depth);
    check_deadline();
    modules_[i] = LowerUnit(unit);
    units_[i] = std::move(unit);
  };
  if (!isolate) {
    compile_one();
  } else {
    // Isolation boundary: any exception (injected, deadline, or a real
    // front-end bug) quarantines this file only. The slot is rebuilt as an
    // empty-but-valid unit — downstream stages iterate modules() without
    // null checks — and its partial diagnostics are dropped so an injected
    // fault cannot masquerade as a source error and fail the run.
    try {
      compile_one();
    } catch (const std::exception& e) {
      slot_quarantine_[i] = std::make_unique<QuarantinedUnit>(
          QuarantinedUnit{sm_.Path(file), "", "parse", e.what(), ""});
      slot_diags_[i] = DiagnosticEngine();
      pp_[i] = PreprocessResult();
      units_[i] = TranslationUnit();
      units_[i].file = file;
      modules_[i] = std::make_unique<IrModule>();
      modules_[i]->file = file;
    }
  }
  if (track_memory) {
    FileMemory& mem = file_memory_[i];
    if (units_[i].context != nullptr) {
      mem.ast.bytes = units_[i].context->node_bytes();
      mem.ast.objects = units_[i].context->node_count();
    }
    IrFootprint ir_fp = ModuleFootprint(*modules_[i]);
    mem.ir.bytes = ir_fp.bytes;
    mem.ir.objects = ir_fp.instructions;
    // Identifier storage: function and slot names are the interning
    // candidate set (the payload a string-interner would deduplicate).
    for (const auto& func : modules_[i]->functions) {
      mem.strings.bytes += func->name.size();
      ++mem.strings.objects;
      for (int s = 0; s < func->slots.size(); ++s) {
        mem.strings.bytes += func->slots[s].name.size();
        ++mem.strings.objects;
      }
    }
  }
  if (RunEventsEnabled()) {
    RunEvent event("stage_end");
    event.Str("stage", "parse_file").Str("file", sm_.Path(file));
    if (track_memory) {
      const FileMemory& mem = file_memory_[i];
      event.Num("ast_bytes", mem.ast.bytes)
          .Num("ir_bytes", mem.ir.bytes)
          .Num("string_bytes", mem.strings.bytes);
    }
    event.Flag("quarantined", slot_quarantine_[i] != nullptr);
    event.Emit();
  }
  if (ProgressEnabled()) {
    ProgressMeter::Global().FileDone();
  }
}

FileId Project::UpsertFile(const std::string& path, std::string content, const Config& config,
                           const FaultInjector* fault, const ResourceBudget* budget) {
  if (live_.size() < units_.size()) {
    live_.resize(units_.size(), 1);
  }
  FileId file = sm_.FindByPath(path);
  if (file == kInvalidFileId) {
    file = sm_.AddFile(path, std::move(content));
    units_.emplace_back();
    modules_.emplace_back();
    pp_.emplace_back();
    slot_diags_.emplace_back();
    slot_quarantine_.emplace_back();
    live_.push_back(1);
    if (memory_collected_) {
      file_memory_.emplace_back();
    }
  } else {
    sm_.ReplaceContent(file, std::move(content));
    live_[file] = 1;
  }
  CompileSlot(file, config, fault, budget);
  if (memory_collected_) {
    const FileMemory& mem = file_memory_[file];
    MemoryTracker& tracker = MemoryTracker::Global();
    tracker.Add(MemCategory::kAstNodes, mem.ast);
    tracker.Add(MemCategory::kIrInstructions, mem.ir);
    tracker.Add(MemCategory::kInternedStrings, mem.strings);
  }
  if (MetricsEnabled()) {
    MetricsRegistry::Global().GetCounter("parse.files").Add(1);
  }
  return file;
}

bool Project::RemoveFile(const std::string& path) {
  FileId file = sm_.FindByPath(path);
  if (file == kInvalidFileId || !IsLive(file)) {
    return false;
  }
  if (live_.size() < units_.size()) {
    live_.resize(units_.size(), 1);
  }
  live_[file] = 0;
  sm_.ReplaceContent(file, "");
  pp_[file] = PreprocessResult();
  units_[file] = TranslationUnit();
  units_[file].file = file;
  modules_[file] = std::make_unique<IrModule>();
  modules_[file]->file = file;
  slot_diags_[file] = DiagnosticEngine();
  slot_quarantine_[file].reset();
  if (memory_collected_) {
    file_memory_[file] = FileMemory();
  }
  return true;
}

void Project::FinishUpdate() {
  if (live_.size() < units_.size()) {
    live_.resize(units_.size(), 1);
  }
  // Live slots in path-sorted order: the same order FromRepository compiles
  // files in (ListFiles is sorted), so index construction — in particular
  // which definition wins a duplicate name, and call-site order — matches a
  // from-scratch build over the same live contents.
  std::vector<std::pair<std::string, size_t>> by_path;
  by_path.reserve(units_.size());
  for (size_t i = 0; i < units_.size(); ++i) {
    if (live_[i] != 0) {
      by_path.emplace_back(sm_.Path(static_cast<FileId>(i)), i);
    }
  }
  std::sort(by_path.begin(), by_path.end());
  unit_order_.clear();
  unit_order_.reserve(by_path.size());
  for (const auto& [path, i] : by_path) {
    unit_order_.push_back(i);
  }
  diags_ = DiagnosticEngine();
  quarantined_.clear();
  index_.clear();
  for (size_t i : unit_order_) {
    diags_.Append(slot_diags_[i]);
    if (slot_quarantine_[i] != nullptr) {
      quarantined_.push_back(*slot_quarantine_[i]);
    }
  }
  BuildIndex();
}

void Project::BuildIndex() {
  // Both passes iterate unit_order_ — identity order for a fresh build,
  // path-sorted live slots after incremental mutations — so the index is the
  // same whichever way the project reached its current contents.
  // Pass 1: definitions.
  for (size_t i : unit_order_) {
    const TranslationUnit& unit = units_[i];
    for (const FunctionDecl* func : unit.functions) {
      if (!func->IsDefined()) {
        continue;
      }
      FunctionInfo& info = index_[func->name];
      info.name = func->name;
      info.def_decl = func;
      info.def_file = unit.file;
      info.ir = modules_[i]->FindFunction(func->name);
    }
  }
  // Pass 2: call sites (both to project functions and to externs).
  for (size_t i : unit_order_) {
    const auto& module = modules_[i];
    for (const auto& func : module->functions) {
      for (const CallSite& site : func->call_sites) {
        if (site.callee == nullptr) {
          continue;  // indirect call; resolved separately via points-to
        }
        FunctionInfo& info = index_[site.callee->name];
        if (info.name.empty()) {
          info.name = site.callee->name;
        }
        info.call_sites.push_back(site);
      }
    }
  }
}

Project::FileMemory Project::ParseMemoryTotal() const {
  FileMemory total;
  for (const FileMemory& mem : file_memory_) {
    total.ast += mem.ast;
    total.ir += mem.ir;
    total.strings += mem.strings;
  }
  return total;
}

int Project::TotalLines() const {
  int total = 0;
  for (int i = 0; i < sm_.NumFiles(); ++i) {
    int lines = sm_.NumLines(i);
    for (int line = 1; line <= lines; ++line) {
      if (!Trim(sm_.Line(i, line)).empty()) {
        ++total;
      }
    }
  }
  return total;
}

}  // namespace vc
