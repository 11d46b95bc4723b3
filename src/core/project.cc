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
  // everything keyed on them) do not depend on worker scheduling. Each lane
  // writes only its own file's record and module; the SourceManager is only
  // read during the parallel phase.
  const size_t n = files.size();
  for (auto& [path, content] : files) {
    sm_.AddFile(path, std::move(content));
  }
  files_.resize(n);
  modules_.resize(n);
  if (ProgressEnabled()) {
    ProgressMeter::Global().AddTotalFiles(n);
  }
  ParallelFor(jobs, n, [&](size_t i) { CompileSlot(i, config, fault, budget); });
  unit_order_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    unit_order_[i] = i;
  }
  {
    TraceSpan span("build_index", "parse");
    BuildDerived();
  }
  if (MetricsEnabled() && !quarantined_.empty()) {
    MetricsRegistry::Global().GetCounter("fault.quarantined.parse").Add(quarantined_.size());
  }
  if (MetricsEnabled()) {
    MetricsRegistry::Global().GetCounter("parse.files").Add(n);
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
  const bool track_memory = MemoryTrackingEnabled();
  TraceSpan span("parse_lower", "parse");
  span.Arg("file", sm_.Path(file));
  ScopedTimer timer(nullptr, file_histogram);
  if (RunEventsEnabled()) {
    RunEvent("stage_start").Str("stage", "parse_file").Str("file", sm_.Path(file)).Emit();
  }
  FileRecord& record = files_[i];
  record = FileRecord();
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
    record.pp = Preprocess(sm_.Content(file), config);
    for (const std::string& error : record.pp.errors) {
      record.diags.Error({file, 1, 1}, "preprocessor: " + error);
    }
    check_deadline();
    record.unit = ParseFile(sm_, file, record.pp, record.diags, parse_depth);
    check_deadline();
    modules_[i] = LowerUnit(record.unit);
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
      ClearSlot(i);
      record.quarantine = QuarantinedUnit{sm_.Path(file), "", "parse", e.what(), ""};
    }
  }
  if (track_memory) {
    FileMemory& mem = record.memory;
    if (record.unit.context != nullptr) {
      mem.ast.bytes = record.unit.context->node_bytes();
      mem.ast.objects = record.unit.context->node_count();
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
      event.Num("ast_bytes", record.memory.ast.bytes)
          .Num("ir_bytes", record.memory.ir.bytes)
          .Num("string_bytes", record.memory.strings.bytes);
    }
    event.Flag("quarantined", record.quarantine.has_value());
    event.Emit();
  }
  if (ProgressEnabled()) {
    ProgressMeter::Global().FileDone();
  }
}

void Project::ClearSlot(size_t i) {
  const FileId file = static_cast<FileId>(i);
  files_[i] = FileRecord();
  files_[i].unit.file = file;
  modules_[i] = std::make_unique<IrModule>();
  modules_[i]->file = file;
}

FileId Project::UpsertFile(const std::string& path, std::string content, const Config& config,
                           const FaultInjector* fault, const ResourceBudget* budget) {
  FileId file = sm_.FindByPath(path);
  if (file == kInvalidFileId) {
    file = sm_.AddFile(path, std::move(content));
    files_.emplace_back();
    modules_.emplace_back();
  } else {
    sm_.ReplaceContent(file, std::move(content));
  }
  CompileSlot(file, config, fault, budget);
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
  sm_.ReplaceContent(file, "");
  ClearSlot(file);
  files_[file].live = false;
  return true;
}

void Project::FinishUpdate() {
  // Live slots in path-sorted order: the same order FromRepository compiles
  // files in (ListFiles is sorted), so index construction — in particular
  // which definition wins a duplicate name, and call-site order — matches a
  // from-scratch build over the same live contents.
  std::vector<std::pair<std::string, size_t>> by_path;
  by_path.reserve(files_.size());
  for (size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].live) {
      by_path.emplace_back(sm_.Path(static_cast<FileId>(i)), i);
    }
  }
  std::sort(by_path.begin(), by_path.end());
  unit_order_.clear();
  unit_order_.reserve(by_path.size());
  for (const auto& [path, i] : by_path) {
    unit_order_.push_back(i);
  }
  BuildDerived();
}

void Project::BuildDerived() {
  // Every pass iterates unit_order_ — identity order for a fresh build,
  // path-sorted live slots after incremental mutations — so the derived
  // state is the same whichever way the project reached its current
  // contents.
  diags_ = DiagnosticEngine();
  quarantined_.clear();
  index_.clear();
  // Pass 1: diagnostics, quarantine records and definitions.
  for (size_t i : unit_order_) {
    const FileRecord& record = files_[i];
    diags_.Append(record.diags);
    if (record.quarantine.has_value()) {
      quarantined_.push_back(*record.quarantine);
    }
    for (const FunctionDecl* func : record.unit.functions) {
      if (!func->IsDefined()) {
        continue;
      }
      FunctionInfo& info = index_[func->name];
      info.name = func->name;
      info.def_decl = func;
      info.def_file = record.unit.file;
      info.ir = modules_[i]->FindFunction(func->name);
    }
  }
  // Pass 2: call sites (both to project functions and to externs).
  for (size_t i : unit_order_) {
    for (const auto& func : modules_[i]->functions) {
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
  for (const FileRecord& record : files_) {
    if (record.live) {
      total.ast += record.memory.ast;
      total.ir += record.memory.ir;
      total.strings += record.memory.strings;
    }
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
