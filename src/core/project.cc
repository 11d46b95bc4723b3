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
  return FromRepositoryAt(repo, repo.NumCommits() - 1, std::move(config), jobs, fault, budget);
}

Project Project::FromRepositoryAt(const Repository& repo, CommitId commit, Config config,
                                  int jobs, const FaultInjector* fault,
                                  const ResourceBudget* budget) {
  Project project;
  std::vector<std::pair<std::string, std::string>> files;
  for (const std::string& path : repo.ListFilesAt(commit)) {
    files.emplace_back(path, *repo.FileAt(path, commit));
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

namespace {

// rank_ of a slot outside unit_order_ (tombstoned, or not yet ordered).
constexpr uint32_t kUnranked = UINT32_MAX;

}  // namespace

Project::~Project() {
  if (files_.empty()) {
    return;
  }
  // Freeing a file's tree and IR touches only that file's blocks, so the
  // lanes that built them free them too; the index and the sources follow
  // on this thread.
  TraceSpan span("teardown", "pipeline");
  ParallelFor(jobs_, files_.size(), [&](size_t i) {
    files_[i] = FileRecord();
    modules_[i].reset();
  });
}

void Project::CompileAll(std::vector<std::pair<std::string, std::string>> files,
                         const Config& config, int jobs, const FaultInjector* fault,
                         const ResourceBudget* budget) {
  StageScope scope(Stage::kParse, build_stage_);
  // File ids are assigned sequentially before any parallel work so ids (and
  // everything keyed on them) do not depend on worker scheduling.
  const size_t n = files.size();
  std::vector<FileId> slots;
  slots.reserve(n);
  for (auto& [path, content] : files) {
    slots.push_back(sm_.AddFile(path, std::move(content)));
  }
  files_.resize(n);
  modules_.resize(n);
  unit_order_.resize(n);
  rank_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    unit_order_[i] = i;
    rank_[i] = static_cast<uint32_t>(i);
  }
  if (ProgressEnabled()) {
    ProgressMeter::Global().AddTotalFiles(n);
  }
  CompileSlots(slots, config, jobs, fault, budget);
  BuildDerived();
  scope.Count(kParseFiles, static_cast<int64_t>(n));
  if (LogEnabled(LogLevel::kInfo)) {
    VC_LOG_INFO("parsed " + std::to_string(n) + " file(s), " +
                std::to_string(diags_.ErrorCount()) + " error(s), " +
                std::to_string(diags_.WarningCount()) + " warning(s)");
  }
}

void Project::CompileSlots(const std::vector<FileId>& slots, const Config& config, int jobs,
                           const FaultInjector* fault, const ResourceBudget* budget) {
  // Each lane writes only its own file's record and module; the
  // SourceManager is only read during the parallel phase.
  jobs_ = jobs;
  ParallelFor(jobs, slots.size(), [&](size_t k) { CompileSlot(slots[k], config, fault, budget); });
  TraceSpan span("build_index", "parse");
  size_t names = 0;
  for (FileId file : slots) {
    names += files_[file].share.names.size();
  }
  sharers_.reserve(sharers_.size() + names);
  touched_.reserve(touched_.size() + names);
  for (FileId file : slots) {
    AddShare(file);
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
  BuildShare(i);
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

void Project::BuildShare(size_t i) {
  const TranslationUnit& unit = files_[i].unit;
  const IrModule& module = *modules_[i];
  IndexShare& share = files_[i].share;
  std::unordered_map<std::string_view, uint32_t> position;
  auto entry = [&](std::string_view name) -> IndexShare::Name& {
    auto [it, added] = position.try_emplace(name, static_cast<uint32_t>(share.names.size()));
    if (added) {
      share.names.push_back({name});
    }
    return share.names[it->second];
  };
  for (const FunctionDecl* func : unit.functions) {
    if (func->IsDefined()) {
      entry(func->name).def = func;
    }
  }
  // Only defined names have entries yet: each gets its first IR function.
  for (const auto& func : module.functions) {
    auto it = position.find(func->name);
    if (it != position.end() && share.names[it->second].ir == nullptr) {
      share.names[it->second].ir = func.get();
    }
  }
  // Group the call sites by callee: count each name's sites into sites_end,
  // turn the counts into ranges, then place the sites in order.
  for (const auto& func : module.functions) {
    for (const CallSite& site : func->call_sites) {
      if (site.callee != nullptr) {  // indirect calls resolve through points-to
        ++entry(site.callee->name).sites_end;
      }
    }
  }
  uint32_t next = 0;
  for (IndexShare::Name& name : share.names) {
    name.sites_begin = next;
    next += name.sites_end;
    name.sites_end = name.sites_begin;
  }
  share.sites.resize(next);
  for (const auto& func : module.functions) {
    for (const CallSite& site : func->call_sites) {
      if (site.callee != nullptr) {
        IndexShare::Name& name = share.names[position.find(site.callee->name)->second];
        share.sites[name.sites_end++] = &site;
      }
    }
  }
  share.names.shrink_to_fit();
}

void Project::ClearSlot(size_t i) {
  const FileId file = static_cast<FileId>(i);
  files_[i] = FileRecord();
  files_[i].unit.file = file;
  modules_[i] = std::make_unique<IrModule>();
  modules_[i]->file = file;
}

std::vector<FileId> Project::UpsertFiles(std::vector<std::pair<std::string, std::string>> files,
                                         const Config& config, int jobs,
                                         const FaultInjector* fault,
                                         const ResourceBudget* budget) {
  std::vector<FileId> slots;
  slots.reserve(files.size());
  for (auto& [path, content] : files) {
    FileId file = sm_.FindByPath(path);
    if (file == kInvalidFileId) {
      file = sm_.AddFile(path, std::move(content));
      files_.emplace_back();
      modules_.emplace_back();
      rank_.push_back(kUnranked);
    } else {
      TakeShareOut(file);
      sm_.ReplaceContent(file, std::move(content));
    }
    slots.push_back(file);
  }
  CompileSlots(slots, config, jobs, fault, budget);
  return slots;
}

FileId Project::UpsertFile(const std::string& path, std::string content, const Config& config,
                           const FaultInjector* fault, const ResourceBudget* budget) {
  return UpsertFiles({{path, std::move(content)}}, config, 1, fault, budget).front();
}

bool Project::RemoveFile(const std::string& path) {
  FileId file = sm_.FindByPath(path);
  if (file == kInvalidFileId || !IsLive(file)) {
    return false;
  }
  TakeShareOut(file);
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
  std::vector<std::pair<std::string_view, size_t>> by_path;
  by_path.reserve(files_.size());
  for (size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].live) {
      by_path.emplace_back(sm_.Path(static_cast<FileId>(i)), i);
    }
  }
  std::sort(by_path.begin(), by_path.end());
  unit_order_.clear();
  unit_order_.reserve(by_path.size());
  std::vector<uint32_t> rank(files_.size(), kUnranked);
  // A name's entry depends on the order of its sharers only, so entries stay
  // valid while the files already ordered keep their relative order. Only a
  // project first built in another order (FromSources over unsorted files)
  // breaks it, once; every entry then rebuilds.
  bool reordered = false;
  uint32_t last = 0;
  for (const auto& [path, i] : by_path) {
    rank[i] = static_cast<uint32_t>(unit_order_.size());
    unit_order_.push_back(i);
    if (rank_[i] != kUnranked) {
      reordered = reordered || rank_[i] < last;
      last = rank_[i];
    }
  }
  rank_ = std::move(rank);
  if (reordered) {
    for (SharerMap::value_type& name : sharers_) {
      Touch(name);
    }
  }
  BuildDerived();
}

void Project::Touch(SharerMap::value_type& name) {
  if (!name.second.touched) {
    name.second.touched = true;
    touched_.push_back(&name);
  }
}

void Project::AddShare(FileId file) {
  IndexShare& share = files_[file].share;
  for (uint32_t pos = 0; pos < share.names.size(); ++pos) {
    const std::string_view name = share.names[pos].name;
    auto it = sharers_.find(name);
    if (it == sharers_.end()) {
      it = sharers_.emplace(std::string(name), Sharers()).first;
      if (free_ids_.empty()) {
        it->second.id = static_cast<uint32_t>(entries_.size());
        entries_.push_back(nullptr);
      } else {
        it->second.id = free_ids_.back();
        free_ids_.pop_back();
      }
    }
    it->second.files.emplace_back(file, pos);
    share.names[pos].id = it->second.id;
    Touch(*it);
  }
}

void Project::TakeShareOut(FileId file) {
  IndexShare& share = files_[file].share;
  for (const IndexShare::Name& entry : share.names) {
    auto it = sharers_.find(entry.name);
    if (it == sharers_.end()) {
      continue;  // a compile that threw before its share was added
    }
    std::erase_if(it->second.files, [&](const auto& sharer) { return sharer.first == file; });
    Touch(*it);
  }
  share = IndexShare();
}

void Project::BuildDerived() {
  // Every pass iterates unit_order_ — identity order for a fresh build,
  // path-sorted live slots after incremental mutations — so the derived
  // state is the same whichever way the project reached its current
  // contents.
  TraceSpan span("build_index", "parse");
  diags_ = DiagnosticEngine();
  quarantined_.clear();
  for (size_t i : unit_order_) {
    FileRecord& record = files_[i];
    diags_.Append(record.diags);
    if (record.quarantine.has_value()) {
      quarantined_.push_back(*record.quarantine);
    }
    record.shares_touched = false;
  }
  // Each touched name merges its sharers' entries in unit order: the last
  // definer wins (with its own first IR function of the name), and the call
  // sites concatenate. A name no file defines or calls any more leaves.
  for (SharerMap::value_type* name : touched_) {
    Sharers& sharers = name->second;
    sharers.touched = false;
    if (sharers.files.empty()) {
      entries_[sharers.id] = nullptr;
      free_ids_.push_back(sharers.id);
      sharers_.erase(sharers_.find(name->first));
      continue;
    }
    std::sort(sharers.files.begin(), sharers.files.end(),
              [&](const auto& a, const auto& b) { return rank_[a.first] < rank_[b.first]; });
    FunctionInfo& info = sharers.info;
    info = FunctionInfo();
    info.name = name->first;
    size_t site_count = 0;
    for (const auto& [file, pos] : sharers.files) {
      const IndexShare::Name& entry = files_[file].share.names[pos];
      site_count += entry.sites_end - entry.sites_begin;
      files_[file].shares_touched = true;
    }
    info.call_sites.reserve(site_count);
    for (const auto& [file, pos] : sharers.files) {
      const IndexShare& share = files_[file].share;
      const IndexShare::Name& entry = share.names[pos];
      if (entry.def != nullptr) {
        info.def_decl = entry.def;
        info.ir = entry.ir;
        info.def_file = file;
      }
      for (uint32_t s = entry.sites_begin; s < entry.sites_end; ++s) {
        info.call_sites.push_back(*share.sites[s]);
      }
    }
    entries_[sharers.id] = &info;
  }
  touched_.clear();
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
