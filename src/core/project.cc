#include "src/core/project.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <type_traits>

#include "src/ir/ir_builder.h"
#include "src/parser/parser.h"
#include "src/support/events.h"
#include "src/support/logging.h"
#include "src/support/memstats.h"
#include "src/support/metrics.h"
#include "src/support/string_util.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"
#include "src/support/view_map.h"

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
  // lanes that built them free them too; the index, the sources and the
  // diagnostics follow on this thread, inside the span, so that the span
  // covers the whole release.
  TraceSpan span("teardown", "pipeline");
  ParallelFor(jobs_, files_.size(), [&](size_t i) {
    files_[i] = FileRecord();
    modules_[i].reset();
  });
  auto release = [](auto& container) { std::decay_t<decltype(container)>().swap(container); };
  release(files_);
  release(modules_);
  release(chunks_);
  release(ids_);
  release(free_ids_);
  release(touched_);
  release(parked_);
  release(quarantined_);
  release(unit_order_);
  release(rank_);
  sm_ = SourceManager();
  diags_ = DiagnosticEngine();
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
  ReserveNames(names_ + names);
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
  // Name -> 1 + its position in share.names; keys view the file's tree.
  ViewMap<uint32_t> position;
  auto entry = [&](std::string_view name) -> IndexShare::Name& {
    uint32_t& slot = position[name];
    if (slot == 0) {
      share.names.push_back({name});
      slot = static_cast<uint32_t>(share.names.size());
    }
    return share.names[slot - 1];
  };
  for (const FunctionDecl* func : unit.functions) {
    if (func->IsDefined()) {
      entry(func->name).def = func;
    }
  }
  // Only defined names have entries yet: each gets its first IR function.
  for (const auto& func : module.functions) {
    const uint32_t* slot = position.Find(func->name);
    if (slot != nullptr && share.names[*slot - 1].ir == nullptr) {
      share.names[*slot - 1].ir = func.get();
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
        IndexShare::Name& name = share.names[*position.Find(site.callee->name) - 1];
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
    for (uint32_t id = 0; id < id_bound_; ++id) {
      if (Entry(id).live) {
        Touch(id);
      }
    }
  }
  BuildDerived();
}

const Project::NameEntry& Project::Entry(uint32_t id) const {
  if (id < kFirstChunk) {
    return chunks_[0][id];
  }
  const auto chunk = static_cast<uint32_t>(std::bit_width(id / kFirstChunk));
  return chunks_[chunk][id - (kFirstChunk << (chunk - 1))];
}

const FunctionInfo* Project::FindFunction(std::string_view name) const {
  const uint32_t id = NameId(name);
  return id == kNoName ? nullptr : &Entry(id).info;
}

uint32_t Project::FindId(std::string_view name, size_t hash) const {
  if (ids_.empty()) {
    return kNoName;
  }
  const size_t mask = ids_.size() - 1;
  const auto tag = static_cast<uint32_t>(hash);
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const IdSlot& slot = ids_[i];
    if (slot.id == kNoName) {
      return kNoName;
    }
    if (slot.hash == tag && Entry(slot.id).info.name == name) {
      return slot.id;
    }
  }
}

void Project::ReserveNames(size_t names) {
  size_t size = ids_.empty() ? 64 : ids_.size();
  while (size < 2 * names) {
    size *= 2;
  }
  if (size == ids_.size()) {
    return;
  }
  std::vector<IdSlot> old = std::exchange(ids_, std::vector<IdSlot>(size));
  const size_t mask = size - 1;
  for (const IdSlot& slot : old) {
    if (slot.id != kNoName) {
      size_t i = slot.hash & mask;
      while (ids_[i].id != kNoName) {
        i = (i + 1) & mask;
      }
      ids_[i] = slot;
    }
  }
}

uint32_t Project::AddName(std::string_view name, size_t hash) {
  ReserveNames(names_ + 1);
  uint32_t id;
  if (free_ids_.empty()) {
    id = id_bound_++;
    // Chunks 0 and 1 hold kFirstChunk entries each, and every later chunk as
    // many as all before it.
    const uint32_t capacity = chunks_.empty() ? 0 : kFirstChunk << (chunks_.size() - 1);
    if (id == capacity) {
      chunks_.push_back(std::make_unique<NameEntry[]>(chunks_.empty() ? kFirstChunk : capacity));
    }
  } else {
    id = free_ids_.back();
    free_ids_.pop_back();
  }
  NameEntry& entry = Entry(id);
  entry.info.name = name;
  entry.hash = static_cast<uint32_t>(hash);
  entry.live = true;
  const size_t mask = ids_.size() - 1;
  size_t i = hash & mask;
  while (ids_[i].id != kNoName) {
    i = (i + 1) & mask;
  }
  ids_[i] = {id, entry.hash};
  ++names_;
  return id;
}

void Project::DropName(uint32_t id) {
  const size_t mask = ids_.size() - 1;
  size_t hole = Entry(id).hash & mask;
  while (ids_[hole].id != id) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: move each later slot of the probe run whose
  // home lies at or before the hole into it, so no tombstone is needed.
  for (size_t j = (hole + 1) & mask; ids_[j].id != kNoName; j = (j + 1) & mask) {
    const size_t home = ids_[j].hash & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      ids_[hole] = ids_[j];
      hole = j;
    }
  }
  ids_[hole] = IdSlot();
  --names_;
  Entry(id) = NameEntry();
  free_ids_.push_back(id);
}

void Project::Touch(uint32_t id) {
  NameEntry& entry = Entry(id);
  if (!entry.touched) {
    entry.touched = true;
    touched_.push_back(id);
  }
}

void Project::AddShare(FileId file) {
  FileRecord& record = files_[file];
  IndexShare& share = record.share;
  record.links.assign(share.names.size(), SharerLinks());
  for (uint32_t pos = 0; pos < share.names.size(); ++pos) {
    const std::string_view name = share.names[pos].name;
    const size_t hash = HashName(name);
    uint32_t id = FindId(name, hash);
    if (id == kNoName) {
      id = AddName(name, hash);
    }
    NameEntry& entry = Entry(id);
    const SharerRef self{file, pos};
    record.links[pos].next = entry.head;
    if (entry.head.file != kInvalidFileId) {
      files_[entry.head.file].links[entry.head.pos].prev = self;
    }
    entry.head = self;
    share.names[pos].id = id;
    Touch(id);
  }
}

void Project::TakeShareOut(FileId file) {
  FileRecord& record = files_[file];
  IndexShare& share = record.share;
  for (uint32_t pos = 0; pos < share.names.size(); ++pos) {
    const IndexShare::Name& name = share.names[pos];
    if (name.id == kNoName) {
      continue;  // a compile that threw before its share was added
    }
    NameEntry& entry = Entry(name.id);
    const SharerLinks links = record.links[pos];
    if (links.prev.file == kInvalidFileId) {
      entry.head = links.next;
    } else {
      files_[links.prev.file].links[links.prev.pos].next = links.next;
    }
    if (links.next.file != kInvalidFileId) {
      files_[links.next.file].links[links.next.pos].prev = links.prev;
    }
    // The caller frees this file's tree next: an entry that views the name
    // there moves to another sharer's, or to a parked copy.
    if (entry.info.name.data() == name.name.data()) {
      if (entry.head.file != kInvalidFileId) {
        entry.info.name = SharedName(entry.head);
      } else {
        entry.info.name = parked_.emplace_back(name.name);
      }
    }
    Touch(name.id);
  }
  share = IndexShare();
  record.links = {};
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
  std::vector<SharerRef> sharers;
  for (uint32_t id : touched_) {
    NameEntry& name = Entry(id);
    name.touched = false;
    if (name.head.file == kInvalidFileId) {
      DropName(id);
      continue;
    }
    sharers.clear();
    for (SharerRef ref = name.head; ref.file != kInvalidFileId;
         ref = files_[ref.file].links[ref.pos].next) {
      sharers.push_back(ref);
    }
    std::sort(sharers.begin(), sharers.end(),
              [&](SharerRef a, SharerRef b) { return rank_[a.file] < rank_[b.file]; });
    FunctionInfo& info = name.info;
    info = FunctionInfo();
    info.name = SharedName(sharers.front());
    size_t site_count = 0;
    for (SharerRef ref : sharers) {
      const IndexShare::Name& entry = files_[ref.file].share.names[ref.pos];
      site_count += entry.sites_end - entry.sites_begin;
      files_[ref.file].shares_touched = true;
    }
    info.call_sites.reserve(site_count);
    for (SharerRef ref : sharers) {
      const IndexShare& share = files_[ref.file].share;
      const IndexShare::Name& entry = share.names[ref.pos];
      if (entry.def != nullptr) {
        info.def_decl = entry.def;
        info.ir = entry.ir;
        info.def_file = ref.file;
      }
      for (uint32_t s = entry.sites_begin; s < entry.sites_end; ++s) {
        info.call_sites.push_back(*share.sites[s]);
      }
    }
  }
  touched_.clear();
  parked_.clear();
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
