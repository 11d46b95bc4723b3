// A Project bundles everything ValueCheck analyzes: the source files (from a
// repository head snapshot or given directly), their parsed translation
// units, the lowered IR, preprocessing results (conditional regions for
// pruning), and a cross-file function index.
//
// Files are parsed and lowered independently — mirroring the paper's
// implementation note (§7) that each source object is compiled to a separate
// bitcode file — and the FunctionIndex stitches the per-file views together
// by function name for authorship lookup and peer-definition pruning.
//
// Everything the project keeps about one file lives in one record indexed by
// FileId (beside the public IR module vector): its unit, preprocessing,
// diagnostics, quarantine record, memory footprint, liveness, and its share
// of the function index (the names it defines and calls). A fresh build, a
// recompile and a removal each rewrite a file's record whole. The merged
// views are derived from the records: diagnostics, the quarantine list and
// the memory total are re-read on every update, and the index is merged from
// the shares — each update takes the changed files' old shares out, adds
// their new ones, and rebuilds only the names those shares list. So every
// view is the same however the project reached its current contents. The
// index is one array of entries indexed by a dense name id, and an
// open-addressing table from name to id; a name's sharers are linked
// through the shares themselves, so no name owns a node, a key or a list.
//
// That independence makes construction embarrassingly parallel: file ids are
// assigned sequentially up front, then preprocess/parse/lower (and the
// file's index share) runs across `jobs` worker lanes into per-file records,
// and the records merge in file order — so the resulting Project is
// byte-identical at any job count. Incremental updates compile their files
// the same way, and destruction releases the records and modules across the
// lanes of the last build or update.

#ifndef VALUECHECK_SRC_CORE_PROJECT_H_
#define VALUECHECK_SRC_CORE_PROJECT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/ast/ast.h"
#include "src/core/stage.h"
#include "src/ir/ir.h"
#include "src/lexer/preprocessor.h"
#include "src/support/diagnostics.h"
#include "src/support/fault.h"
#include "src/support/memstats.h"
#include "src/support/source_manager.h"
#include "src/vcs/repository.h"

namespace vc {

// Facts about the analyzed codebase that gate whether a checker can run on
// it at all (Table 5's "-*: report errors during analysis" cells). Checkers
// declare incompatibility via Checker::Unsupported(); the driver quarantines
// them instead of running them.
struct ProjectTraits {
  // Plain C vs C++-heavy codebase: Smatch's parser only handles C.
  bool is_pure_c = true;
  // Kernel-style extensions (inline asm, attribute soup): break fb-infer's
  // clang-plugin capture on Linux.
  bool uses_kernel_extensions = false;
};

// Project-wide view of one function name.
struct FunctionInfo {
  std::string_view name;  // views the name in one of its sharers' trees
  // Definition, when the function is defined inside the project.
  const FunctionDecl* def_decl = nullptr;
  const IrFunction* ir = nullptr;
  FileId def_file = kInvalidFileId;
  // All call sites across every unit (callers resolve externs by name).
  std::vector<CallSite> call_sites;

  bool InProject() const { return def_decl != nullptr; }
};

class Project {
 public:
  Project() = default;
  Project(Project&&) = default;
  Project& operator=(Project&&) = default;
  // Releases each file's record and IR module across the lanes of the last
  // build or update (jobs=1: serially), inside one `teardown` trace span.
  // A moved-from project holds no files and releases nothing.
  ~Project();

  // Parses and lowers the head snapshot of every file in `repo`. `jobs` is
  // the number of parallel worker lanes (1 = serial, 0 = all hardware
  // threads); results are identical at any value.
  //
  // All three factories take optional fault-isolation hooks: with a non-null
  // `fault`/`budget`, a file whose parse/lower throws, trips the injector's
  // "parse.file" site, or exceeds the per-unit deadline is quarantined — it
  // becomes an empty unit with an empty module and no diagnostics, recorded
  // in quarantined() — instead of aborting construction.
  static Project FromRepository(const Repository& repo, Config config = Config(), int jobs = 1,
                                const FaultInjector* fault = nullptr,
                                const ResourceBudget* budget = nullptr);

  // Same, but at a historical commit: every file live at `commit`, including
  // ones deleted later (used by the preliminary-study reproduction, which
  // compares two snapshots years apart).
  static Project FromRepositoryAt(const Repository& repo, CommitId commit,
                                  Config config = Config(), int jobs = 1,
                                  const FaultInjector* fault = nullptr,
                                  const ResourceBudget* budget = nullptr);

  // Parses and lowers explicit (path, content) pairs; no repository attached
  // (authorship-dependent stages then treat every author as unknown).
  static Project FromSources(const std::vector<std::pair<std::string, std::string>>& files,
                             Config config = Config(), int jobs = 1,
                             const FaultInjector* fault = nullptr,
                             const ResourceBudget* budget = nullptr);

  SourceManager& sources() { return sm_; }
  const SourceManager& sources() const { return sm_; }
  DiagnosticEngine& diags() { return diags_; }
  const DiagnosticEngine& diags() const { return diags_; }

  const std::vector<std::unique_ptr<IrModule>>& modules() const { return modules_; }
  const PreprocessResult& preprocessing(FileId file) const { return files_.at(file).pp; }

  // The index entry of `name`; null when no live file defines or calls it.
  // An entry's address holds until the next update (UpsertFiles,
  // RemoveFile, FinishUpdate).
  const FunctionInfo* FindFunction(std::string_view name) const;

  // Total number of non-empty source lines (for the scalability table).
  int TotalLines() const;

  // Files quarantined during construction (parse stage), in file order.
  const std::vector<QuarantinedUnit>& quarantined() const { return quarantined_; }
  // The parse stage of construction (zero after incremental mutations).
  const StageRecord& build_stage() const { return build_stage_; }

  // One file's resident footprint (AST / IR / identifier strings). A file
  // compiled while memory tracking is off has a zero footprint.
  struct FileMemory {
    MemCount ast;
    MemCount ir;
    MemCount strings;
  };

  // The footprint of the live files: exact, identical at any job count, and
  // the same after incremental mutations as for a fresh build over the same
  // live contents.
  FileMemory ParseMemoryTotal() const;

  // --- Incremental mutation API (used by vc::IncrementalEngine) -----------
  // Recompiles (or adds) `files`, distinct paths, across `jobs` worker lanes
  // and returns their FileIds in input order. An existing path keeps its
  // FileId — its slot recompiles in place, and a tombstoned path is revived in
  // its old slot — so locations in carried-over results stay meaningful; new
  // paths get ids in input order. Call FinishUpdate() after a batch of
  // mutations to rebuild derived state.
  std::vector<FileId> UpsertFiles(std::vector<std::pair<std::string, std::string>> files,
                                  const Config& config, int jobs = 1,
                                  const FaultInjector* fault = nullptr,
                                  const ResourceBudget* budget = nullptr);
  // The one-file case of UpsertFiles.
  FileId UpsertFile(const std::string& path, std::string content, const Config& config,
                    const FaultInjector* fault = nullptr,
                    const ResourceBudget* budget = nullptr);

  // Tombstones a deleted path: the slot becomes an empty-but-valid unit that
  // FinishUpdate() drops from the index, diagnostics, and iteration order,
  // and its footprint leaves ParseMemoryTotal(). Returns false when the path
  // is not a live file.
  bool RemoveFile(const std::string& path);

  // Rebuilds diagnostics and the quarantine list from the per-file records,
  // and the index entries of the names the mutations since the last call
  // touched, iterating live slots in path-sorted order — the order a
  // from-scratch repository build compiles in — so the derived state is
  // byte-identical to a fresh Project over the same live contents.
  void FinishUpdate();

  // True when `file` is a live (non-tombstoned) slot.
  bool IsLive(FileId file) const {
    return file >= 0 && static_cast<size_t>(file) < files_.size() && files_[file].live;
  }

  // Slot indices in the order derived state is built: all slots for a fresh
  // project, live path-sorted slots after incremental mutations.
  const std::vector<size_t>& unit_order() const { return unit_order_; }

  // Every indexed name has a dense id below NameIdBound(), stable while the
  // name stays indexed. An id a name gives up in one update is handed out
  // again in a later one at the earliest, so a consumer that follows every
  // update never sees one id stand for two names at once.
  static constexpr uint32_t kNoName = UINT32_MAX;
  uint32_t NameId(std::string_view name) const { return FindId(name, HashName(name)); }
  uint32_t NameIdBound() const { return id_bound_; }
  // The index entry of an indexed name's id (below NameIdBound()); null for
  // an unused id. Its address holds until the next update.
  const FunctionInfo* IndexEntry(uint32_t id) const {
    const NameEntry& entry = Entry(id);
    return entry.live ? &entry.info : nullptr;
  }

  // One file's share of the function index: every name the file defines or
  // calls. It points into the file's own AST and IR, so it leaves the index
  // before they are freed.
  struct IndexShare {
    struct Name {
      std::string_view name;
      const FunctionDecl* def = nullptr;  // the file's last definition of `name`
      const IrFunction* ir = nullptr;     // the file's first IR function of `name`
      uint32_t sites_begin = 0;           // its call sites: sites[begin, end)
      uint32_t sites_end = 0;
      uint32_t id = kNoName;              // see NameId()
    };
    std::vector<Name> names;
    // Call sites grouped by callee name, each group in function order and
    // then call order. The index keeps the one copy of each site.
    std::vector<const CallSite*> sites;
  };
  const IndexShare& index_share(FileId file) const { return files_.at(file).share; }

  // True when the live `file` defines or calls a name whose index entry the
  // last build or FinishUpdate() rebuilt: every name of a fresh build, and
  // after an update the names the changed files' old and new shares list.
  // A file that shares none of them sees every index entry it reads as it
  // was before the update.
  bool SharesTouchedName(FileId file) const { return files_.at(file).shares_touched; }

 private:
  // A file whose share lists a name, and the name's position in it.
  struct SharerRef {
    FileId file = kInvalidFileId;
    uint32_t pos = 0;
  };
  // One share name's neighbours in its name's list of sharers.
  struct SharerLinks {
    SharerRef prev;
    SharerRef next;
  };

  // Everything kept about one file. Compiling or removing the file rewrites
  // its record whole.
  struct FileRecord {
    TranslationUnit unit;
    PreprocessResult pp;
    DiagnosticEngine diags;
    std::optional<QuarantinedUnit> quarantine;
    FileMemory memory;
    IndexShare share;
    std::vector<SharerLinks> links;  // per share name, while the share is added
    bool live = true;
    bool shares_touched = false;  // see SharesTouchedName()
  };

  // One name of the index. `info.name` views the name in the tree of one of
  // its sharers, or in `parked_` while a name whose last sharer left awaits
  // FinishUpdate; so a lookup never reads a freed tree. The sharers are
  // linked in no particular order; `touched` while the name awaits its
  // rebuild.
  struct NameEntry {
    FunctionInfo info;
    SharerRef head;     // the first sharer, or none
    uint32_t hash = 0;  // low bits of HashName(info.name)
    bool live = false;  // the id is in use
    bool touched = false;
  };
  // An open-addressing slot of the name table.
  struct IdSlot {
    uint32_t id = kNoName;
    uint32_t hash = 0;
  };
  // Entries sit in chunks that never move: chunk 0 holds ids
  // [0, kFirstChunk) and chunk k >= 1 ids [kFirstChunk << (k-1), kFirstChunk << k).
  static constexpr uint32_t kFirstChunk = 64;

  static size_t HashName(std::string_view name) { return std::hash<std::string_view>()(name); }
  const NameEntry& Entry(uint32_t id) const;
  NameEntry& Entry(uint32_t id) {
    return const_cast<NameEntry&>(static_cast<const Project&>(*this).Entry(id));
  }
  // The id of `name` (whose hash is `hash`), or kNoName.
  uint32_t FindId(std::string_view name, size_t hash) const;
  // Indexes `name`, which FindId does not know, under a fresh or reused id.
  uint32_t AddName(std::string_view name, size_t hash);
  // Takes a name no file shares any more out of the table and frees its id.
  void DropName(uint32_t id);
  // Sizes the table for `names` names.
  void ReserveNames(size_t names);
  std::string_view SharedName(SharerRef ref) const {
    return files_[ref.file].share.names[ref.pos].name;
  }

  void CompileAll(std::vector<std::pair<std::string, std::string>> files, const Config& config,
                  int jobs, const FaultInjector* fault, const ResourceBudget* budget);
  // Compiles `slots` across `jobs` lanes, each with its index share, then
  // adds the shares to the index.
  void CompileSlots(const std::vector<FileId>& slots, const Config& config, int jobs,
                    const FaultInjector* fault, const ResourceBudget* budget);
  void CompileSlot(size_t i, const Config& config, const FaultInjector* fault,
                   const ResourceBudget* budget);
  // Computes slot `i`'s index share from its unit and module.
  void BuildShare(size_t i);
  // Resets slot `i` to an empty-but-valid unit and module.
  void ClearSlot(size_t i);
  // Index share maintenance: adding or taking out a file's share marks every
  // name it lists for rebuild.
  void AddShare(FileId file);
  void TakeShareOut(FileId file);
  void Touch(uint32_t id);
  // Rebuilds diagnostics, the quarantine list and the touched index entries
  // in unit_order_.
  void BuildDerived();

  SourceManager sm_;
  DiagnosticEngine diags_;
  std::vector<FileRecord> files_;  // indexed by FileId
  std::vector<std::unique_ptr<IrModule>> modules_;
  std::vector<std::unique_ptr<NameEntry[]>> chunks_;  // entries by name id
  uint32_t id_bound_ = 0;                              // ids handed out so far
  std::vector<IdSlot> ids_;  // name -> id; a power of two in size, or empty
  uint32_t names_ = 0;       // names in ids_
  std::vector<uint32_t> free_ids_;  // ids given up by earlier updates
  std::vector<uint32_t> touched_;   // names awaiting their rebuild
  std::deque<std::string> parked_;  // names without a sharer until FinishUpdate
  std::vector<QuarantinedUnit> quarantined_;
  StageRecord build_stage_;
  std::vector<size_t> unit_order_;  // iteration order for derived state
  std::vector<uint32_t> rank_;      // per FileId: position in unit_order_
  int jobs_ = 1;                    // lanes of the last build or update
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_PROJECT_H_
