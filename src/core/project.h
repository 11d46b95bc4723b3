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
// diagnostics, quarantine record, memory footprint and liveness. A fresh
// build, a recompile and a removal each rewrite a file's record whole, and
// the merged views (diagnostics, quarantine list, index, memory total) are
// rebuilt from the records — so they are the same however the project
// reached its current contents.
//
// That independence makes construction embarrassingly parallel: file ids are
// assigned sequentially up front, then preprocess/parse/lower runs across
// `jobs` worker lanes into per-file records, and per-file diagnostics are
// merged in file order — so the resulting Project is byte-identical at any
// job count.

#ifndef VALUECHECK_SRC_CORE_PROJECT_H_
#define VALUECHECK_SRC_CORE_PROJECT_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
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
  std::string name;
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

  // Same, but at a historical commit (used by the preliminary-study
  // reproduction, which compares two snapshots years apart).
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

  const std::map<std::string, FunctionInfo>& function_index() const { return index_; }
  const FunctionInfo* FindFunction(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : &it->second;
  }

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
  // Recompiles (or adds) one file. An existing path keeps its FileId — its
  // slot recompiles in place, and a tombstoned path is revived in its old
  // slot — so locations in carried-over results stay meaningful. Call
  // FinishUpdate() after a batch of mutations to rebuild derived state.
  FileId UpsertFile(const std::string& path, std::string content, const Config& config,
                    const FaultInjector* fault = nullptr,
                    const ResourceBudget* budget = nullptr);

  // Tombstones a deleted path: the slot becomes an empty-but-valid unit that
  // FinishUpdate() drops from the index, diagnostics, and iteration order,
  // and its footprint leaves ParseMemoryTotal(). Returns false when the path
  // is not a live file.
  bool RemoveFile(const std::string& path);

  // Rebuilds diagnostics, the quarantine list, and the function index from
  // the per-file records, iterating live slots in path-sorted order — the
  // order a from-scratch repository build compiles in — so the derived state
  // is byte-identical to a fresh Project over the same live contents.
  void FinishUpdate();

  // True when `file` is a live (non-tombstoned) slot.
  bool IsLive(FileId file) const {
    return file >= 0 && static_cast<size_t>(file) < files_.size() && files_[file].live;
  }

  // Slot indices in the order derived state is built: all slots for a fresh
  // project, live path-sorted slots after incremental mutations.
  const std::vector<size_t>& unit_order() const { return unit_order_; }

 private:
  // Everything kept about one file. Compiling or removing the file rewrites
  // its record whole.
  struct FileRecord {
    TranslationUnit unit;
    PreprocessResult pp;
    DiagnosticEngine diags;
    std::optional<QuarantinedUnit> quarantine;
    FileMemory memory;
    bool live = true;
  };

  void CompileAll(std::vector<std::pair<std::string, std::string>> files, const Config& config,
                  int jobs, const FaultInjector* fault, const ResourceBudget* budget);
  void CompileSlot(size_t i, const Config& config, const FaultInjector* fault,
                   const ResourceBudget* budget);
  // Resets slot `i` to an empty-but-valid unit and module.
  void ClearSlot(size_t i);
  // Rebuilds diagnostics, the quarantine list and the index in unit_order_.
  void BuildDerived();

  SourceManager sm_;
  DiagnosticEngine diags_;
  std::vector<FileRecord> files_;  // indexed by FileId
  std::vector<std::unique_ptr<IrModule>> modules_;
  std::map<std::string, FunctionInfo> index_;
  std::vector<QuarantinedUnit> quarantined_;
  StageRecord build_stage_;
  std::vector<size_t> unit_order_;  // iteration order for derived state
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_PROJECT_H_
