// Per-function analysis context shared by every checker.
//
// N checkers pay for one liveness pass: the context computes each shared
// analysis (the slot events, liveness, DefineSets) on first request and
// memoizes the result for the rest of the function's checkers. All analyses
// charge the same per-function BudgetMeter, so the PR-5 resource-budget
// contract extends unchanged to multi-checker runs — the meter's step count
// covers the union of whatever analyses the enabled checkers touched.
//
// The analyses live in buffers the context borrows from its thread's free
// list and hands back when it is destroyed, so once a thread has analyzed a
// function as large as the current one, the function costs no allocation.
// A second live context on the same thread borrows buffers of its own.

#ifndef VALUECHECK_SRC_CHECKERS_CHECKER_CONTEXT_H_
#define VALUECHECK_SRC_CHECKERS_CHECKER_CONTEXT_H_

#include <memory>
#include <string>

#include "src/core/project.h"
#include "src/dataflow/define_sets.h"
#include "src/dataflow/liveness.h"
#include "src/dataflow/slot_events.h"

namespace vc {

class CheckerContext {
 public:
  // `meter` may be null (unmetered run); it is shared across every analysis
  // and checker for this function.
  CheckerContext(const Project& project, FileId file, const IrFunction& func,
                 BudgetMeter* meter = nullptr);
  ~CheckerContext();
  CheckerContext(const CheckerContext&) = delete;
  CheckerContext& operator=(const CheckerContext&) = delete;

  const Project& project() const { return project_; }
  FileId file() const { return file_; }
  const std::string& path() const { return path_; }
  const IrFunction& func() const { return func_; }
  BudgetMeter* meter() const { return meter_; }

  // Shared analyses, computed on first access and memoized. Access order
  // matters for budget accounting: the unused-definition checker requests
  // liveness then define sets, preserving the pre-framework charge order.
  // events() charges nothing.
  const SlotEvents& events();
  const LivenessResult& liveness();
  const DefineSetResult& defines();

  // Shorthand for liveness().address_taken (forces the liveness pass).
  const SlotSet& address_taken() { return liveness().address_taken; }

  // Running state for a replay of blocks from their out-states (the
  // unused-def and out-param checkers): one live set and one define map,
  // reused by every replay in this context.
  SlotSet& replay_live();
  DefineMap& replay_defines();

  struct Buffers;

 private:
  const Project& project_;
  FileId file_;
  const std::string& path_;
  const IrFunction& func_;
  BudgetMeter* meter_;

  std::unique_ptr<Buffers> buffers_;
  bool has_events_ = false;
  bool has_liveness_ = false;
  bool has_defines_ = false;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CHECKERS_CHECKER_CONTEXT_H_
