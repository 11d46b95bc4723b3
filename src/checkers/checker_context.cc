#include "src/checkers/checker_context.h"

#include <vector>

namespace vc {

struct CheckerContext::Buffers {
  SlotEvents events;
  LivenessResult liveness;
  DefineSetResult defines;
  SlotSet replay_live;
  DefineMap replay_defines;
};

namespace {

// Buffers no live context holds, per thread.
thread_local std::vector<std::unique_ptr<CheckerContext::Buffers>> free_buffers;

}  // namespace

CheckerContext::CheckerContext(const Project& project, FileId file, const IrFunction& func,
                               BudgetMeter* meter)
    : project_(project),
      file_(file),
      path_(project.sources().Path(file)),
      func_(func),
      meter_(meter) {
  if (free_buffers.empty()) {
    buffers_ = std::make_unique<Buffers>();
  } else {
    buffers_ = std::move(free_buffers.back());
    free_buffers.pop_back();
  }
}

CheckerContext::~CheckerContext() { free_buffers.push_back(std::move(buffers_)); }

const SlotEvents& CheckerContext::events() {
  if (!has_events_) {
    buffers_->events.Build(func_);
    has_events_ = true;
  }
  return buffers_->events;
}

const LivenessResult& CheckerContext::liveness() {
  if (!has_liveness_) {
    ComputeLiveness(events(), meter_, buffers_->liveness);
    has_liveness_ = true;
  }
  return buffers_->liveness;
}

const DefineSetResult& CheckerContext::defines() {
  if (!has_defines_) {
    ComputeDefineSets(events(), meter_, buffers_->defines);
    has_defines_ = true;
  }
  return buffers_->defines;
}

SlotSet& CheckerContext::replay_live() { return buffers_->replay_live; }

DefineMap& CheckerContext::replay_defines() { return buffers_->replay_defines; }

}  // namespace vc
