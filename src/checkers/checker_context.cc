#include "src/checkers/checker_context.h"

namespace vc {

CheckerContext::CheckerContext(const Project& project, FileId file, const IrFunction& func,
                               BudgetMeter* meter)
    : project_(project),
      file_(file),
      path_(project.sources().Path(file)),
      func_(func),
      meter_(meter) {}

const LivenessResult& CheckerContext::liveness() {
  if (liveness_ == nullptr) {
    liveness_ = std::make_unique<LivenessResult>(ComputeLiveness(func_, meter_));
  }
  return *liveness_;
}

const DefineSetResult& CheckerContext::defines() {
  if (defines_ == nullptr) {
    defines_ = std::make_unique<DefineSetResult>(ComputeDefineSets(func_, meter_));
  }
  return *defines_;
}

}  // namespace vc
