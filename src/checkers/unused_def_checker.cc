#include "src/checkers/unused_def_checker.h"

#include "src/core/detector.h"

namespace vc {

std::vector<UnusedDefCandidate> UnusedDefChecker::Check(CheckerContext& ctx) const {
  return DetectInFunctionWith(ctx);
}

}  // namespace vc
