#include "src/checkers/unused_def_checker.h"

#include "src/core/detector.h"

namespace vc {

std::vector<UnusedDefCandidate> UnusedDefChecker::Check(CheckerContext& ctx) const {
  // Liveness first, then define sets: one fixed meter charge order, so a
  // budget runs out at the same point of the same function on every run.
  const LivenessResult& liveness = ctx.liveness();
  const DefineSetResult& defines = ctx.defines();
  return DetectInFunctionWith(ctx.project(), ctx.file(), ctx.func(), liveness, defines,
                              ctx.meter());
}

}  // namespace vc
