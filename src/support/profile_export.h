// Collapsed-stack profile export: folds the TraceCollector's spans into
// flamegraph.pl's collapsed format — one line per unique stack,
// "frame;frame;frame <weight>", weight in microseconds of self time.
//
// Stacks are the recorded span tree (SpanGraph::Build, span_analysis.h), the
// same tree the perf report reads: a span on a pool worker sits under its
// lane, and the lane under the parallel_for that ran it, on any thread
// (`…;parallel_for;lane;detect_fn`). A frame's self time is its
// duration minus the durations of its children on the same thread. Output
// lines are sorted, so identical traces fold to byte-identical profiles.

#ifndef VALUECHECK_SRC_SUPPORT_PROFILE_EXPORT_H_
#define VALUECHECK_SRC_SUPPORT_PROFILE_EXPORT_H_

#include <string>
#include <vector>

#include "src/support/trace.h"

namespace vc {

// Pure fold over a span list (testable without the global collector).
std::string CollapseTraceEvents(const std::vector<TraceEvent>& events);

// Folds TraceCollector::Global()'s buffered spans and writes them to `path`.
// Returns false on I/O failure.
bool WriteCollapsedProfile(const std::string& path);

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_PROFILE_EXPORT_H_
