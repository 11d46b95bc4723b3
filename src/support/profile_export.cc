#include "src/support/profile_export.h"

#include <algorithm>
#include <fstream>
#include <map>

#include "src/support/span_analysis.h"

namespace vc {

namespace {

// Adds each frame's self time under its full stack, depth first.
void FoldSelfTime(const SpanGraph& graph, int idx, const std::string& prefix,
                  std::map<std::string, uint64_t>& weights) {
  const SpanNode& node = graph.nodes[idx];
  std::string stack = prefix.empty() ? node.name : prefix + ";" + node.name;
  for (int child : node.children) {
    FoldSelfTime(graph, child, stack, weights);
  }
  if (node.self_micros > 0) {
    weights[stack] += static_cast<uint64_t>(node.self_micros);
  }
}

}  // namespace

std::string CollapseTraceEvents(const std::vector<TraceEvent>& events) {
  SpanGraph graph = SpanGraph::Build(events);
  std::map<std::string, uint64_t> weights;
  for (int root : graph.roots) {
    FoldSelfTime(graph, root, "", weights);
  }

  // Degenerate traces (every span sub-microsecond) would fold to nothing;
  // keep at least the top-level spans visible with a 1µs floor.
  if (weights.empty()) {
    for (const SpanNode& node : graph.nodes) {
      uint64_t w = node.dur_micros > 0 ? static_cast<uint64_t>(node.dur_micros) : 1;
      weights[node.name] = std::max(weights[node.name], w);
    }
  }

  // std::map iteration is already sorted: byte-stable output.
  std::string out;
  for (const auto& [path, weight] : weights) {
    out += path + " " + std::to_string(weight) + "\n";
  }
  return out;
}

bool WriteCollapsedProfile(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  out << CollapseTraceEvents(TraceCollector::Global().SnapshotEvents());
  return out.good();
}

}  // namespace vc
