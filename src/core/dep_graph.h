// Function-level dependency graph: name-keyed call edges plus the
// alias-affected set (DESIGN.md §18).
//
//   dirty(changed) = changed
//                  ∪ callers(changed) ∪ callees(changed)     (direct edges)
//                  ∪ alias-affected                          (if changed ≠ ∅)
//
// where "alias-affected" is every function containing an indirect call and
// every function whose address is taken.
//
// The incremental engine no longer calls this class. Its carry rule is the
// cache's own validity rule: each file lowers on its own, so a
// function_local() checker's result depends only on its own file's content,
// and a function's result carries exactly when its file's content hash
// matched. perfbench/vc_perfbench.cc still times DirtyClosure as its
// incremental.dep_graph layer, which is why the code stays.

#ifndef VALUECHECK_SRC_CORE_DEP_GRAPH_H_
#define VALUECHECK_SRC_CORE_DEP_GRAPH_H_

#include <map>
#include <set>
#include <string>

#include "src/core/project.h"

namespace vc {

class DepGraph {
 public:
  // Builds edges from the live slots of `project` (unit_order iteration).
  explicit DepGraph(const Project& project);

  // The dirty slice seeded by `changed` function names. Names not defined in
  // the project (externs) still propagate to their callers.
  std::set<std::string> DirtyClosure(const std::set<std::string>& changed) const;

  const std::set<std::string>& alias_affected() const { return alias_affected_; }

 private:
  std::map<std::string, std::set<std::string>> callees_;  // f -> names f calls
  std::map<std::string, std::set<std::string>> callers_;  // f -> names calling f
  std::set<std::string> alias_affected_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_DEP_GRAPH_H_
