#include "src/core/dep_graph.h"

namespace vc {

DepGraph::DepGraph(const Project& project) {
  for (size_t m : project.unit_order()) {
    const auto& module = project.modules()[m];
    for (const auto& func : module->functions) {
      for (const CallSite& site : func->call_sites) {
        if (site.callee == nullptr) {
          // Indirect call: the target set is a points-to question, so the
          // caller re-runs whenever anything changes.
          alias_affected_.insert(func->name);
          continue;
        }
        const std::string callee(site.callee->name);
        callees_[func->name].insert(callee);
        callers_[callee].insert(func->name);
      }
      for (const auto& block : func->blocks) {
        for (const Instruction& inst : block.insts) {
          if (inst.op == Opcode::kAddrFunc && inst.callee() != nullptr) {
            // Address-taken function: a potential indirect-call target.
            alias_affected_.emplace(inst.callee()->name);
          }
        }
      }
    }
  }
}

std::set<std::string> DepGraph::DirtyClosure(const std::set<std::string>& changed) const {
  std::set<std::string> dirty = changed;
  for (const std::string& name : changed) {
    if (auto it = callers_.find(name); it != callers_.end()) {
      dirty.insert(it->second.begin(), it->second.end());
    }
    if (auto it = callees_.find(name); it != callees_.end()) {
      dirty.insert(it->second.begin(), it->second.end());
    }
  }
  if (!changed.empty()) {
    dirty.insert(alias_affected_.begin(), alias_affected_.end());
  }
  return dirty;
}

}  // namespace vc
