// Design-choice ablation (DESIGN.md / paper §4.1): Andersen's flow-insensitive
// points-to vs a flow-sensitive analysis, measured over every function of the
// four synthesized applications. The paper chooses Andersen's "because of its
// better scalability ... while providing a small difference in helping detect
// unused definitions [31]" — this bench reproduces both halves of that claim:
// the cost gap and the (absence of a) detection-outcome gap.

#include <chrono>

#include "bench/bench_util.h"
#include "src/dataflow/liveness.h"
#include "src/pointer/andersen.h"
#include "src/pointer/flow_sensitive.h"
#include "src/testing/oracle.h"

namespace {

// Pointer-heavy synthetic module: swaps, copies, and derefs across branches
// and loops — the workload where the two analyses actually diverge.
std::string PointerStress(int functions) {
  std::string code;
  for (int f = 0; f < functions; ++f) {
    std::string t = std::to_string(f);
    code += "int ps_" + t + "(int n, int c) {\n";
    code += "  int a_" + t + " = 1;\n  int b_" + t + " = 2;\n  int d_" + t + " = 3;\n";
    code += "  int *p = &a_" + t + ";\n  int *q = &b_" + t + ";\n";
    code += "  if (c > 0) {\n    p = &d_" + t + ";\n  }\n";
    code += "  p = q;\n";  // strong update opportunity
    code += "  while (n > 0) {\n    int *t" + t + " = p;\n    p = q;\n    q = t" + t +
            ";\n    n = n - 1;\n  }\n";
    code += "  return *p + *q;\n}\n";
  }
  return code;
}

}  // namespace

int main() {
  using namespace vc;

  TableWriter table({"Workload", "Functions", "Andersen time", "Flow-sens. time",
                     "Andersen |pts|", "Flow-sens. |pts|", "Alias-rule disagreements",
                     "Pointees outside address-taken"});

  struct Workload {
    std::string name;
    Project project;
  };
  std::vector<Workload> workloads;
  for (const ProjectProfile& profile : AllProfiles()) {
    GeneratedApp app = GenerateApp(profile);
    workloads.push_back({app.name, Project::FromRepository(app.repo)});
  }
  workloads.push_back({"pointer-stress", Project::FromSources({{"ps.c", PointerStress(300)}})});

  for (Workload& workload : workloads) {
    const Project& project = workload.project;

    int functions = 0;
    double andersen_seconds = 0.0;
    double flow_seconds = 0.0;
    size_t andersen_size = 0;
    size_t flow_size = 0;
    int disagreements = 0;
    size_t outside_taken = 0;

    for (const auto& module : project.modules()) {
      for (const auto& func : module->functions) {
        ++functions;
        auto t0 = std::chrono::steady_clock::now();
        PointsTo andersen(*func);
        auto t1 = std::chrono::steady_clock::now();
        FlowSensitivePointsTo flow(*func);
        auto t2 = std::chrono::steady_clock::now();
        andersen_seconds += std::chrono::duration<double>(t1 - t0).count();
        flow_seconds += std::chrono::duration<double>(t2 - t1).count();

        for (ValueId v = 0; v < func->next_value; ++v) {
          andersen_size += andersen.SlotsPointedBy(v).size();
          flow_size += flow.SlotsPointedBy(v).size();
        }

        // The question that matters to ValueCheck: does either analysis give
        // a different answer to "may this slot be reached through a pointer"
        // for any candidate-eligible slot? (That is the alias rule's input.)
        for (SlotId slot = 0; slot < func->slots.size(); ++slot) {
          if (andersen.SlotIsPointee(slot) != flow.SlotIsPointee(slot)) {
            ++disagreements;
          }
        }
        // The question the product does ask: does the detector's alias rule
        // (the address-taken set) cover every slot Andersen admits?
        outside_taken += testing::PointeesOutsideAddressTaken(*func).size();
      }
    }

    table.AddRow({workload.name, std::to_string(functions),
                  FormatDouble(andersen_seconds * 1000.0, 1) + "ms",
                  FormatDouble(flow_seconds * 1000.0, 1) + "ms",
                  std::to_string(andersen_size), std::to_string(flow_size),
                  std::to_string(disagreements), std::to_string(outside_taken)});
  }

  EmitTable("=== Ablation: Andersen vs flow-sensitive points-to (§4.1 design choice) ===",
            table, "ablation_pointer_analysis.csv");
  std::printf("expected shape: flow-sensitive pays more time for smaller points-to sets,\n"
              "but the alias-rule answers ValueCheck consumes agree (column = 0), matching\n"
              "the paper's rationale for choosing Andersen's analysis; and the address-taken\n"
              "set the detector suppresses covers every Andersen pointee (last column = 0).\n");
  return 0;
}
