// E7 — Upper-bound landscape: Assadi (Theorem 2) vs Har-Peled-style
// iterative pruning vs DIMV'14 vs multi-pass threshold greedy vs the
// single-pass baselines, on shared instances. Reports passes / space /
// solution size / ratio, now per thread count: every contender is built
// from the string-keyed SolverRegistry (the same front door the CLI and
// tests use) and runs once sequentially and once on an 8-thread pool
// bound per run via RunContext, with the speedup column tracking what
// the routed engine passes buy. Solutions are bit-identical across the
// two rows by the engine's determinism contract (asserted here, proven
// exhaustively in tests/integration/solver_matrix_test.cc).

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/solver_registry.h"
#include "bench_common.h"
#include "instance/generators.h"
#include "offline/greedy.h"
#include "stream/engine_context.h"
#include "stream/set_stream.h"
#include "util/check.h"
#include "util/table_printer.h"

namespace streamsc {
namespace {

constexpr std::size_t kParallelThreads = 8;

struct Contender {
  std::string label;
  std::string solver;                 // registry key
  std::vector<std::string> options;   // key=value args
};

void Compare(const std::string& title, const SetSystem& system,
             std::size_t opt_hint, bench::BenchJson* json) {
  bench::Banner("E7: " + title,
                "who wins where: space vs passes vs approximation; "
                "threads column tracks the engine-routed speedup");
  std::vector<Contender> contenders;
  for (const std::size_t alpha : {2, 4}) {
    const std::string a = std::to_string(alpha);
    // Cap the exact sub-solver so failing guesses on instances with
    // moderate opt degrade to greedy in bounded time (the A2 ablation
    // quantifies what the optimal sub-solve buys; the cap only shows on
    // flat instances as guess-acceptance slack).
    contenders.push_back({"assadi(a=" + a + ")", "assadi",
                          {"alpha=" + a, "epsilon=0.5",
                           "exact_node_budget=200000"}});
    contenders.push_back({"har-peled(a=" + a + ")", "har_peled",
                          {"alpha=" + a, "exact_node_budget=200000"}});
    contenders.push_back({"demaine(a=" + a + ")", "demaine", {"alpha=" + a}});
  }
  contenders.push_back({"threshold-greedy", "threshold_greedy", {}});
  contenders.push_back({"emek-rosen", "emek_rosen", {}});
  contenders.push_back({"one-pass", "one_pass", {}});

  // MakeEngine owns the thread-count policy: 1 resolves to the null
  // (sequential) engine, kParallelThreads to a shared pool. The engine is
  // bound per *run* (RunContext), so one pool serves every contender.
  const std::unique_ptr<ParallelPassEngine> pool =
      MakeEngine(kParallelThreads);
  TablePrinter table({"algorithm", "threads", "passes", "space", "sets",
                      "ratio_vs_opt", "feasible", "wall_ms", "speedup"});
  for (const Contender& contender : contenders) {
    ArenaVector<SetId> sequential_solution;
    double sequential_wall = 0.0;
    for (const std::size_t threads : {std::size_t{1}, kParallelThreads}) {
      ParallelPassEngine* engine = threads == 1 ? nullptr : pool.get();
      VectorSetStream stream(system);
      if (engine != nullptr) {
        // A silent sequential fallback here would report a fake 1.0x.
        RequireSharded(stream, engine);
      }
      StatusOr<std::unique_ptr<AnySolver>> solver =
          SolverRegistry::Global().Create(contender.solver,
                                          contender.options);
      STREAMSC_CHECK(solver.ok(),
                     "bench misconfiguration: the registry rejected a "
                     "contender's options");
      RunContext context;
      context.engine = engine;
      StatusOr<SolveReport> report = (*solver)->Run(stream, context);
      STREAMSC_CHECK(report.ok(), "contender run failed");
      if (threads == 1) {
        sequential_solution = report->solution.chosen;
        sequential_wall = report->wall_seconds;
      } else {
        STREAMSC_CHECK(report->solution.chosen == sequential_solution,
                       "determinism violation: a solver's parallel run "
                       "diverged from its sequential run");
      }
      table.BeginRow();
      table.AddCell(contender.label);
      table.AddCell(static_cast<std::uint64_t>(threads));
      table.AddCell(report->passes);
      table.AddCell(HumanBytes(report->peak_space_bytes));
      table.AddCell(static_cast<std::uint64_t>(report->solution.size()));
      table.AddCell(static_cast<double>(report->solution.size()) /
                        static_cast<double>(opt_hint),
                    2);
      table.AddCell(report->feasible ? "yes" : "NO");
      table.AddCell(report->wall_seconds * 1e3, 2);
      table.AddCell(threads == 1
                        ? 1.0
                        : sequential_wall /
                              std::max(report->wall_seconds, 1e-9),
                    2);
      json->Add({contender.label, title, system.universe_size(),
                 system.num_sets(), threads, report->passes,
                 report->peak_space_bytes, report->wall_seconds});
    }
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace streamsc

int main() {
  using namespace streamsc;
  bench::BenchJson json("e7_algorithm_comparison");
  {
    Rng rng(1);
    const std::size_t opt = 4;
    const SetSystem system = PlantedCoverInstance(8192, 128, opt, rng);
    Compare("planted cover (n=8192, m=128, opt=4)", system, opt, &json);
  }
  {
    Rng rng(2);
    const SetSystem system = UniformRandomInstance(4096, 128, 512, rng);
    // A full exact solve is intractable here (opt ~ 25 over 128 sets);
    // normalize by offline greedy instead — an upper bound on opt, so the
    // reported "ratio" column is a *lower* bound on the true ratio and
    // the cross-algorithm ordering is unaffected.
    const std::size_t greedy_size = GreedySetCover(system).size();
    Compare("uniform random (n=4096, m=128, |S|=512; ratio vs greedy)",
            system, greedy_size, &json);
  }
  {
    Rng rng(3);
    const SetSystem system = NeedleInstance(4096, 96, 6, rng);
    Compare("needles in haystack (n=4096, m=96, opt=6)", system, 6, &json);
  }
  json.Write();
  std::cout << "\n# expect per the paper: assadi space < har-peled space at "
               "equal alpha; threshold-greedy smallest space but log-n "
               "ratio; one-pass worst ratio on adversarial instances\n";
  return 0;
}
