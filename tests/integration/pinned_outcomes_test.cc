// Pinned outcomes: the exact result of every sampling and greedy solver
// on the conformance-matrix instances, as recorded before the streaming
// set-cover solvers were rebuilt on the shared skeleton (core/cover_run.h).
// The conformance matrix compares its cells with one another, so a change
// that moves every cell alike — one more RNG draw, a reordered meter
// charge, a different guess grid — passes it; this table does not.
//
// A mismatch prints the row as it now reads. Update a row only for a
// change that means to alter the solver's output, and say why in the
// change's description.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "stream/set_stream.h"
#include "testing/solver_matrix.h"

namespace streamsc {
namespace {

using testing::MatrixInstance;
using testing::RegistrySolverFn;
using testing::SolverOutcome;

struct PinnedRow {
  const char* solver;
  std::vector<std::string> options;
  std::uint64_t instance_seed;  ///< MatrixInstance(320, 28, 4, seed).
  std::vector<SetId> chosen;
  bool feasible;
  std::uint64_t passes;
  Bytes peak_space_bytes;
  std::uint64_t engine_passes;
  std::uint64_t items_scanned;
  std::uint64_t sets_taken;
  std::uint64_t elements_covered;
  std::uint64_t extra;
};

// The first seven rows are the conformance-matrix cells (same solver,
// options and instance seed as solver_matrix_test.cc); the rest reach the
// paths those cells miss: the exact sub-solve's greedy fallback, assadi's
// greedy-only sub-solve, a known õpt, a failed guess, and the sieve.
const std::vector<PinnedRow>& PinnedRows() {
  static const std::vector<PinnedRow> kRows = {
      {"assadi", {"alpha=2", "epsilon=0.5", "seed=11"}, 7,
       {28, 2, 1, 0, 3}, true, 9, 1316, 9, 261, 5, 320, 0},
      {"har_peled", {"alpha=2", "seed=13"}, 8,
       {0, 1, 2, 3}, true, 3, 832, 3, 87, 5, 480, 0},
      {"demaine", {"alpha=4", "seed=17"}, 9,
       {28, 14, 3, 1, 2, 0}, true, 4, 1316, 4, 116, 12, 640, 0},
      {"emek_rosen", {}, 10,
       {0, 1, 2, 3}, true, 1, 1336, 1, 29, 4, 320, 0},
      {"one_pass", {"min_gain_fraction=0.05"}, 11,
       {0, 1, 2, 3}, true, 1, 56, 1, 29, 4, 320, 0},
      {"threshold_greedy", {}, 12,
       {28, 0, 3, 1, 2}, true, 5, 60, 5, 145, 5, 320, 0},
      {"element_sampling_mc", {"seed=19", "k=3"}, 13,
       {28, 3, 0}, true, 2, 1316, 2, 58, 3, 243, 243},
      {"assadi",
       {"alpha=3", "epsilon=0.25", "seed=5", "exact_node_budget=1"}, 7,
       {28, 23, 3, 1, 0, 2}, true, 13, 1316, 13, 377, 6, 320, 0},
      {"assadi", {"use_exact_subsolver=false", "seed=3"}, 8,
       {28, 24, 9, 0, 3, 1, 2}, true, 9, 1316, 9, 261, 21, 960, 0},
      {"assadi", {"alpha=1", "known_opt=4", "ensure_feasible=false"}, 9,
       {28, 3, 1, 0, 2}, true, 3, 832, 3, 87, 5, 320, 0},
      {"har_peled", {"alpha=4", "seed=2", "exact_node_budget=1"}, 9,
       {0, 1, 2, 3}, true, 3, 832, 3, 87, 5, 480, 0},
      {"demaine", {"alpha=2", "known_opt=3", "ensure_feasible=false"}, 10,
       {}, false, 2, 1316, 2, 58, 8, 320, 0},
      {"demaine", {"alpha=8", "sampling_boost=0.25"}, 11,
       {16, 1, 0, 2, 3}, true, 4, 372, 4, 116, 5, 320, 0},
      {"element_sampling_mc", {"k=5", "exact_k_limit=2"}, 14,
       {28, 13, 1, 0, 3}, true, 2, 1316, 2, 58, 5, 297, 297},
      {"sieve_mc", {"k=3"}, 14,
       {0, 1, 2}, true, 1, 2920, 1, 29, 203, 16880, 240},
  };
  return kRows;
}

// One row as C++ source, so a mismatch reads as the row to paste.
std::string Describe(const PinnedRow& row) {
  std::string s = "{\"" + std::string(row.solver) + "\", {";
  for (std::size_t i = 0; i < row.options.size(); ++i) {
    s += (i ? ", \"" : "\"") + row.options[i] + "\"";
  }
  s += "}, " + std::to_string(row.instance_seed) + ", {";
  for (std::size_t i = 0; i < row.chosen.size(); ++i) {
    s += (i ? ", " : "") + std::to_string(row.chosen[i]);
  }
  s += "}, " + std::string(row.feasible ? "true" : "false");
  for (const std::uint64_t v :
       {row.passes, row.peak_space_bytes, row.engine_passes,
        row.items_scanned, row.sets_taken, row.elements_covered, row.extra}) {
    s += ", " + std::to_string(v);
  }
  return s + "},";
}

TEST(PinnedOutcomeTest, SamplingAndGreedySolversMatchRecordedRuns) {
  ASSERT_FALSE(PinnedRows().empty());
  for (const PinnedRow& row : PinnedRows()) {
    const SetSystem system = MatrixInstance(320, 28, 4, row.instance_seed);
    VectorSetStream stream(system);
    const SolverOutcome out =
        RegistrySolverFn(row.solver, row.options)(stream, nullptr);
    const PinnedRow actual{row.solver,
                           row.options,
                           row.instance_seed,
                           {out.chosen.begin(), out.chosen.end()},
                           out.feasible,
                           out.passes,
                           out.peak_space_bytes,
                           out.engine_passes,
                           out.items_scanned,
                           out.sets_taken,
                           out.elements_covered,
                           out.extra};
    EXPECT_EQ(Describe(actual), Describe(row));
  }
}

}  // namespace
}  // namespace streamsc
