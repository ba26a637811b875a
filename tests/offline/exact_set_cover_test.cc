#include "offline/exact_set_cover.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "instance/generators.h"
#include "offline/greedy.h"
#include "util/random.h"

namespace streamsc {
namespace {

TEST(ExactSetCoverTest, TrivialSingleSet) {
  SetSystem system(4);
  system.AddSetFromIndices({0, 1, 2, 3});
  const ExactSetCoverResult result = SolveExactSetCover(system);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.solution.size(), 1u);
}

TEST(ExactSetCoverTest, EmptyUniverse) {
  SetSystem system(4);
  system.AddSetFromIndices({0});
  const ExactSetCoverResult result =
      SolveExactSetCover(system, DynamicBitset(4));
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_TRUE(result.solution.empty());
}

TEST(ExactSetCoverTest, InfeasibleInstance) {
  SetSystem system(4);
  system.AddSetFromIndices({0, 1});
  const ExactSetCoverResult result = SolveExactSetCover(system);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(result.complete);
}

TEST(ExactSetCoverTest, BeatsGreedyOnAdversarialInstance) {
  // Classic greedy-trap: greedy takes the big middle set, optimum is the
  // two halves.
  SetSystem system(8);
  system.AddSetFromIndices({0, 1, 2, 3});       // optimal half
  system.AddSetFromIndices({4, 5, 6, 7});       // optimal half
  system.AddSetFromIndices({1, 2, 3, 4, 5});    // greedy bait (size 5)
  const Solution greedy = GreedySetCover(system);
  const ExactSetCoverResult exact = SolveExactSetCover(system);
  ASSERT_TRUE(exact.feasible);
  EXPECT_TRUE(exact.proven_optimal);
  EXPECT_EQ(exact.solution.size(), 2u);
  EXPECT_EQ(greedy.size(), 3u);  // greedy really does fall for it
}

TEST(ExactSetCoverTest, MatchesPlantedOptimum) {
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<SetId> planted;
    const SetSystem system =
        PlantedCoverInstance(60, 15, 3 + trial % 3, rng, &planted);
    const ExactSetCoverResult result = SolveExactSetCover(system);
    ASSERT_TRUE(result.feasible);
    EXPECT_TRUE(result.proven_optimal);
    EXPECT_EQ(result.solution.size(), planted.size());
  }
}

TEST(ExactSetCoverTest, SizeLimitTurnsIntoDecisionProcedure) {
  SetSystem system(6);
  system.AddSetFromIndices({0, 1});
  system.AddSetFromIndices({2, 3});
  system.AddSetFromIndices({4, 5});
  // opt = 3; ask for <= 2.
  ExactSetCoverOptions options;
  options.size_limit = 2;
  const ExactSetCoverResult no = SolveExactSetCover(system, options);
  EXPECT_FALSE(no.feasible);
  EXPECT_TRUE(no.complete);  // provably no 2-cover
  options.size_limit = 3;
  const ExactSetCoverResult yes = SolveExactSetCover(system, options);
  EXPECT_TRUE(yes.feasible);
  EXPECT_EQ(yes.solution.size(), 3u);
}

TEST(ExactSetCoverTest, SolutionIsAlwaysFeasibleWhenReported) {
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const SetSystem system = UniformRandomInstance(50, 12, 12, rng);
    const ExactSetCoverResult result = SolveExactSetCover(system);
    if (result.feasible) {
      EXPECT_TRUE(system.IsFeasibleCover(result.solution.chosen));
    }
  }
}

TEST(ExactSetCoverTest, NeverLargerThanGreedy) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const SetSystem system = UniformRandomInstance(40, 10, 8, rng);
    const Solution greedy = GreedySetCover(system);
    const ExactSetCoverResult exact = SolveExactSetCover(system);
    if (exact.proven_optimal && system.IsFeasibleCover(greedy.chosen)) {
      EXPECT_LE(exact.solution.size(), greedy.size());
    }
  }
}

TEST(ExactSetCoverTest, NodeBudgetDegradesGracefully) {
  Rng rng(4);
  const SetSystem system = UniformRandomInstance(80, 25, 10, rng);
  ExactSetCoverOptions options;
  options.max_nodes = 3;  // absurdly small
  const ExactSetCoverResult result = SolveExactSetCover(system, options);
  EXPECT_FALSE(result.complete);
  // Still returns the greedy warm start when feasible.
  if (result.feasible) {
    EXPECT_TRUE(system.IsFeasibleCover(result.solution.chosen));
    EXPECT_FALSE(result.proven_optimal);
  }
}

TEST(ExactSetCoverTest, RestrictedUniverse) {
  SetSystem system(8);
  system.AddSetFromIndices({0, 1, 2, 3, 4});
  system.AddSetFromIndices({5});
  system.AddSetFromIndices({6, 7});
  DynamicBitset universe(8);
  universe.Set(5);
  const ExactSetCoverResult result = SolveExactSetCover(system, universe);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.solution.size(), 1u);
  EXPECT_EQ(result.solution.chosen[0], 1u);
}

TEST(ExactSetCoverTest, DuplicateSetsDoNotConfuse) {
  SetSystem system(4);
  for (int i = 0; i < 6; ++i) system.AddSetFromIndices({0, 1});
  system.AddSetFromIndices({2, 3});
  const ExactSetCoverResult result = SolveExactSetCover(system);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.solution.size(), 2u);
}

TEST(ExactSetCoverTest, ReportsNodeCount) {
  SetSystem system(4);
  system.AddSetFromIndices({0, 1, 2, 3});
  const ExactSetCoverResult result = SolveExactSetCover(system);
  EXPECT_GE(result.nodes, 1u);
}

// A planted cover with `extra` random decoy sets of the given density:
// the decoys make greedy miss and push the search several levels deep.
SetSystem PlantedWithDecoys(std::size_t n, std::size_t planted_sets,
                            std::size_t opt, std::size_t extra,
                            double density, std::uint64_t seed) {
  Rng rng(seed);
  SetSystem system = PlantedCoverInstance(n, planted_sets, opt, rng);
  for (std::size_t d = 0; d < extra; ++d) {
    std::vector<ElementId> members;
    for (ElementId e = 0; e < n; ++e) {
      if (rng.Bernoulli(density)) members.push_back(e);
    }
    system.AddSetFromIndices(members);
  }
  return system;
}

struct PinnedSearch {
  std::size_t n, planted_sets, opt, extra;
  double density;
  std::uint64_t seed;
  std::size_t size_limit;
  std::uint64_t max_nodes;
  std::uint64_t nodes;
  std::vector<SetId> chosen;
};

// The search's node count and chosen sets are part of its contract: a
// speed-up of the per-node work (gain scan, transposition key) must not
// change which nodes are expanded or in which order. Every row but the
// first two revisits a state through the transposition table; the last
// two stop at the node budget.
TEST(ExactSetCoverTest, NodeCountsAndChoicesArePinned) {
  constexpr std::size_t kNoLimit = ~std::size_t{0};
  constexpr std::uint64_t kNoBudget = 50'000'000;
  const std::vector<PinnedSearch> pinned = {
      {64, 12, 4, 30, 0.20, 1, kNoLimit, kNoBudget, 39, {2, 1, 0, 3}},
      {96, 16, 6, 40, 0.15, 2, 5, kNoBudget, 13, {}},
      {96, 16, 6, 40, 0.15, 4, kNoLimit, kNoBudget, 308, {1, 5, 0, 2, 3, 4}},
      {128, 20, 8, 60, 0.12, 1, kNoLimit, kNoBudget, 2074,
       {3, 7, 1, 5, 2, 4, 0, 6}},
      {80, 10, 5, 50, 0.25, 2, kNoLimit, kNoBudget, 2607, {0, 4, 2, 3, 1}},
      {80, 10, 5, 50, 0.25, 2, 4, kNoBudget, 81, {}},
      {128, 20, 8, 60, 0.12, 5, kNoLimit, kNoBudget, 10147,
       {1, 0, 6, 7, 4, 5, 3, 2}},
      {80, 10, 5, 50, 0.25, 2, kNoLimit, 500, 501,
       {51, 39, 30, 38, 57, 5, 36}},
      {128, 20, 8, 60, 0.12, 5, kNoLimit, 500, 501,
       {38, 39, 50, 40, 20, 5, 4, 7, 70, 23, 9, 2, 3, 14}},
  };
  for (const PinnedSearch& p : pinned) {
    SCOPED_TRACE("n=" + std::to_string(p.n) + " seed=" +
                 std::to_string(p.seed) + " nodes=" + std::to_string(p.nodes));
    const SetSystem system = PlantedWithDecoys(p.n, p.planted_sets, p.opt,
                                               p.extra, p.density, p.seed);
    ExactSetCoverOptions options;
    options.size_limit = p.size_limit;
    options.max_nodes = p.max_nodes;
    const ExactSetCoverResult result = SolveExactSetCover(system, options);
    EXPECT_EQ(result.nodes, p.nodes);
    EXPECT_EQ(result.solution.chosen, p.chosen);
    EXPECT_EQ(result.complete, p.nodes <= p.max_nodes);
  }
}

// Exhaustive cross-check against brute force on random tiny instances.
class ExactSetCoverBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactSetCoverBruteForceTest, MatchesBruteForce) {
  Rng rng(100 + GetParam());
  const std::size_t n = 10, m = 7;
  SetSystem system(n);
  for (std::size_t i = 0; i < m; ++i) {
    system.AddSet(rng.BernoulliSubset(n, 0.35));
  }
  // Brute force over all 2^m subsets.
  std::size_t best = m + 1;
  for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
    DynamicBitset u(n);
    std::size_t size = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (mask & (1u << i)) {
        system.set(i).OrInto(u);
        ++size;
      }
    }
    if (u.All()) best = std::min(best, size);
  }
  const ExactSetCoverResult result = SolveExactSetCover(system);
  if (best == m + 1) {
    EXPECT_FALSE(result.feasible);
  } else {
    ASSERT_TRUE(result.feasible);
    EXPECT_TRUE(result.proven_optimal);
    EXPECT_EQ(result.solution.size(), best);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ExactSetCoverBruteForceTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace streamsc
