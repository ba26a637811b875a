#include "offline/greedy.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "instance/generators.h"
#include "util/math.h"
#include "util/random.h"

namespace streamsc {
namespace {

TEST(GreedySetCoverTest, CoversSimpleInstance) {
  SetSystem system(6);
  system.AddSetFromIndices({0, 1, 2});
  system.AddSetFromIndices({3, 4});
  system.AddSetFromIndices({5});
  const Solution solution = GreedySetCover(system);
  EXPECT_TRUE(system.IsFeasibleCover(solution.chosen));
  EXPECT_EQ(solution.size(), 3u);
}

TEST(GreedySetCoverTest, PicksLargestFirst) {
  SetSystem system(6);
  system.AddSetFromIndices({0});
  system.AddSetFromIndices({0, 1, 2, 3, 4, 5});
  const Solution solution = GreedySetCover(system);
  ASSERT_EQ(solution.size(), 1u);
  EXPECT_EQ(solution.chosen[0], 1u);
}

TEST(GreedySetCoverTest, TieBreaksByLowerId) {
  SetSystem system(4);
  system.AddSetFromIndices({0, 1});
  system.AddSetFromIndices({2, 3});
  system.AddSetFromIndices({0, 1});
  const Solution solution = GreedySetCover(system);
  EXPECT_EQ(solution.chosen[0], 0u);
}

TEST(GreedySetCoverTest, RestrictedUniverse) {
  SetSystem system(6);
  system.AddSetFromIndices({0, 1});
  system.AddSetFromIndices({2, 3});
  system.AddSetFromIndices({4, 5});
  DynamicBitset universe(6);
  universe.Set(0);
  universe.Set(2);
  const Solution solution = GreedySetCover(system, universe);
  EXPECT_EQ(solution.size(), 2u);
  EXPECT_TRUE(universe.IsSubsetOf(system.UnionOf(solution.chosen)));
}

TEST(GreedySetCoverTest, InfeasibleResidueStops) {
  SetSystem system(4);
  system.AddSetFromIndices({0, 1});
  // Elements 2, 3 uncoverable.
  const Solution solution = GreedySetCover(system);
  EXPECT_EQ(solution.size(), 1u);
  EXPECT_FALSE(system.IsFeasibleCover(solution.chosen));
}

TEST(GreedySetCoverTest, EmptyUniverseNeedsNothing) {
  SetSystem system(4);
  system.AddSetFromIndices({0});
  const Solution solution = GreedySetCover(system, DynamicBitset(4));
  EXPECT_TRUE(solution.empty());
}

TEST(GreedySetCoverTest, LnNApproximationOnPlanted) {
  // Greedy is within H_n of optimal (classic guarantee).
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<SetId> planted;
    const SetSystem system = PlantedCoverInstance(200, 40, 5, rng, &planted);
    const Solution greedy = GreedySetCover(system);
    EXPECT_TRUE(system.IsFeasibleCover(greedy.chosen));
    EXPECT_LE(static_cast<double>(greedy.size()),
              HarmonicNumber(200) * 5.0 + 1.0);
  }
}

TEST(GreedyMaxCoverageTest, RespectsBudget) {
  SetSystem system(10);
  for (int i = 0; i < 5; ++i) {
    system.AddSetFromIndices({static_cast<ElementId>(2 * i),
                              static_cast<ElementId>(2 * i + 1)});
  }
  const Solution solution = GreedyMaxCoverage(system, 3);
  EXPECT_EQ(solution.size(), 3u);
  EXPECT_EQ(system.CoverageOf(solution.chosen), 6u);
}

TEST(GreedyMaxCoverageTest, StopsEarlyWhenCovered) {
  SetSystem system(4);
  system.AddSetFromIndices({0, 1, 2, 3});
  system.AddSetFromIndices({0});
  const Solution solution = GreedyMaxCoverage(system, 3);
  EXPECT_EQ(solution.size(), 1u);
}

TEST(GreedyMaxCoverageTest, MarginalGainNotRawSize) {
  SetSystem system(6);
  system.AddSetFromIndices({0, 1, 2, 3});
  system.AddSetFromIndices({0, 1, 2});    // large but redundant
  system.AddSetFromIndices({4, 5});       // small but new
  const Solution solution = GreedyMaxCoverage(system, 2);
  ASSERT_EQ(solution.size(), 2u);
  EXPECT_EQ(solution.chosen[0], 0u);
  EXPECT_EQ(solution.chosen[1], 2u);
}

TEST(GreedyMaxCoverageTest, OneMinusOneOverEOnRandom) {
  // Greedy k-coverage is a (1 - 1/e) approximation; against the trivially
  // bounded optimum (full universe) on dense instances it comes close.
  Rng rng(2);
  const SetSystem system = UniformRandomInstance(100, 30, 40, rng);
  const Solution solution = GreedyMaxCoverage(system, 5);
  EXPECT_GE(static_cast<double>(system.CoverageOf(solution.chosen)),
            (1.0 - 1.0 / 2.718281828) * 100.0 * 0.9);
}

TEST(GreedyMaxCoverageTest, ZeroBudget) {
  SetSystem system(4);
  system.AddSetFromIndices({0});
  EXPECT_TRUE(GreedyMaxCoverage(system, 0).empty());
}

TEST(GreedyMaxCoverageTest, RestrictedUniverseCoverage) {
  SetSystem system(8);
  system.AddSetFromIndices({0, 1, 2, 3});
  system.AddSetFromIndices({4, 5});
  DynamicBitset universe(8);
  universe.Set(4);
  universe.Set(5);
  const Solution solution = GreedyMaxCoverage(system, universe, 1);
  ASSERT_EQ(solution.size(), 1u);
  EXPECT_EQ(solution.chosen[0], 1u);
}

// The definitional greedy: rescan every set's gain before each pick and
// take the first set with the largest one.
std::vector<SetId> RescanGreedy(const SetSystem& system,
                                const DynamicBitset& universe,
                                std::size_t max_picks) {
  std::vector<SetId> chosen;
  DynamicBitset uncovered = universe;
  while (chosen.size() < max_picks && !uncovered.None()) {
    SetId best = kInvalidSetId;
    Count best_gain = 0;
    for (SetId i = 0; i < system.num_sets(); ++i) {
      const Count gain = system.set(i).CountAnd(uncovered);
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == kInvalidSetId) break;
    chosen.push_back(best);
    system.set(best).AndNotInto(uncovered);
  }
  return chosen;
}

TEST(GreedySetCoverTest, LazyPicksMatchFullRescan) {
  // Lazy gain evaluation must pick exactly what a full rescan picks, in
  // the same order. Small universes with many sets make gain ties (and
  // stale bounds tying fresh gains) common; restricted universes leave
  // residues no set covers; budgets cut max coverage short.
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(900 + seed);
    const std::size_t n = 1 + rng.UniformInt(150);
    const std::size_t m = 1 + rng.UniformInt(60);
    SetSystem system(n);
    const double density = 0.02 + 0.3 * rng.UniformDouble();
    for (std::size_t i = 0; i < m; ++i) {
      system.AddSet(rng.BernoulliSubset(n, density));
    }
    const DynamicBitset universe = seed % 3 == 0
                                       ? rng.BernoulliSubset(n, 0.7)
                                       : DynamicBitset::Full(n);
    const std::size_t k = rng.UniformInt(8);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(GreedySetCover(system, universe).chosen,
              RescanGreedy(system, universe, ~std::size_t{0}));
    EXPECT_EQ(GreedyMaxCoverage(system, universe, k).chosen,
              RescanGreedy(system, universe, k));
  }
}

}  // namespace
}  // namespace streamsc
