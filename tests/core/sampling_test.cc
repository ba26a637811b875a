#include "core/sampling.h"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "instance/generators.h"
#include "offline/exact_set_cover.h"
#include "util/math.h"
#include "util/sparse_set.h"

namespace streamsc {
namespace {

TEST(SubUniverseTest, ProjectsAndLifts) {
  DynamicBitset sampled(10);
  sampled.Set(2);
  sampled.Set(5);
  sampled.Set(9);
  SubUniverse sub(sampled);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub.full_size(), 10u);
  EXPECT_EQ(sub.ToFull(0), 2u);
  EXPECT_EQ(sub.ToFull(2), 9u);

  DynamicBitset full(10);
  full.Set(2);
  full.Set(9);
  full.Set(3);  // not sampled; must vanish
  const DynamicBitset proj = sub.Project(full);
  EXPECT_EQ(proj.CountSet(), 2u);
  EXPECT_TRUE(proj.Test(0));
  EXPECT_FALSE(proj.Test(1));
  EXPECT_TRUE(proj.Test(2));

  const DynamicBitset lifted = sub.Lift(proj);
  EXPECT_TRUE(lifted.Test(2));
  EXPECT_TRUE(lifted.Test(9));
  EXPECT_EQ(lifted.CountSet(), 2u);
}

TEST(SubUniverseTest, EmptySample) {
  SubUniverse sub(DynamicBitset(10));
  EXPECT_EQ(sub.size(), 0u);
  EXPECT_TRUE(sub.Project(DynamicBitset::Full(10)).None());
}

TEST(SubUniverseTest, FullSampleIsIdentity) {
  SubUniverse sub(DynamicBitset::Full(6));
  DynamicBitset set(6);
  set.Set(1);
  set.Set(4);
  EXPECT_EQ(sub.Project(set), set);
  EXPECT_EQ(sub.Lift(set), set);
}

TEST(SubUniverseTest, ProjectLiftRoundTripOnSampledElements) {
  Rng rng(1);
  const DynamicBitset sampled = rng.BernoulliSubset(200, 0.3);
  SubUniverse sub(sampled);
  const DynamicBitset full = rng.BernoulliSubset(200, 0.5);
  const DynamicBitset round = sub.Lift(sub.Project(full));
  EXPECT_EQ(round, full & sampled);
}

// Per-element definition of a projection: sample element i is in the
// result iff its full-universe id is in the set.
DynamicBitset ReferenceProjection(const SubUniverse& sub, SetView set) {
  DynamicBitset expected(sub.size());
  for (std::size_t i = 0; i < sub.size(); ++i) {
    if (set.Test(sub.ToFull(i))) expected.Set(i);
  }
  return expected;
}

TEST(SubUniverseTest, WordGatherMatchesElementwiseProjection) {
  // The gather-based Project must agree bit-for-bit with the definitional
  // per-element projection, across word-boundary-straddling universes
  // and one whose plan spans thousands of words, at sample rates from
  // empty to full (0.5 is the dense benchmark workload's regime), for
  // dense, full and sparse inputs.
  std::uint64_t seed = 0;
  for (const std::size_t n : {1, 63, 64, 65, 127, 129, 500, 1000, 200000}) {
    for (const double rate : {0.0, 0.01, 0.35, 0.5, 1.0}) {
      Rng rng(++seed);
      const DynamicBitset sampled = rng.BernoulliSubset(n, rate);
      const SubUniverse sub(sampled);
      const DynamicBitset dense_set = rng.BernoulliSubset(n, 0.4);
      const DynamicBitset full_set = DynamicBitset::Full(n);
      const SparseSet sparse_set =
          SparseSet::FromBitset(rng.BernoulliSubset(n, 0.02));

      for (const SetView view :
           {SetView(dense_set), SetView(full_set), SetView(sparse_set)}) {
        EXPECT_EQ(sub.Project(view), ReferenceProjection(sub, view))
            << "n=" << n << " rate=" << rate;
      }
      EXPECT_EQ(sub.Project(dense_set), sub.Project(SetView(dense_set)));
    }
  }
}

TEST(SubUniverseTest, ProjectAdaptiveKeepsSourceRepresentation) {
  // Sparse sources must project straight to a SparseSet (no dense
  // intermediate), dense sources to a DynamicBitset — both with exactly
  // the contents of the definitional projection.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(40 + seed);
    const std::size_t n = 100 + 37 * seed;
    const SubUniverse sub(rng.BernoulliSubset(n, 0.3));
    const DynamicBitset dense_set = rng.BernoulliSubset(n, 0.4);
    const SparseSet sparse_set =
        SparseSet::FromBitset(rng.BernoulliSubset(n, 0.02));

    const ProjectedSet from_dense = sub.ProjectAdaptive(SetView(dense_set));
    EXPECT_TRUE(std::holds_alternative<DynamicBitset>(from_dense));
    const ProjectedSet from_sparse = sub.ProjectAdaptive(SetView(sparse_set));
    EXPECT_TRUE(std::holds_alternative<SparseSet>(from_sparse));
    // Either way the sample-universe shape and contents match Project.
    const DynamicBitset expect_dense = sub.Project(SetView(dense_set));
    const DynamicBitset expect_sparse = sub.Project(SetView(sparse_set));
    EXPECT_TRUE(ViewOf(from_dense) == SetView(expect_dense));
    EXPECT_TRUE(ViewOf(from_sparse) == SetView(expect_sparse));
    EXPECT_EQ(ViewOf(from_sparse).size(), sub.size());
  }
}

TEST(SubUniverseTest, StoreProjectionRoundTripsThroughSetSystem) {
  Rng rng(50);
  const std::size_t n = 300;
  const SubUniverse sub(rng.BernoulliSubset(n, 0.5));
  SetSystem projections(sub.size());
  const SparseSet sparse_set =
      SparseSet::FromBitset(rng.BernoulliSubset(n, 0.01));
  const DynamicBitset dense_set = rng.BernoulliSubset(n, 0.5);
  const SetId sparse_id =
      StoreProjection(projections, sub.ProjectAdaptive(SetView(sparse_set)));
  const SetId dense_id =
      StoreProjection(projections, sub.ProjectAdaptive(SetView(dense_set)));
  EXPECT_TRUE(projections.set(sparse_id) ==
              SetView(sub.Project(SetView(sparse_set))));
  EXPECT_TRUE(projections.set(dense_id) ==
              SetView(sub.Project(SetView(dense_set))));
  // A sparse projection of a sparse set stays sparse in the store.
  EXPECT_TRUE(projections.IsSparse(sparse_id));
}

// The gather plan SubUniverse builds for \p sampled: one block per word
// holding sampled bits, its destination the running sample count.
std::vector<internal::GatherBlock> PlanOf(const DynamicBitset& sampled) {
  std::vector<internal::GatherBlock> plan;
  std::uint32_t dst_bit = 0;
  for (std::size_t w = 0; w < sampled.WordCount(); ++w) {
    const DynamicBitset::Word mask = sampled.GetWord(w);
    if (mask == 0) continue;
    plan.push_back({static_cast<std::uint32_t>(w), dst_bit, mask});
    dst_bit += static_cast<std::uint32_t>(std::popcount(mask));
  }
  return plan;
}

// Definitional pext: the bits of `word` under `mask`, packed low.
DynamicBitset::Word ReferenceExtract(DynamicBitset::Word word,
                                     DynamicBitset::Word mask) {
  DynamicBitset::Word out = 0;
  int rank = 0;
  for (int b = 0; b < 64; ++b) {
    if (((mask >> b) & 1) == 0) continue;
    out |= ((word >> b) & 1) << rank;
    ++rank;
  }
  return out;
}

// (word, mask) pairs: 10^5 seeded ones of mixed mask density, after the
// edge masks (empty, full, each single bit, alternating bits, top bit).
std::vector<std::pair<DynamicBitset::Word, DynamicBitset::Word>>
WordMaskPairs() {
  using Word = DynamicBitset::Word;
  std::vector<Word> edge_masks = {0, ~Word{0}, 0x5555555555555555ull,
                                  0xaaaaaaaaaaaaaaaaull, Word{1} << 63,
                                  (Word{1} << 63) | 1};
  for (int b = 0; b < 64; ++b) edge_masks.push_back(Word{1} << b);
  Rng rng(70);
  std::vector<std::pair<Word, Word>> pairs;
  for (const Word mask : edge_masks) {
    for (const Word word : {Word{0}, ~Word{0}, rng.Next(), rng.Next()}) {
      pairs.emplace_back(word, mask);
    }
  }
  for (int i = 0; i < 100000; ++i) {
    const Word word = rng.Next();
    Word mask = rng.Next();
    if (i % 3 == 1) mask &= rng.Next() & rng.Next();  // sparse mask
    if (i % 3 == 2) mask |= rng.Next() | rng.Next();  // dense mask
    pairs.emplace_back(word, mask);
  }
  return pairs;
}

// Runs \p gather over a one-block plan and returns the packed word.
DynamicBitset::Word GatherOne(internal::GatherFn gather,
                              DynamicBitset::Word word,
                              DynamicBitset::Word mask) {
  const internal::GatherBlock block{0, 0, mask};
  DynamicBitset out(DynamicBitset::kBitsPerWord);
  gather(std::span(&block, 1), &word, out);
  return out.GetWord(0);
}

TEST(GatherTierTest, PortableMatchesReferenceOnWordMaskPairs) {
  for (const auto& [word, mask] : WordMaskPairs()) {
    ASSERT_EQ(GatherOne(&internal::GatherPortable, word, mask),
              ReferenceExtract(word, mask))
        << std::hex << "word=" << word << " mask=" << mask;
  }
}

TEST(GatherTierTest, PextMatchesPortableOnWordMaskPairs) {
  const internal::GatherFn pext = internal::PextGatherIfSupported();
  if (pext == nullptr) GTEST_SKIP() << "no BMI2 pext on this host";
  for (const auto& [word, mask] : WordMaskPairs()) {
    ASSERT_EQ(GatherOne(pext, word, mask),
              GatherOne(&internal::GatherPortable, word, mask))
        << std::hex << "word=" << word << " mask=" << mask;
  }
}

TEST(GatherTierTest, TiersAgreeOnWholePlans) {
  // Whole plans exercise the destination offsets and the spill into the
  // next output word, which one-block plans at bit 0 never reach.
  const internal::GatherFn pext = internal::PextGatherIfSupported();
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(80 + seed);
    const std::size_t n = 1 + rng.UniformInt(5000);
    const DynamicBitset sampled =
        rng.BernoulliSubset(n, rng.UniformDouble());
    const std::vector<internal::GatherBlock> plan = PlanOf(sampled);
    const SubUniverse sub(sampled);
    const DynamicBitset set = rng.BernoulliSubset(n, rng.UniformDouble());
    const DynamicBitset expected = ReferenceProjection(sub, SetView(set));

    DynamicBitset portable(sub.size());
    internal::GatherPortable(plan, set.WordData(), portable);
    EXPECT_EQ(portable, expected) << "seed=" << seed;
    if (pext != nullptr) {
      DynamicBitset hardware(sub.size());
      pext(plan, set.WordData(), hardware);
      EXPECT_EQ(hardware, expected) << "seed=" << seed;
    }
  }
  if (pext == nullptr) GTEST_SKIP() << "no BMI2 pext on this host";
}

TEST(SamplingTest, SampleElementsSubsetOfUniverse) {
  Rng rng(2);
  const DynamicBitset universe = rng.BernoulliSubset(500, 0.6);
  const DynamicBitset sample = SampleElements(universe, 0.3, rng);
  EXPECT_TRUE(sample.IsSubsetOf(universe));
}

// Regression: out-of-range rates used to be forwarded unclamped. The
// documented contract: rate >= 1 keeps the whole universe, rate <= 0
// (and NaN) keeps nothing.
TEST(SamplingTest, RateIsClampedToUnitInterval) {
  Rng rng(6);
  const DynamicBitset universe = rng.BernoulliSubset(300, 0.5);
  EXPECT_EQ(SampleElements(universe, 1.0, rng), universe);
  EXPECT_EQ(SampleElements(universe, 17.5, rng), universe);
  EXPECT_TRUE(SampleElements(universe, 0.0, rng).None());
  EXPECT_TRUE(SampleElements(universe, -3.0, rng).None());
  EXPECT_TRUE(
      SampleElements(universe, std::numeric_limits<double>::quiet_NaN(), rng)
          .None());
}

TEST(SamplingTest, LemmaThreeTwelveProperty) {
  // Lemma 3.12: at rate p >= 16 k log(m) / (rho n), any k-cover of the
  // sample covers >= (1 - rho) n elements, w.h.p. Empirical check on a
  // planted instance: find a <= k cover of the sample exactly (the same
  // primitive Algorithm 1 step 3c uses) and verify full-universe coverage.
  const std::size_t n = 2000, m = 24, k = 4;
  const double rho = 0.2;
  Rng rng(3);
  int good = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<SetId> planted;
    const SetSystem system = PlantedCoverInstance(n, m, k, rng, &planted);
    const double rate = ElementSamplingRate(n, m, k, rho, 1.0);
    const DynamicBitset sampled =
        SampleElements(DynamicBitset::Full(n), rate, rng);
    SubUniverse sub(sampled);
    SetSystem projections(sub.size());
    for (std::size_t i = 0; i < system.num_sets(); ++i) {
      projections.AddSet(sub.Project(system.set(i)));
    }
    ExactSetCoverOptions options;
    options.size_limit = k;  // a k-cover exists: the planted blocks
    const ExactSetCoverResult cover = SolveExactSetCover(projections, options);
    ASSERT_TRUE(cover.feasible);
    ASSERT_LE(cover.solution.size(), k);
    const Count covered = system.CoverageOf(cover.solution.chosen);
    if (static_cast<double>(covered) >= (1.0 - rho) * n) ++good;
  }
  EXPECT_GE(good, trials - 2);
}

TEST(SamplingTest, UndersamplingBreaksTheGuarantee) {
  // The converse direction the E2 bench sweeps: far below the Lemma 3.12
  // rate, covers of the sample routinely miss > rho n elements. Uniform
  // sets (0.4·n each) admit many 4-covers of a tiny sample, all covering
  // only ~1-(0.6)^4 ≈ 87% of [n] — far below the (1-ρ) = 98% target.
  // (A planted instance would be wrong here: its only 4-covers are the
  // planted blocks, which the exact solver recovers even from a tiny
  // sample.)
  const std::size_t n = 4000, m = 40, k = 4;
  const double rho = 0.02;
  Rng rng(4);
  int bad = 0;
  const int trials = 15;
  for (int trial = 0; trial < trials; ++trial) {
    const SetSystem system = UniformRandomInstance(n, m, (2 * n) / 5, rng);
    const double rate = ElementSamplingRate(n, m, k, rho, 1.0 / 256.0);
    const DynamicBitset sampled =
        SampleElements(DynamicBitset::Full(n), rate, rng);
    SubUniverse sub(sampled);
    SetSystem projections(sub.size());
    for (std::size_t i = 0; i < system.num_sets(); ++i) {
      projections.AddSet(sub.Project(system.set(i)));
    }
    ExactSetCoverOptions options;
    options.size_limit = k;
    const ExactSetCoverResult cover = SolveExactSetCover(projections, options);
    if (!cover.feasible || cover.solution.size() > k) continue;
    const Count covered = system.CoverageOf(cover.solution.chosen);
    if (static_cast<double>(covered) < (1.0 - rho) * n) ++bad;
  }
  EXPECT_GE(bad, trials / 2);
}

}  // namespace
}  // namespace streamsc
