#include "core/max_coverage.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dynamic/delta_log.h"
#include "dynamic/overlay_set_stream.h"
#include "instance/generators.h"
#include "instance/hard_max_coverage.h"
#include "offline/exact_max_coverage.h"
#include "storage/binary_instance_writer.h"
#include "storage/mmap_set_stream.h"
#include "stream/engine_context.h"
#include "stream/parallel_pass_engine.h"
#include "stream/set_stream.h"
#include "testing/scoped_temp_dir.h"

namespace streamsc {
namespace {

TEST(ElementSamplingMcTest, ReturnsAtMostKSets) {
  Rng rng(1);
  const SetSystem system = UniformRandomInstance(300, 20, 60, rng);
  VectorSetStream stream(system);
  ElementSamplingMcConfig config;
  config.epsilon = 0.2;
  ElementSamplingMaxCoverage algorithm(config);
  const MaxCoverageRunResult result = algorithm.Run(stream, 3);
  EXPECT_LE(result.solution.size(), 3u);
  EXPECT_EQ(result.coverage, system.CoverageOf(result.solution.chosen));
}

TEST(ElementSamplingMcTest, NearOptimalOnRandomInstances) {
  // (1-ε)-approximation shape: compare to the exact optimum.
  Rng rng(2);
  const std::size_t k = 2;
  int good = 0;
  const int trials = 10;
  for (int trial = 0; trial < trials; ++trial) {
    const SetSystem system = UniformRandomInstance(400, 16, 100, rng);
    const ExactMaxCoverageResult exact = SolveExactMaxCoverage(system, k);
    VectorSetStream stream(system);
    ElementSamplingMcConfig config;
    config.epsilon = 0.2;
    config.seed = 100 + trial;
    ElementSamplingMaxCoverage algorithm(config);
    const MaxCoverageRunResult result = algorithm.Run(stream, k);
    if (static_cast<double>(result.coverage) >=
        (1.0 - 2.0 * config.epsilon) * static_cast<double>(exact.coverage)) {
      ++good;
    }
  }
  EXPECT_GE(good, trials - 1);
}

TEST(ElementSamplingMcTest, SampleRateShrinksWithEpsilonSquared) {
  ElementSamplingMcConfig config;
  config.epsilon = 0.1;
  ElementSamplingMaxCoverage fine(config);
  config.epsilon = 0.2;
  ElementSamplingMaxCoverage coarse(config);
  const double r_fine = fine.SampleRate(1u << 20, 100, 2);
  const double r_coarse = coarse.SampleRate(1u << 20, 100, 2);
  EXPECT_NEAR(r_fine / r_coarse, 4.0, 0.01);
}

TEST(ElementSamplingMcTest, SpaceGrowsAsOneOverEpsilonSquared) {
  Rng rng(3);
  const SetSystem system = UniformRandomInstance(1u << 14, 64, 2048, rng);
  Bytes space_fine = 0, space_coarse = 0;
  for (const double eps : {0.1, 0.4}) {
    VectorSetStream stream(system);
    ElementSamplingMcConfig config;
    config.epsilon = eps;
    ElementSamplingMaxCoverage algorithm(config);
    const MaxCoverageRunResult result = algorithm.Run(stream, 2);
    (eps < 0.2 ? space_fine : space_coarse) = result.stats.peak_space_bytes;
  }
  EXPECT_GT(space_fine, 2 * space_coarse);
}

TEST(ElementSamplingMcTest, GreedyFallbackForLargeK) {
  Rng rng(4);
  const SetSystem system = UniformRandomInstance(200, 20, 30, rng);
  VectorSetStream stream(system);
  ElementSamplingMcConfig config;
  config.epsilon = 0.3;
  config.exact_k_limit = 2;  // force greedy for k = 5
  ElementSamplingMaxCoverage algorithm(config);
  const MaxCoverageRunResult result = algorithm.Run(stream, 5);
  EXPECT_LE(result.solution.size(), 5u);
  EXPECT_GT(result.coverage, 0u);
}

TEST(ElementSamplingMcTest, DistinguishesThetaOnHardDistribution) {
  // Result 2 upper side: with ε' < ε the sketch separates θ = 0 / θ = 1
  // D_MC instances around τ most of the time.
  HardMaxCoverageParams params;
  params.epsilon = 0.25;
  params.m = 12;
  HardMaxCoverageDistribution dist(params);
  Rng rng(5);
  int correct = 0;
  const int trials = 12;
  for (int trial = 0; trial < trials; ++trial) {
    const bool theta_one = trial % 2 == 0;
    const HardMaxCoverageInstance inst =
        theta_one ? dist.SampleThetaOne(rng) : dist.SampleThetaZero(rng);
    const SetSystem system = inst.ToSetSystem();
    VectorSetStream stream(system);
    ElementSamplingMcConfig config;
    config.epsilon = 0.05;  // sketch much finer than the instance gap
    config.seed = 50 + trial;
    ElementSamplingMaxCoverage algorithm(config);
    const MaxCoverageRunResult result = algorithm.Run(stream, 2);
    const bool above = static_cast<double>(result.coverage) > inst.tau;
    if (above == theta_one) ++correct;
  }
  EXPECT_GE(correct, 9);
}

TEST(SieveMcTest, ReturnsAtMostKSets) {
  Rng rng(6);
  const SetSystem system = UniformRandomInstance(200, 25, 40, rng);
  VectorSetStream stream(system);
  SieveMaxCoverage algorithm;
  const MaxCoverageRunResult result = algorithm.Run(stream, 3);
  EXPECT_LE(result.solution.size(), 3u);
  EXPECT_EQ(result.stats.passes, 1u);
  EXPECT_EQ(result.coverage, system.CoverageOf(result.solution.chosen));
}

TEST(SieveMcTest, ConstantFactorQuality) {
  // Sieve guarantees ~(1/2 - ε) of optimum.
  Rng rng(7);
  int good = 0;
  const int trials = 10;
  for (int trial = 0; trial < trials; ++trial) {
    const SetSystem system = UniformRandomInstance(300, 20, 60, rng);
    const ExactMaxCoverageResult exact = SolveExactMaxCoverage(system, 2);
    VectorSetStream stream(system);
    SieveMaxCoverage algorithm(SieveMcConfig{0.1});
    const MaxCoverageRunResult result = algorithm.Run(stream, 2);
    if (static_cast<double>(result.coverage) >=
        0.4 * static_cast<double>(exact.coverage)) {
      ++good;
    }
  }
  EXPECT_GE(good, trials - 1);
}

TEST(SieveMcTest, CoverageNeverExceedsUniverse) {
  Rng rng(8);
  const SetSystem system = UniformRandomInstance(100, 10, 50, rng);
  VectorSetStream stream(system);
  SieveMaxCoverage algorithm;
  const MaxCoverageRunResult result = algorithm.Run(stream, 4);
  EXPECT_LE(result.coverage, 100u);
}

// What the reference sieve decides: the first lane of highest coverage,
// as SieveMaxCoverage returns it, and the takes and covered elements
// summed over every lane (the run's engine.sets_taken and
// engine.elements_covered), which see a wrong decision in any lane.
struct SieveOutcome {
  std::vector<SetId> chosen;
  Count coverage = 0;
  std::uint64_t lane_takes = 0;
  std::uint64_t lane_covered = 0;
};

// The sieve with neither the running lane count nor the size bound:
// every lane recounts its covered set for every item and runs the gain
// kernel even when the set is too small to be taken.
SieveOutcome FullRecountSieve(SetStream& stream, std::size_t k,
                              double epsilon) {
  const std::size_t n = stream.universe_size();
  struct Lane {
    double guess;
    DynamicBitset covered;
    std::vector<SetId> chosen;
  };
  std::vector<Lane> lanes;
  for (double v = 1.0; v <= static_cast<double>(k) * static_cast<double>(n);
       v *= (1.0 + epsilon)) {
    lanes.push_back(Lane{v, DynamicBitset(n), {}});
  }
  stream.BeginPass();
  StreamItem item;
  while (stream.Next(&item)) {
    for (Lane& lane : lanes) {
      if (lane.chosen.size() >= k) continue;
      const Count gain = item.set.CountAndNot(lane.covered);
      const double needed =
          (lane.guess / 2.0 - static_cast<double>(lane.covered.CountSet())) /
          static_cast<double>(k - lane.chosen.size());
      if (static_cast<double>(gain) >= needed && gain > 0) {
        lane.chosen.push_back(item.id);
        item.set.OrInto(lane.covered);
      }
    }
  }
  SieveOutcome outcome;
  const Lane* best = nullptr;
  for (const Lane& lane : lanes) {
    const Count cov = lane.covered.CountSet();
    outcome.lane_takes += lane.chosen.size();
    outcome.lane_covered += cov;
    if (best == nullptr || cov > outcome.coverage) {
      best = &lane;
      outcome.coverage = cov;
    }
  }
  if (best != nullptr) outcome.chosen = best->chosen;
  return outcome;
}

// A planted instance with its sets in a seeded random order, so decoys
// and planted blocks interleave in the stream.
SetSystem ShuffledPlanted(std::size_t n, std::size_t m, std::size_t opt,
                          std::uint64_t seed) {
  Rng rng(seed);
  const SetSystem planted = PlantedCoverInstance(n, m, opt, rng);
  std::vector<SetId> order;
  for (SetId id = 0; id < planted.num_sets(); ++id) order.push_back(id);
  rng.Shuffle(order);
  SetSystem system(n);
  for (const SetId id : order) system.AddSetFromView(planted.set(id));
  return system;
}

TEST(SieveMcTest, LaneScanMatchesFullRecountReference) {
  testing::ScopedTempDir dir;
  ParallelPassEngine engine2(2);
  ParallelPassEngine engine4(4);
  ParallelPassEngine engine8(8);
  ParallelPassEngine* const pools[] = {nullptr, &engine2, &engine4,
                                       &engine8};
  struct Shape {
    const char* name;
    SetSystem system;
  };
  // Blocks of 128 over [512] are stored dense; blocks of 64 over [4096]
  // sparse.
  const Shape shapes[] = {{"dense", ShuffledPlanted(512, 40, 4, 31)},
                          {"sparse", ShuffledPlanted(4096, 60, 64, 32)}};
  ASSERT_EQ(shapes[0].system.MemoryUsage().sparse_sets, 0u);
  ASSERT_EQ(shapes[1].system.MemoryUsage().dense_sets, 0u);
  for (const Shape& shape : shapes) {
    const SetSystem& system = shape.system;
    const std::string base = dir.FilePath(std::string(shape.name) + ".sscb1");
    ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(system, base).ok());
    // The overlay adds a set, replaces one and removes one; both new
    // payloads take the base's representation.
    const std::string delta =
        dir.FilePath(std::string(shape.name) + ".sscd1");
    {
      DeltaLogWriter writer(delta, system.universe_size(), system.num_sets());
      ASSERT_TRUE(writer.AddSet(system.set(3)).ok());
      ASSERT_TRUE(writer.ReplaceSet(5, system.set(7)).ok());
      ASSERT_TRUE(writer.RemoveSet(2).ok());
      ASSERT_TRUE(writer.Finish().ok());
    }
    VectorSetStream memory(system);
    MmapSetStream mapped(base);
    ASSERT_TRUE(mapped.status().ok()) << mapped.status().ToString();
    OverlaySetStream overlay(base, delta);
    ASSERT_TRUE(overlay.status().ok()) << overlay.status().ToString();
    SetStream* const streams[] = {&memory, &mapped, &overlay};
    const char* const stream_names[] = {"memory", "mmap", "overlay"};
    for (std::size_t s = 0; s < 3; ++s) {
      for (const std::size_t k : {1, 3, 8}) {
        for (const double epsilon : {0.1, 0.25, 0.5}) {
          const SieveOutcome reference =
              FullRecountSieve(*streams[s], k, epsilon);
          ASSERT_FALSE(reference.chosen.empty());
          for (ParallelPassEngine* const pool : pools) {
            SCOPED_TRACE(std::string(shape.name) + " " + stream_names[s] +
                         " k=" + std::to_string(k) +
                         " epsilon=" + std::to_string(epsilon) +
                         " threads=" +
                         std::to_string(pool == nullptr ? 1
                                                        : pool->num_threads()));
            RunContext context;
            context.engine = pool;
            const MaxCoverageRunResult result =
                SieveMaxCoverage(SieveMcConfig{epsilon})
                    .Run(*streams[s], k, context);
            EXPECT_EQ(std::vector<SetId>(result.solution.chosen.begin(),
                                         result.solution.chosen.end()),
                      reference.chosen);
            EXPECT_EQ(result.coverage, reference.coverage);
            const CounterSet& counters = result.stats.counters;
            EXPECT_EQ(counters.value(engine_counters::SetsTaken()),
                      reference.lane_takes);
            EXPECT_EQ(counters.value(engine_counters::ElementsCovered()),
                      reference.lane_covered);
          }
        }
      }
    }
  }
}

// Config validation is CHECK-armed in every build mode. The sieve case is
// load-bearing: with the old release-stripped assert, epsilon = 0 froze
// the (1+eps)^j guess grid and Run() looped forever.
TEST(MaxCoverageDeathTest, SieveRejectsDegenerateEpsilon) {
  SieveMcConfig zero;
  zero.epsilon = 0.0;
  EXPECT_DEATH(SieveMaxCoverage{zero}, "epsilon");
  SieveMcConfig one;
  one.epsilon = 1.0;
  EXPECT_DEATH(SieveMaxCoverage{one}, "epsilon");
}

TEST(MaxCoverageDeathTest, ElementSamplingRejectsDegenerateEpsilon) {
  ElementSamplingMcConfig zero;
  zero.epsilon = 0.0;
  EXPECT_DEATH(ElementSamplingMaxCoverage{zero}, "epsilon");
  ElementSamplingMcConfig negative;
  negative.epsilon = -0.5;
  EXPECT_DEATH(ElementSamplingMaxCoverage{negative}, "epsilon");
}

}  // namespace
}  // namespace streamsc
