// Micro-benchmarks (google-benchmark) for the data-path primitives that
// dominate every experiment: bitset boolean algebra, popcount counting,
// the SetView kernels over both span kinds, Bernoulli subsampling,
// projections, the greedy / exact solvers, and D_SC sampling. These guard
// against performance regressions in the library itself.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/sampling.h"
#include "instance/generators.h"
#include "instance/hard_set_cover.h"
#include "offline/exact_set_cover.h"
#include "instance/serialization.h"
#include "offline/greedy.h"
#include "offline/lower_bounds.h"
#include "util/bitset.h"
#include "util/random.h"
#include "util/set_view.h"

namespace streamsc {
namespace {

void BM_BitsetCountAnd(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const DynamicBitset a = rng.BernoulliSubset(n, 0.5);
  const DynamicBitset b = rng.BernoulliSubset(n, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.CountAnd(b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BitsetCountAnd)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_BitsetUnionInPlace(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  DynamicBitset a = rng.BernoulliSubset(n, 0.5);
  const DynamicBitset b = rng.BernoulliSubset(n, 0.5);
  for (auto _ : state) {
    a |= b;
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BitsetUnionInPlace)->Arg(16384)->Arg(262144);

// A SetView op over one span kind, the path every solver runs. Args are
// (n, sparse): a DenseSpan row views a half-full set and counts 64-bit
// words, a SparseSpan row views a 2%-full set (stored sparse under the
// 1/32 threshold) and counts member ids, so items/s reads as the
// per-word and per-id kernel throughput.
template <typename Op>
void RunSetViewOp(benchmark::State& state, Op op) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool sparse = state.range(1) != 0;
  Rng rng(10);
  const DynamicBitset bits = rng.BernoulliSubset(n, sparse ? 0.02 : 0.5);
  const std::vector<ElementId> ids = bits.ToIndices();
  const SetView view = sparse
                           ? SetView(SparseSpan(ids.data(), ids.size(), n))
                           : SetView(DenseSpan(bits.WordData(), n));
  DynamicBitset other = rng.BernoulliSubset(n, 0.5);
  for (auto _ : state) {
    op(view, other);
    benchmark::ClobberMemory();
  }
  const std::size_t units = sparse ? ids.size() : bits.WordCount();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(units));
  state.SetLabel(sparse ? "SparseSpan" : "DenseSpan");
}

void BM_SetViewCountAnd(benchmark::State& state) {
  RunSetViewOp(state, [](SetView view, DynamicBitset& other) {
    benchmark::DoNotOptimize(view.CountAnd(other));
  });
}
BENCHMARK(BM_SetViewCountAnd)->ArgsProduct({{16384, 262144}, {0, 1}});

void BM_SetViewCountAndNot(benchmark::State& state) {
  RunSetViewOp(state, [](SetView view, DynamicBitset& other) {
    benchmark::DoNotOptimize(view.CountAndNot(other));
  });
}
BENCHMARK(BM_SetViewCountAndNot)->ArgsProduct({{16384, 262144}, {0, 1}});

void BM_SetViewAndNotInto(benchmark::State& state) {
  RunSetViewOp(state, [](SetView view, DynamicBitset& other) {
    view.AndNotInto(other);
    benchmark::DoNotOptimize(other.WordData());
  });
}
BENCHMARK(BM_SetViewAndNotInto)->ArgsProduct({{16384, 262144}, {0, 1}});

void BM_SetViewOrInto(benchmark::State& state) {
  RunSetViewOp(state, [](SetView view, DynamicBitset& other) {
    view.OrInto(other);
    benchmark::DoNotOptimize(other.WordData());
  });
}
BENCHMARK(BM_SetViewOrInto)->ArgsProduct({{16384, 262144}, {0, 1}});

void BM_BernoulliSubset(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.BernoulliSubset(n, 0.01));
  }
}
BENCHMARK(BM_BernoulliSubset)->Arg(16384)->Arg(262144);

// Dense projection through the gather loop this host picks. The arg is
// the sample rate in permille; 500 is the regime of the dense benchmark
// workload. Items are source words, so items/s reads as ns/word.
void BM_SubUniverseProject(benchmark::State& state) {
  const std::size_t n = 65536;
  Rng rng(4);
  const DynamicBitset sampled =
      rng.BernoulliSubset(n, static_cast<double>(state.range(0)) / 1000.0);
  SubUniverse sub(sampled);
  const DynamicBitset set = rng.BernoulliSubset(n, 0.6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sub.Project(set));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(set.WordCount()));
}
BENCHMARK(BM_SubUniverseProject)->Arg(10)->Arg(100)->Arg(500);

void BM_GreedySetCover(benchmark::State& state) {
  Rng rng(5);
  const SetSystem system = PlantedCoverInstance(
      static_cast<std::size_t>(state.range(0)), 64, 6, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedySetCover(system));
  }
}
BENCHMARK(BM_GreedySetCover)->Arg(1024)->Arg(8192);

void BM_ExactSetCoverPlanted(benchmark::State& state) {
  Rng rng(6);
  const SetSystem system = PlantedCoverInstance(256, 24, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveExactSetCover(system));
  }
}
BENCHMARK(BM_ExactSetCoverPlanted);

void BM_HardSetCoverSample(benchmark::State& state) {
  HardSetCoverParams params;
  params.n = static_cast<std::size_t>(state.range(0));
  params.m = 32;
  params.alpha = 2.0;
  params.t_scale = 1.0;
  HardSetCoverDistribution dist(params);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Sample(rng));
  }
}
BENCHMARK(BM_HardSetCoverSample)->Arg(1024)->Arg(8192);

void BM_SerializationRoundTrip(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const SetSystem system = PlantedCoverInstance(n, 64, 4, rng);
  for (auto _ : state) {
    const StatusOr<SetSystem> parsed =
        SetSystemFromString(SetSystemToString(system));
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(system.TotalIncidences()));
}
BENCHMARK(BM_SerializationRoundTrip)->Arg(1024)->Arg(8192);

void BM_PackingLowerBound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  const SetSystem system = UniformRandomInstance(n, 64, n / 16, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PackingLowerBound(system));
  }
}
BENCHMARK(BM_PackingLowerBound)->Arg(1024)->Arg(8192);

void BM_DualLowerBound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  const SetSystem system = UniformRandomInstance(n, 64, n / 16, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DualLowerBound(system));
  }
}
BENCHMARK(BM_DualLowerBound)->Arg(1024)->Arg(8192);

}  // namespace
}  // namespace streamsc

BENCHMARK_MAIN();
