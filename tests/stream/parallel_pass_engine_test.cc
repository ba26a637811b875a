#include "stream/parallel_pass_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "instance/generators.h"
#include "stream/set_stream.h"
#include "util/arena.h"
#include "util/random.h"

namespace streamsc {
namespace {

TEST(ParallelPassEngineTest, ParallelForCoversEveryIndexExactlyOnce) {
  ParallelPassEngine engine(4);
  EXPECT_EQ(engine.num_threads(), 4u);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  engine.ParallelFor(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelPassEngineTest, ParallelForHandlesEmptyAndReuse) {
  ParallelPassEngine engine(3);
  engine.ParallelFor(0, [](std::size_t) { FAIL() << "must not be called"; });
  // The pool is reusable across many jobs.
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    engine.ParallelFor(17, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50u * 17u);
}

TEST(ParallelPassEngineTest, SingleThreadEngineRunsInline) {
  ParallelPassEngine engine(1);
  std::vector<int> order;
  engine.ParallelFor(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelPassEngineTest, DrainPassIntoBuffersWholePassInOrder) {
  Rng rng(1);
  const SetSystem system = PlantedCoverInstance(128, 12, 4, rng);
  VectorSetStream stream(system);
  ASSERT_TRUE(stream.ItemsRemainValid());
  ArenaVector<StreamItem> items;
  DrainPassInto(stream, items);
  ASSERT_EQ(items.size(), 12u);
  EXPECT_EQ(stream.passes(), 1u);
  for (SetId id = 0; id < 12; ++id) {
    EXPECT_EQ(items[id].id, id);
    EXPECT_TRUE(items[id].set == system.set(id));
  }
}

// The buffer is reused across passes: each pass replaces its contents,
// whether the stream drained into it is the same one again or a shorter
// one.
TEST(ParallelPassEngineTest, DrainPassIntoRefillsTheBufferOnEveryPass) {
  Rng rng(2);
  const SetSystem large = PlantedCoverInstance(128, 12, 4, rng);
  const SetSystem small = PlantedCoverInstance(64, 5, 2, rng);
  VectorSetStream large_stream(large);
  VectorSetStream small_stream(small);
  ArenaVector<StreamItem> items;

  DrainPassInto(large_stream, items);
  DrainPassInto(large_stream, items);
  ASSERT_EQ(items.size(), 12u);
  EXPECT_EQ(large_stream.passes(), 2u);

  DrainPassInto(small_stream, items);
  ASSERT_EQ(items.size(), 5u);
  EXPECT_EQ(small_stream.passes(), 1u);
  for (SetId id = 0; id < 5; ++id) {
    EXPECT_EQ(items[id].id, id);
    EXPECT_TRUE(items[id].set == small.set(id));
  }
}

// The determinism contract of the pass primitives built on the pool is
// tested through EngineContext (tests/stream/engine_context_test.cc), and
// end to end by the conformance matrix: tests/integration/
// solver_matrix_test.cc runs every solver across {memory, file, mmap}
// sources x {none, 1, 2, 8} threads.

}  // namespace
}  // namespace streamsc
