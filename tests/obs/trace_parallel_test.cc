#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/solver_registry.h"
#include "gtest/gtest.h"
#include "instance/generators.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "stream/engine_context.h"
#include "stream/set_stream.h"
#include "testing/min_json.h"
#include "util/random.h"

// Tracing under concurrency: engine workers emit spans lock-free while a
// run is in flight, and arming a recorder never changes results or
// counters. Runs at widths 1 and 8 so the TSan lane (`ctest -L parallel`
// under -fsanitize=thread) covers both the uncontended and the
// fully-sharded emit paths.

namespace streamsc {
namespace {

using testing::JsonValue;
using testing::ParseJson;

TEST(TraceParallelTest, ConcurrentEmittersRecordEverythingWidth8) {
  TraceRecorder::Options options;
  options.events_per_thread = 4096;
  options.max_threads = 8;
  TraceRecorder recorder(options);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&recorder, t] {
      const TraceArg args[] = {{"worker", t}};
      for (std::size_t i = 0; i < kPerThread; ++i) {
        recorder.Emit(TraceCategory::kShard, "work",
                      static_cast<std::int64_t>(t * kPerThread + i), 1,
                      args, 1);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(recorder.threads_seen(), kThreads);
  EXPECT_EQ(recorder.events_recorded(), kThreads * kPerThread);
  EXPECT_EQ(recorder.events_dropped(), 0u);

  // The merged view is globally sorted by start time.
  std::int64_t prev = -1;
  std::size_t visited = 0;
  recorder.ForEachEvent([&](const TraceEvent& event) {
    EXPECT_GE(event.start_ns, prev);
    prev = event.start_ns;
    ++visited;
  });
  EXPECT_EQ(visited, kThreads * kPerThread);
}

TEST(TraceParallelTest, SingleEmitterWidth1) {
  TraceRecorder recorder;
  for (std::size_t i = 0; i < 1000; ++i) {
    recorder.Emit(TraceCategory::kPass, "solo",
                  static_cast<std::int64_t>(i), 1);
  }
  EXPECT_EQ(recorder.threads_seen(), 1u);
  EXPECT_EQ(recorder.events_recorded(), 1000u);
  EXPECT_EQ(recorder.events_dropped(), 0u);
}

struct TracedRun {
  std::vector<SetId> solution;
  std::uint64_t passes = 0;
  std::uint64_t items_scanned = 0;
  std::uint64_t sets_taken = 0;
  std::uint64_t elements_covered = 0;
};

TracedRun RunSolver(const std::string& solver_key,
                    const std::vector<std::string>& options,
                    const SetSystem& system, std::size_t threads,
                    TraceRecorder* recorder) {
  const std::unique_ptr<ParallelPassEngine> pool =
      threads == 1 ? nullptr : MakeEngine(threads);
  VectorSetStream stream(system);
  if (pool != nullptr) RequireSharded(stream, pool.get());

  StatusOr<std::unique_ptr<AnySolver>> solver =
      SolverRegistry::Global().Create(solver_key, options);
  EXPECT_TRUE(solver.ok());
  RunContext context;
  context.engine = pool.get();
  context.trace = recorder;
  StatusOr<SolveReport> report = (*solver)->Run(stream, context);
  EXPECT_TRUE(report.ok());

  TracedRun run;
  run.solution.assign(report->solution.chosen.begin(),
                      report->solution.chosen.end());
  run.passes = report->counters.value(engine_counters::Passes());
  run.items_scanned = report->counters.value(engine_counters::ItemsScanned());
  run.sets_taken = report->counters.value(engine_counters::SetsTaken());
  run.elements_covered =
      report->counters.value(engine_counters::ElementsCovered());
  return run;
}

// Tracing must be a pure observer: identical solutions and identical
// deterministic counters with the recorder armed or not, at any width.
TEST(TraceParallelTest, TracedRunsMatchUntracedAcrossWidths) {
  Rng rng(7);
  const SetSystem system = PlantedCoverInstance(2048, 64, 4, rng);
  for (const std::string solver : {"assadi", "threshold_greedy"}) {
    const std::vector<std::string> options =
        solver == "assadi" ? std::vector<std::string>{"alpha=2"}
                           : std::vector<std::string>{};
    const TracedRun baseline =
        RunSolver(solver, options, system, 1, nullptr);
    ASSERT_FALSE(baseline.solution.empty());
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      TraceRecorder recorder;
      const TracedRun traced =
          RunSolver(solver, options, system, threads, &recorder);
      EXPECT_EQ(traced.solution, baseline.solution)
          << solver << " diverged at width " << threads
          << " with tracing armed";
      // The deterministic engine counters merge to the same totals for
      // any worker count (sum over shards is partition-independent).
      EXPECT_EQ(traced.passes, baseline.passes) << solver << threads;
      EXPECT_EQ(traced.items_scanned, baseline.items_scanned)
          << solver << threads;
      EXPECT_EQ(traced.sets_taken, baseline.sets_taken)
          << solver << threads;
      EXPECT_EQ(traced.elements_covered, baseline.elements_covered)
          << solver << threads;
      EXPECT_GT(recorder.events_recorded(), 0u);
    }
  }
}

TEST(TraceParallelTest, ParallelRunEmitsPassAndShardSpans) {
  Rng rng(11);
  const SetSystem system = PlantedCoverInstance(2048, 64, 4, rng);
  TraceRecorder recorder;
  RunSolver("assadi", {"alpha=2"}, system, 8, &recorder);

  std::size_t pass_spans = 0;
  std::size_t shard_spans = 0;
  std::size_t solver_spans = 0;
  recorder.ForEachEvent([&](const TraceEvent& event) {
    if (event.category == TraceCategory::kPass) ++pass_spans;
    if (event.category == TraceCategory::kShard) ++shard_spans;
    if (event.category == TraceCategory::kSolver) ++solver_spans;
  });
  EXPECT_GT(pass_spans, 0u);
  EXPECT_GT(shard_spans, 0u);
  EXPECT_EQ(solver_spans, 1u);

  // The chrome export of a real parallel run parses back, and every
  // complete event carries the required keys.
  std::ostringstream out;
  recorder.WriteChromeTrace(out);
  const std::string text = out.str();
  const std::unique_ptr<JsonValue> root = ParseJson(text);
  ASSERT_NE(root, nullptr) << "unparseable chrome trace ("
                           << text.size() << " bytes)";
  const JsonValue* events = root->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t complete_events = 0;
  for (const auto& event : events->array) {
    const JsonValue* ph = event->Get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string != "X") continue;
    ++complete_events;
    EXPECT_NE(event->Get("name"), nullptr);
    EXPECT_NE(event->Get("cat"), nullptr);
    EXPECT_NE(event->Get("ts"), nullptr);
    EXPECT_NE(event->Get("dur"), nullptr);
    EXPECT_NE(event->Get("tid"), nullptr);
  }
  EXPECT_EQ(complete_events, recorder.events_recorded());
}

}  // namespace
}  // namespace streamsc
