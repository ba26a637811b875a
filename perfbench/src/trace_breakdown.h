#ifndef STREAMSC_PERFBENCH_TRACE_BREAKDOWN_H_
#define STREAMSC_PERFBENCH_TRACE_BREAKDOWN_H_

#include <cstdint>
#include <map>
#include <string>

#include "harness.h"
#include "obs/trace.h"

/// \file trace_breakdown.h
/// Per-layer self time from one traced run.
///
/// Spans come from two sources: the program's own (session -> api,
/// solver and algorithm phases -> core, the sub-solve phases -> offline,
/// the warm re-solve phase -> dynamic, passes and shards -> stream) and
/// the benchmark's ("bench.<layer>.<op>" around each call into a layer,
/// "bench.check" around output checks and "bench.idle" around an open
/// loop's wait for the next due request, both counted as the "bench"
/// layer, and one "bench.window" per driving
/// thread that brackets the measured work). Spans nest by interval
/// containment within a thread; a span's self time is its duration minus
/// the part its children cover. Each window's self time is the
/// unattributed remainder, so the layer self times plus the remainder add
/// up to the window wall time exactly.

namespace perfbench {

struct LayerBreakdown {
  double window_ns = 0.0;                  ///< Σ window span durations.
  double unattributed_ns = 0.0;            ///< Window time no span covers.
  std::map<std::string, double> self_ns;   ///< Layer -> self time.
  std::uint64_t sessions = 0;              ///< session.solve spans.
  double session_ns = 0.0;                 ///< Σ their durations.
  double transform_ns = 0.0;               ///< Σ "transform" pass time.
  std::uint64_t passes = 0;                ///< Pass spans.
  double pass_ns = 0.0;                    ///< Σ pass durations.
  double shard_ns = 0.0;                   ///< Σ shard spans, all threads.
  double sharded_pass_capacity_ns = 0.0;   ///< Σ sharded pass × width.
  std::uint64_t api_solves = 0;            ///< bench.api.solve spans.
  double api_solve_self_ns = 0.0;          ///< Their + session self time.
  std::uint64_t subsolve_sessions = 0;     ///< Solves with a sub-solve.
  double subsolve_self_ns = 0.0;           ///< offline self time.
  std::uint64_t guess_sessions = 0;        ///< Solves that guessed õpt.
  std::uint64_t guess_spans = 0;           ///< õpt guesses run.
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
};

/// Adds every event in \p trace (quiesced) to \p into. \p engine_width is
/// the engine's thread count, for the shard utilization denominator.
///
/// A recorder never frees a thread slot, and every multi-threaded solve
/// starts fresh engine workers; a long multi-threaded run is therefore
/// traced as a series of recorders, one per operation, accumulated here.
void AnalyzeTrace(const streamsc::TraceRecorder& trace,
                  std::size_t engine_width, LayerBreakdown* into);

/// Adds the breakdown's per-layer metrics (self shares, pass, shard,
/// projection, sub-solve, guess, api-overhead and obs figures) to
/// \p metrics.
void AddBreakdownMetrics(const LayerBreakdown& breakdown, Metrics* metrics);

/// Writes \p trace as chrome://tracing JSON to <Options::dir>/trace.json.
void WriteTrace(const streamsc::TraceRecorder& trace, const Options& options);

}  // namespace perfbench

#endif  // STREAMSC_PERFBENCH_TRACE_BREAKDOWN_H_
