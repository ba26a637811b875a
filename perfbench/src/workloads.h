#ifndef STREAMSC_PERFBENCH_WORKLOADS_H_
#define STREAMSC_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"

/// \file workloads.h
/// The three workloads. Each has a generator, which writes the seeded
/// input files into Options::dir, and a runner, which measures them.
///
/// Untraced (Options::trace false), a runner measures about
/// Options::seconds of work (a fixed count of rounds or updates where
/// later work depends on how much came before) and sets the end-to-end
/// metrics:
///
///   setup_s         median of several open + validate set-ups, until the
///                   first solve can run
///   solve_ms_gmean  geometric mean of the per-solver median cold-solve
///                   times of the workload's solver mix
///   op_ms_p50/p90   latency of the workload's user operation: a round of
///                   the solver mix (dense_batch), an update from delta
///                   append to verified fresh solution (sparse_dynamic),
///                   an open-loop request timed from when it was due
///                   (serve_open)
///   ops_per_s       solves/s (dense_batch), updates/s of update time
///                   (sparse_dynamic), closed-loop requests/s (serve_open)
///
/// (peak_rss_mb is added by the caller.) Traced, it splits the time into
/// an untraced half and a traced half and sets the per-layer metrics;
/// layers the workload does not load are left unset and read as 0.

namespace perfbench {

/// One solver invocation of a workload's mix.
struct SolverSpec {
  std::string solver;
  std::vector<std::string> args;
};

bool GenerateDenseBatch(const Options& options);
void RunDenseBatch(const Options& options, Metrics* metrics, Checks* checks);

bool GenerateSparseDynamic(const Options& options);
void RunSparseDynamic(const Options& options, Metrics* metrics,
                      Checks* checks);

bool GenerateServeOpen(const Options& options);
void RunServeOpen(const Options& options, Metrics* metrics, Checks* checks);

/// Sets core.passes.<solver> and core.peak_space_bytes.<solver> from
/// \p report, and adds its engine counters to stream.items_scanned and
/// stream.shard_jobs.
void AddRunCounts(const streamsc::SolveReport& report, Metrics* metrics);

/// Sets obs.trace_overhead_pct from the traced and untraced medians of
/// the same operation.
void SetTraceOverhead(double traced_ms, double untraced_ms, Metrics* metrics);

}  // namespace perfbench

#endif  // STREAMSC_PERFBENCH_WORKLOADS_H_
