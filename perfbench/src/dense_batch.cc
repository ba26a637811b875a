// dense_batch: the library batch user. SolveSessions over mmap'd dense
// planted sscb1 files at threads=1 run the seven-solver mix round-robin.
// This is the paper's regime (the exact sub-solve finds opt quickly): it
// loads the dense kernels, the projection and the offline sub-solver, and
// bypasses the engine fan-out, dynamic and serve.
//
// assadi's time varies by about 15% from one planted instance to the next
// (the sub-solve's search), so a run spreads its rounds over kInstances
// instances drawn from the seed, and one seed's figures stand for the
// instance family rather than for one draw.

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>

#include "api/solve_session.h"
#include "instance/generators.h"
#include "probes.h"
#include "storage/binary_instance_writer.h"
#include "storage/mmap_set_stream.h"
#include "trace_breakdown.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

using streamsc::MmapSetStream;
using streamsc::SolveReport;
using streamsc::SolveSession;
using streamsc::StatusOr;
using streamsc::TraceRecorder;

namespace {

constexpr std::size_t kN = 200000;
constexpr std::size_t kM = 400;
constexpr std::size_t kOpt = 8;
constexpr int kInstances = 10;

const std::vector<SolverSpec>& Mix() {
  static const std::vector<SolverSpec> mix = {
      {"assadi", {"alpha=2"}},  {"har_peled", {"alpha=2"}},
      {"demaine", {"alpha=2"}}, {"threshold_greedy", {}},
      {"emek_rosen", {}},       {"one_pass", {}},
      {"sieve_mc", {}}};
  return mix;
}

std::string InstancePath(const Options& options, int i) {
  return options.dir + "/dense_" + std::to_string(i) + ".sscb1";
}

// Samples of one measured stretch of rounds.
struct Rounds {
  SolveSamples solve_ms;
  std::vector<double> round_ms;
  std::size_t solves = 0;
  double wall_ms = 0.0;
};

class DenseBatch {
 public:
  DenseBatch(const Options& options, Checks* checks)
      : options_(options), checks_(checks) {}

  // Opens every instance kOpensPerInstance times, keeping the last
  // session; the set-up figure is the median open time.
  bool Setup(Metrics* metrics) {
    constexpr int kOpensPerInstance = 3;
    std::vector<double> setup_ms;
    for (int i = 0; i < kInstances; ++i) {
      Instance instance;
      instance.check = std::make_unique<MmapSetStream>(InstancePath(options_, i));
      StatusOr<SolveSession> opened = streamsc::Status::Internal("unset");
      for (int k = 0; k < kOpensPerInstance; ++k) {
        const double start = NowMs();
        opened = SolveSession::Open(InstancePath(options_, i));
        setup_ms.push_back(NowMs() - start);
      }
      if (!opened.ok() || !instance.check->status().ok()) {
        std::cerr << "dense_batch: cannot open " << InstancePath(options_, i)
                  << "\n";
        return false;
      }
      instance.session = std::make_unique<SolveSession>(std::move(*opened));
      instances_.push_back(std::move(instance));
    }
    metrics->Set("setup_s", Median(setup_ms) / 1e3, "s");
    metrics->Set("api.open_ms", Median(setup_ms), "ms");
    return true;
  }

  // One untimed round on the first instance: fills caches and records the
  // exact counts of every solver.
  void WarmUp(Metrics* counts) {
    for (const SolverSpec& spec : Mix()) {
      const StatusOr<SolveReport> report =
          instances_[0].session->Solve(spec.solver, spec.args);
      if (Check(instances_[0], spec, report)) AddRunCounts(*report, counts);
    }
  }

  // \p rounds rounds of the mix, cycling through the instances.
  Rounds Measure(int rounds, TraceRecorder* trace) {
    for (Instance& instance : instances_) instance.session->BindTrace(trace);
    Rounds out;
    const double start = NowMs();
    {
      const BenchSpan window(trace, "bench.window", 0);
      for (int r = 0; r < rounds; ++r) {
        Instance& instance = instances_[r % instances_.size()];
        const double round_start = NowMs();
        for (const SolverSpec& spec : Mix()) {
          const std::uint64_t req = NextRequestId();
          const double solve_start = NowMs();
          StatusOr<SolveReport> report = streamsc::Status::Internal("unset");
          {
            const BenchSpan span(trace, "bench.api.solve", req);
            report = instance.session->Solve(spec.solver, spec.args);
          }
          out.solve_ms[spec.solver].push_back(NowMs() - solve_start);
          ++out.solves;
          const BenchSpan span(trace, "bench.check", req);
          Check(instance, spec, report);
        }
        out.round_ms.push_back(NowMs() - round_start);
      }
    }
    out.wall_ms = NowMs() - start;
    for (Instance& instance : instances_) instance.session->BindTrace(nullptr);
    return out;
  }

 private:
  struct Instance {
    std::unique_ptr<MmapSetStream> check;  // independent view for checks
    std::unique_ptr<SolveSession> session;
    std::map<std::string, std::uint64_t> digests;  // first result per solver
  };

  // Checks \p report against the instance, and its digest against the
  // solver's first result on that instance.
  bool Check(Instance& instance, const SolverSpec& spec,
             const StatusOr<SolveReport>& report) {
    const MmapSetStream& check = *instance.check;
    bool ok = report.ok() &&
              CheckReport(*report, check.universe_size(), check.num_sets(),
                          [&check](streamsc::SetId id) { return check.set(id); });
    if (ok) {
      const auto [digest, first] =
          instance.digests.emplace(spec.solver, Digest(*report));
      ok = first || digest->second == Digest(*report);
    }
    return checks_->Record(
        ok, "dense_batch " + spec.solver +
                (report.ok() ? "" : ": " + report.status().ToString()));
  }

  const Options& options_;
  Checks* checks_;
  std::vector<Instance> instances_;
};

}  // namespace

bool GenerateDenseBatch(const Options& options) {
  streamsc::Rng rng(options.seed);
  for (int i = 0; i < kInstances; ++i) {
    const streamsc::SetSystem system =
        streamsc::PlantedCoverInstance(kN, kM, kOpt, rng);
    const streamsc::Status written = streamsc::BinaryInstanceWriter::WriteSystem(
        system, InstancePath(options, i));
    if (!written.ok()) {
      std::cerr << "dense_batch gen: " << written.ToString() << "\n";
      return false;
    }
  }
  return true;
}

void RunDenseBatch(const Options& options, Metrics* metrics, Checks* checks) {
  DenseBatch batch(options, checks);
  Metrics counts;
  if (!checks->Record(batch.Setup(&counts), "dense_batch setup")) return;
  batch.WarmUp(&counts);
  // A round takes about a second here. The count is fixed by --seconds,
  // not by the clock: assadi, har_peled and demaine keep tens of MB per
  // solve alive across solves in one session, so peak RSS grows with the
  // number of rounds run.
  const int total_rounds = std::max(2, static_cast<int>(options.seconds));

  if (!options.trace) {
    const Rounds rounds = batch.Measure(total_rounds, nullptr);
    ReportSolveSamples("dense_batch", rounds.solve_ms, nullptr);
    metrics->Set("setup_s", counts.Get("setup_s"), "s");
    metrics->Set("solve_ms_gmean", GeoMeanOfMedians(rounds.solve_ms), "ms");
    metrics->Set("op_ms_p50", Percentile(rounds.round_ms, 50), "ms");
    metrics->Set("op_ms_p90", Percentile(rounds.round_ms, 90), "ms");
    metrics->Set("ops_per_s",
                 static_cast<double>(rounds.solves) / (rounds.wall_ms / 1e3),
                 "1/s");
    return;
  }

  *metrics = counts;
  const Rounds untraced = batch.Measure(total_rounds / 2, nullptr);
  ReportSolveSamples("dense_batch", untraced.solve_ms, metrics);
  TraceRecorder trace(TraceRecorder::Options{1 << 16, 8});
  const Rounds traced = batch.Measure(total_rounds / 2, &trace);
  SetTraceOverhead(Median(traced.round_ms), Median(untraced.round_ms), metrics);
  LayerBreakdown breakdown;
  AnalyzeTrace(trace, 1, &breakdown);
  AddBreakdownMetrics(breakdown, metrics);
  ProbeSetKernels(InstancePath(options, 0), options.seed, metrics);
  ProbeProjection(InstancePath(options, 0), options.seed, metrics);
  ProbeMmapOpen(InstancePath(options, 0), metrics);
  WriteTrace(trace, options);
}

}  // namespace perfbench
