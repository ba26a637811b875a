// sparse_dynamic: the live-instance user, with writes beside reads. A
// sparse planted sscb1 plus an sscd1 delta, opened as an overlay session
// at threads=4 (never above the core count). Each update appends a small
// batch of add/replace/remove records with DeltaLogWriter, refreshes the
// session and re-solves warm; a fixed cadence adds cold solves. It is the
// only workload that loads the engine's shard fan-out, the sparse-id
// kernels, the overlay and delta-log layers and the write path.
//
// Refresh and append-mode open both replay the whole log, so update cost
// grows with log length: a run always performs the same number of updates
// from a fresh log (count-based, scaled by --seconds, never time-based).

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include "api/solve_session.h"
#include "dynamic/delta_log.h"
#include "dynamic/overlay_set_stream.h"
#include "instance/generators.h"
#include "obs/counters.h"
#include "probes.h"
#include "storage/binary_instance_writer.h"
#include "trace_breakdown.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

using streamsc::DynamicBitset;
using streamsc::OverlaySetStream;
using streamsc::SetId;
using streamsc::SolveReport;
using streamsc::SolveSession;
using streamsc::StatusOr;
using streamsc::TraceRecorder;

namespace {

constexpr std::size_t kN = 1000000;
constexpr std::size_t kM = 3000;
constexpr std::size_t kOpt = 200;  // planted blocks of kN / kOpt elements
constexpr std::size_t kSetSize = kN / kOpt;
constexpr std::size_t kHitExtra = 64;  // elements a hit adds to a chosen set
constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};
constexpr int kSetups = 15;
constexpr int kUpdatesPerSecond = 20;
constexpr int kColdRoundsPerRun = 8;

const SolverSpec kWarmSpec = {"threshold_greedy", {}};

// sieve_mc runs at epsilon=0.25: at the default 0.1 one cold solve costs
// about 2.6 s at 4 threads, and the run needs several.
const std::vector<SolverSpec>& ColdMix() {
  static const std::vector<SolverSpec> mix = {
      {"one_pass", {}},
      {"emek_rosen", {}},
      {"sieve_mc", {"epsilon=0.25"}},
      {"threshold_greedy", {"warm=0"}}};
  return mix;
}

std::size_t Threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

std::vector<std::string> WithThreads(std::vector<std::string> args,
                                     std::size_t threads) {
  args.push_back("threads=" + std::to_string(threads));
  return args;
}

std::string BasePath(const Options& o) { return o.dir + "/base.sscb1"; }
std::string DeltaPath(const Options& o) { return o.dir + "/delta.sscd1"; }

bool ResetDelta(const Options& options) {
  streamsc::DeltaLogWriter writer(DeltaPath(options), kN, kM);
  const streamsc::Status finished = writer.Finish();
  if (!finished.ok()) std::cerr << "sparse_dynamic: " << finished.ToString() << "\n";
  return finished.ok();
}

// Samples of one measured phase.
struct Phase {
  SolveSamples solve_ms;  // cold solves
  std::vector<double> update_ms, append_ms, refresh_ms, warm_solve_ms;
  std::uint64_t update_solves = 0;
  std::uint64_t warm_solves = 0;
  double residue_elements = 0.0;
  double log_bytes = 0.0;
};

class SparseDynamic {
 public:
  SparseDynamic(const Options& options, Checks* checks)
      : options_(options), checks_(checks), threads_(Threads()) {}

  std::size_t threads() const { return threads_; }

  // Median of several overlay opens, in ms; negative on failure.
  double SetupMs() {
    if (!ResetDelta(options_)) return -1.0;
    std::vector<double> samples;
    for (int i = 0; i < kSetups; ++i) {
      const double start = NowMs();
      const StatusOr<SolveSession> session =
          SolveSession::OpenOverlay(BasePath(options_), DeltaPath(options_));
      samples.push_back(NowMs() - start);
      if (!session.ok()) {
        std::cerr << "sparse_dynamic: " << session.status().ToString() << "\n";
        return -1.0;
      }
    }
    return Median(samples);
  }

  // Every cold solver at threads=1 and at the workload width on the base
  // instance: both outputs must check and their digests must match.
  void CrossThreadCheck(Metrics* counts) {
    StatusOr<SolveSession> session = Open();
    if (!session.ok()) return;
    for (const SolverSpec& spec : ColdMix()) {
      const StatusOr<SolveReport> one =
          session->Solve(spec.solver, WithThreads(spec.args, 1));
      const StatusOr<SolveReport> wide =
          session->Solve(spec.solver, WithThreads(spec.args, threads_));
      const bool ok = one.ok() && wide.ok() && CheckLive(*session, *one) &&
                      CheckLive(*session, *wide) &&
                      Digest(*one) == Digest(*wide);
      if (checks_->Record(ok, "sparse_dynamic threads=1 vs threads=" +
                                  std::to_string(threads_) + " " +
                                  spec.solver)) {
        AddRunCounts(*wide, counts);
      }
    }
  }

  // \p updates updates from a fresh log, with a cold round before the
  // first and after every \p cold_every updates. Traced when \p breakdown
  // is non-null.
  Phase Measure(int updates, int cold_every, LayerBreakdown* breakdown) {
    Phase phase;
    StatusOr<SolveSession> session = Open();
    if (!session.ok()) return phase;
    streamsc::Rng rng(options_.seed ^ 0xde17au);
    for (int u = 0; u < updates; ++u) {
      if (u % cold_every == 0) {
        Traced(*session, ColdMix().size() + 1, breakdown, false,
               [&](TraceRecorder* trace) { ColdRound(*session, trace, &phase); });
      }
      Traced(*session, 1, breakdown, u + 1 == updates,
             [&](TraceRecorder* trace) {
               Update(*session, u, rng, trace, &phase);
             });
    }
    phase.log_bytes =
        static_cast<double>(std::filesystem::file_size(DeltaPath(options_)));
    return phase;
  }

 private:
  // Runs \p op untraced, or under a recorder of its own (sized for
  // \p solves engines) whose events are added to \p breakdown; \p keep
  // writes that recorder's chrome trace.
  template <typename Op>
  void Traced(SolveSession& session, std::size_t solves,
              LayerBreakdown* breakdown, bool keep, Op&& op) {
    if (breakdown == nullptr) {
      op(nullptr);
      return;
    }
    TraceRecorder trace(TraceRecorder::Options{4096, 1 + solves * threads_});
    session.BindTrace(&trace);
    {
      const BenchSpan window(&trace, "bench.window", 0);
      op(&trace);
    }
    session.BindTrace(nullptr);
    AnalyzeTrace(trace, threads_, breakdown);
    if (keep) WriteTrace(trace, options_);
  }

  StatusOr<SolveSession> Open() {
    StatusOr<SolveSession> session = streamsc::Status::Internal("unset");
    if (ResetDelta(options_)) {
      session = SolveSession::OpenOverlay(BasePath(options_), DeltaPath(options_));
    }
    checks_->Record(session.ok(), "sparse_dynamic open: " +
                                      session.status().ToString());
    return session;
  }

  bool CheckLive(const SolveSession& session, const SolveReport& report) {
    const OverlaySetStream& overlay = *session.overlay();
    return CheckReport(report, overlay.universe_size(), overlay.num_sets(),
                       [&overlay](SetId id) { return overlay.set(id); });
  }

  StatusOr<SolveReport> TimedSolve(SolveSession& session, const SolverSpec& spec,
                                   TraceRecorder* trace, std::uint64_t req,
                                   double* ms) {
    const double start = NowMs();
    const BenchSpan span(trace, "bench.api.solve", req);
    StatusOr<SolveReport> report =
        session.Solve(spec.solver, WithThreads(spec.args, threads_));
    *ms = NowMs() - start;
    return report;
  }

  // Remembers which slots the latest threshold_greedy solution chose.
  void Remember(const SolveSession& session, const SolveReport& report) {
    const OverlaySetStream& overlay = *session.overlay();
    chosen_.assign(overlay.num_slots(), false);
    chosen_slots_.clear();
    for (const SetId id : report.solution.chosen) {
      const std::uint64_t slot = overlay.live_to_slot(id);
      chosen_[slot] = true;
      chosen_slots_.push_back(slot);
    }
  }

  // Cold solves of the whole mix, then a warm threshold_greedy over the
  // unchanged instance, which must equal the cold one byte for byte.
  void ColdRound(SolveSession& session, TraceRecorder* trace, Phase* phase) {
    std::uint64_t cold_digest = 0;
    for (const SolverSpec& spec : ColdMix()) {
      const std::uint64_t req = NextRequestId();
      double ms = 0.0;
      const StatusOr<SolveReport> report =
          TimedSolve(session, spec, trace, req, &ms);
      phase->solve_ms[spec.solver].push_back(ms);
      const BenchSpan span(trace, "bench.check", req);
      checks_->Record(report.ok() && CheckLive(session, *report),
                      "sparse_dynamic cold " + spec.solver);
      if (report.ok() && spec.solver == kWarmSpec.solver) {
        cold_digest = Digest(*report);
      }
    }
    const std::uint64_t req = NextRequestId();
    double ms = 0.0;
    const StatusOr<SolveReport> warm =
        TimedSolve(session, kWarmSpec, trace, req, &ms);
    const BenchSpan span(trace, "bench.check", req);
    const bool ok = warm.ok() && CheckLive(session, *warm) &&
                    Digest(*warm) == cold_digest;
    checks_->Record(ok, "sparse_dynamic warm re-solve equals cold solve");
    if (warm.ok()) Remember(session, *warm);
  }

  std::uint64_t RandomUnchosenLive(const OverlaySetStream& overlay,
                                   streamsc::Rng& rng, std::uint64_t other) {
    for (;;) {
      const std::uint64_t slot = rng.UniformInt(overlay.num_slots());
      // Planted blocks hold the only copy of their private element, so
      // they are never removed or replaced by a random set.
      if (slot >= kOpt && slot != other && overlay.slot_live(slot) &&
          !(slot < chosen_.size() && chosen_[slot])) {
        return slot;
      }
    }
  }

  void Update(SolveSession& session, int u, streamsc::Rng& rng,
              TraceRecorder* trace, Phase* phase) {
    const OverlaySetStream& overlay = *session.overlay();
    // Every second update hits a chosen set: it grows by a few elements,
    // which keeps the instance feasible but invalidates the warm prefix
    // from that set on. Hits alternate between the first half of the
    // solution (the session falls back to a cold solve) and the second
    // (a warm re-solve of a larger residue), so the mix of update kinds,
    // and with it every update-time quantile, is the same in every run.
    const std::size_t size = chosen_slots_.size();
    const bool hit = u % 2 == 1 && size >= 2;
    std::uint64_t replace_slot = kNoSlot;
    if (hit) {
      replace_slot = chosen_slots_[u % 4 == 1 ? rng.UniformInt(size / 2)
                                              : (size + 1) / 2 +
                                                    rng.UniformInt(size / 2)];
    } else {
      replace_slot = RandomUnchosenLive(overlay, rng, kNoSlot);
    }
    const std::uint64_t remove_slot =
        RandomUnchosenLive(overlay, rng, replace_slot);
    DynamicBitset replacement = rng.RandomSubsetOfSize(kN, hit ? kHitExtra : kSetSize);
    if (hit) overlay.set(overlay.slot_to_live(replace_slot)).OrInto(replacement);
    const DynamicBitset added = rng.RandomSubsetOfSize(kN, kSetSize);

    const std::uint64_t req = NextRequestId();
    const double start = NowMs();
    bool ok = true;
    {
      const BenchSpan span(trace, "bench.dynamic.append", req);
      streamsc::DeltaLogWriter writer(DeltaPath(options_));
      ok = writer.AddSet(added).ok() &&
           writer.ReplaceSet(replace_slot, replacement).ok() &&
           writer.RemoveSet(remove_slot).ok() && writer.Finish().ok();
    }
    const double appended = NowMs();
    {
      const BenchSpan span(trace, "bench.api.refresh", req);
      ok = session.RefreshDelta().ok() && ok;
    }
    const double refreshed = NowMs();
    StatusOr<SolveReport> report = streamsc::Status::Internal("unset");
    {
      const BenchSpan span(trace, "bench.api.solve", req);
      report = session.Solve(kWarmSpec.solver, WithThreads(kWarmSpec.args, threads_));
    }
    const double solved = NowMs();
    {
      const BenchSpan span(trace, "bench.check", req);
      ok = ok && report.ok() && CheckLive(session, *report);
      if (report.ok()) Remember(session, *report);
    }
    const double done = NowMs();
    checks_->Record(ok, "sparse_dynamic update " + std::to_string(u) +
                            (report.ok() ? "" : ": " + report.status().ToString()));
    phase->update_ms.push_back(done - start);
    phase->append_ms.push_back(appended - start);
    phase->refresh_ms.push_back(refreshed - appended);
    phase->warm_solve_ms.push_back(solved - refreshed);
    if (report.ok()) {
      ++phase->update_solves;
      phase->warm_solves += report->counters.value(
          streamsc::CounterId::Counter("dynamic.warm_solves"));
      phase->residue_elements += static_cast<double>(report->residue_elements);
    }
  }

  const Options& options_;
  Checks* checks_;
  const std::size_t threads_;
  std::vector<bool> chosen_;               // slot -> chosen last solve
  std::vector<std::uint64_t> chosen_slots_;
};

void PrintSamples(const Phase& phase, Metrics* metrics) {
  ReportSolveSamples("sparse_dynamic", phase.solve_ms, metrics);
  std::cout << "sparse_dynamic update_ms median " << Median(phase.update_ms)
            << " over " << phase.update_ms.size() << " updates\n";
}

}  // namespace

bool GenerateSparseDynamic(const Options& options) {
  streamsc::Rng rng(options.seed);
  const streamsc::SetSystem system =
      streamsc::PlantedCoverInstance(kN, kM, kOpt, rng);
  const streamsc::Status written =
      streamsc::BinaryInstanceWriter::WriteSystem(system, BasePath(options));
  if (!written.ok()) {
    std::cerr << "sparse_dynamic gen: " << written.ToString() << "\n";
    return false;
  }
  return ResetDelta(options);
}

void RunSparseDynamic(const Options& options, Metrics* metrics,
                      Checks* checks) {
  SparseDynamic workload(options, checks);
  const double setup_ms = workload.SetupMs();
  if (!checks->Record(setup_ms >= 0.0, "sparse_dynamic setup")) return;
  Metrics counts;
  counts.Set("api.open_ms", setup_ms, "ms");
  workload.CrossThreadCheck(&counts);

  const int updates =
      std::max(8, static_cast<int>(kUpdatesPerSecond * options.seconds));
  if (!options.trace) {
    const Phase phase =
        workload.Measure(updates, updates / kColdRoundsPerRun, nullptr);
    PrintSamples(phase, nullptr);
    double update_s = 0.0;
    for (const double ms : phase.update_ms) update_s += ms / 1e3;
    metrics->Set("setup_s", setup_ms / 1e3, "s");
    metrics->Set("solve_ms_gmean", GeoMeanOfMedians(phase.solve_ms), "ms");
    metrics->Set("op_ms_p50", Percentile(phase.update_ms, 50), "ms");
    metrics->Set("op_ms_p90", Percentile(phase.update_ms, 90), "ms");
    metrics->Set("ops_per_s",
                 update_s > 0.0 ? static_cast<double>(phase.update_ms.size()) /
                                      update_s
                                : 0.0,
                 "1/s");
    return;
  }

  *metrics = counts;
  const int half = std::max(4, updates / 2);
  const int cold_every = std::max(1, half / (kColdRoundsPerRun / 2));
  const Phase untraced = workload.Measure(half, cold_every, nullptr);
  PrintSamples(untraced, metrics);
  metrics->Set("dynamic.append_ms", Median(untraced.append_ms), "ms");
  metrics->Set("dynamic.refresh_ms", Median(untraced.refresh_ms), "ms");
  metrics->Set("dynamic.warm_solve_ms", Median(untraced.warm_solve_ms), "ms");
  const double solves = static_cast<double>(untraced.update_solves);
  metrics->Set("dynamic.warm_ratio",
               solves > 0 ? static_cast<double>(untraced.warm_solves) / solves
                          : 0.0,
               "ratio");
  metrics->Set("dynamic.residue_elements",
               solves > 0 ? untraced.residue_elements / solves : 0.0, "count");
  metrics->Set("dynamic.log_bytes", untraced.log_bytes, "bytes");

  LayerBreakdown breakdown;
  const Phase traced = workload.Measure(half, cold_every, &breakdown);
  SetTraceOverhead(Median(traced.update_ms), Median(untraced.update_ms),
                   metrics);
  AddBreakdownMetrics(breakdown, metrics);
  ProbeSetKernels(BasePath(options), options.seed, metrics);
  ProbeMmapOpen(BasePath(options), metrics);
  ProbeDeltaLogOpen(DeltaPath(options), metrics);
  ProbeEngine(metrics);
}

}  // namespace perfbench
