// serve_open: the daemon user. An in-process SolveService on a unix
// socket (2 workers, solve_threads=2) serves a small planted sscb1. Solves
// there take about 0.1 ms, so the frame codec, socket, ring, session reuse
// and the per-request MakeEngine dominate while the kernels do almost
// nothing. Two phases:
//
//   closed loop  2 connections send back-to-back solves: capacity;
//   open loop    the same mix at a fixed rate well below capacity, each
//                request timed from when it was due, plus a stats scrape
//                and a reload (which rewrites the instance file) on a
//                schedule.
//
// Connections never outnumber workers: W idle connections wedge a
// --workers=W daemon.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "api/solve_session.h"
#include "instance/generators.h"
#include "probes.h"
#include "serve/solve_client.h"
#include "serve/solve_service.h"
#include "storage/binary_instance_writer.h"
#include "storage/mmap_set_stream.h"
#include "trace_breakdown.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

using streamsc::SolveReport;
using streamsc::SolveSession;
using streamsc::StatusOr;
using streamsc::TraceRecorder;
using streamsc::serve::SolveClient;
using streamsc::serve::SolveResponse;
using streamsc::serve::SolveService;

namespace {

constexpr std::size_t kN = 16384;
constexpr std::size_t kOpt = 16;
constexpr std::size_t kM = kOpt + 48;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kSolveThreads = 2;
constexpr int kConnections = 2;  // never more than kWorkers
constexpr double kOpenRate = 4000.0;  // requests/s in the open loop
constexpr std::chrono::microseconds kSpin{200};  // busy wait before a send
constexpr int kStatsEvery = 200;      // open-loop slots per stats scrape
constexpr int kReloadEvery = 1000;    // open-loop slots per reload
constexpr int kWarmupRequests = 200;  // per connection, before measuring
constexpr int kSetups = 25;
constexpr std::size_t kSampleCapacity = std::size_t{1} << 19;  // per kind
constexpr const char* kInstance = "bench";

const std::vector<SolverSpec>& Mix() {
  static const std::vector<SolverSpec> mix = {{"threshold_greedy", {}},
                                              {"one_pass", {}}};
  return mix;
}

std::string InstancePath(const Options& o) { return o.dir + "/serve.sscb1"; }

streamsc::SetSystem Instance(const Options& options) {
  streamsc::Rng rng(options.seed);
  return streamsc::PlantedCoverInstance(kN, kM, kOpt, rng);
}

// Samples of one phase, merged across connections.
struct Samples {
  SolveSamples server_ms;  // the daemon's solve time (wall_ns), per solver
  std::vector<double> roundtrip_ms, overhead_ms;          // closed loop
  std::vector<double> req_ms, lag_ms, reload_ms;          // open loop
  double queue_depth_max = 0.0;
  double busy = 0.0;
  std::size_t completed = 0;
  double wall_ms = 0.0;  // closed loop: the longest connection's loop

  // Reserves room for \p n samples of each kind up front, so that a
  // vector doubling does not make the process peak RSS jump between runs
  // with slightly different request counts.
  void Reserve(std::size_t n) {
    for (const SolverSpec& spec : Mix()) server_ms[spec.solver].reserve(n);
    for (std::vector<double>* v :
         {&roundtrip_ms, &overhead_ms, &req_ms, &lag_ms}) {
      v->reserve(n);
    }
  }

  void Merge(const Samples& other) {
    for (const auto& [solver, values] : other.server_ms) {
      server_ms[solver].insert(server_ms[solver].end(), values.begin(),
                               values.end());
    }
    for (auto [into, from] :
         {std::pair{&roundtrip_ms, &other.roundtrip_ms},
          std::pair{&overhead_ms, &other.overhead_ms},
          std::pair{&req_ms, &other.req_ms}, std::pair{&lag_ms, &other.lag_ms},
          std::pair{&reload_ms, &other.reload_ms}}) {
      into->insert(into->end(), from->begin(), from->end());
    }
    queue_depth_max = std::max(queue_depth_max, other.queue_depth_max);
    busy = std::max(busy, other.busy);
    completed += other.completed;
    wall_ms = std::max(wall_ms, other.wall_ms);
  }
};

// The value of the first exposition line whose metric name ends in
// \p suffix, 0 when absent (counters at zero are not rendered).
double StatValue(const std::string& text, const std::string& suffix) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    const std::string name = line.substr(0, space);
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return std::stod(line.substr(space + 1));
    }
  }
  return 0.0;
}

class ServeOpen {
 public:
  ServeOpen(const Options& options, Checks* checks)
      : options_(options), checks_(checks), system_(Instance(options)) {}

  // Reference results from an in-process session; returns the median
  // session open time in ms, negative on failure.
  double Reference(Metrics* counts) {
    const streamsc::MmapSetStream check(InstancePath(options_));
    std::vector<double> open_ms;
    StatusOr<SolveSession> session = streamsc::Status::Internal("unset");
    for (int i = 0; i < kSetups; ++i) {
      const double start = NowMs();
      session = SolveSession::Open(InstancePath(options_));
      open_ms.push_back(NowMs() - start);
    }
    if (!check.status().ok() || !session.ok()) return -1.0;
    for (const SolverSpec& spec : Mix()) {
      std::vector<std::string> args = spec.args;
      args.push_back("threads=" + std::to_string(kSolveThreads));
      const StatusOr<SolveReport> report = session->Solve(spec.solver, args);
      const bool ok =
          report.ok() &&
          CheckReport(*report, check.universe_size(), check.num_sets(),
                      [&check](streamsc::SetId id) { return check.set(id); });
      if (!checks_->Record(ok, "serve_open reference " + spec.solver)) {
        return -1.0;
      }
      reference_[spec.solver] = Digest(*report);
      AddRunCounts(*report, counts);
    }
    return Median(open_ms);
  }

  // Start + AddInstance + first ping, in ms; the service keeps running.
  std::unique_ptr<SolveService> Start(bool trace, double* setup_ms) {
    streamsc::serve::ServiceOptions service_options;
    service_options.endpoint = "unix:" + SocketPath(services_++);
    service_options.workers = kWorkers;
    service_options.ring_capacity = 2 * kWorkers;
    service_options.solve_threads = kSolveThreads;
    service_options.enable_trace = trace;
    const double start = NowMs();
    auto service = std::make_unique<SolveService>(service_options);
    bool ok = service->AddInstance(kInstance, InstancePath(options_)).ok() &&
              service->Start().ok();
    if (ok) {
      StatusOr<SolveClient> client = SolveClient::Connect(Endpoint(*service));
      ok = client.ok() && client->Ping().ok();
    }
    *setup_ms = NowMs() - start;
    if (!checks_->Record(ok, "serve_open service start")) {
      service->Stop();
      return nullptr;
    }
    return service;
  }

  // kConnections clients warm up, then send back-to-back solves for
  // \p seconds.
  Samples ClosedLoop(SolveService& service, double seconds,
                     TraceRecorder* trace) {
    return RunClients([&](SolveClient& client, int c, Samples* out,
                          Checks* checks) {
      const double loop_start = NowMs();
      const BenchSpan window(trace, "bench.window", 0);
      for (int i = 0; NowMs() - loop_start < seconds * 1e3; ++i) {
        const SolverSpec& spec = Mix()[(i + c) % Mix().size()];
        const std::uint64_t req = NextRequestId();
        const double start = NowMs();
        StatusOr<SolveResponse> response = streamsc::Status::Internal("unset");
        {
          const BenchSpan span(trace, "bench.serve.solve", req);
          response = client.Solve(kInstance, spec.solver, spec.args,
                                  trace != nullptr);
        }
        const double roundtrip = NowMs() - start;
        const BenchSpan span(trace, "bench.check", req);
        if (!checks->Record(Matches(spec, response),
                            "serve_open closed " + spec.solver)) {
          continue;
        }
        const double server = static_cast<double>(response->wall_ns) / 1e6;
        out->server_ms[spec.solver].push_back(server);
        out->roundtrip_ms.push_back(roundtrip);
        out->overhead_ms.push_back(roundtrip - server);
        ++out->completed;
      }
      out->wall_ms = NowMs() - loop_start;
    }, service, /*warm_up=*/true);
  }

  // The same mix on a fixed schedule of kOpenRate slots per second for
  // \p seconds; every kStatsEvery-th slot scrapes stats and every
  // kReloadEvery-th rewrites the instance file and reloads it.
  Samples OpenLoop(SolveService& service, double seconds, TraceRecorder* trace) {
    const int slots = static_cast<int>(kOpenRate * seconds);
    std::atomic<int> next{0};
    const auto t0 = std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
    return RunClients([&](SolveClient& client, int, Samples* out,
                          Checks* checks) {
      const BenchSpan window(trace, "bench.window", 0);
      for (int i = next++; i < slots; i = next++) {
        const auto due =
            t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(i * 1e9 / kOpenRate));
        {
          // Sleep, then spin the last stretch: a sleeping sender wakes
          // tens of µs late, by an amount that differs from run to run.
          const BenchSpan idle(trace, "bench.idle", 0);
          std::this_thread::sleep_until(due - kSpin);
          while (std::chrono::steady_clock::now() < due) {
          }
        }
        const auto sent = std::chrono::steady_clock::now();
        const std::uint64_t req = NextRequestId();
        if (i % kReloadEvery == kReloadEvery / 2) {
          Reload(client, req, trace, out, checks);
        } else if (i % kStatsEvery == kStatsEvery - 1) {
          Scrape(client, req, trace, out, checks);
        } else {
          const SolverSpec& spec = Mix()[i % Mix().size()];
          StatusOr<SolveResponse> response = streamsc::Status::Internal("unset");
          {
            const BenchSpan span(trace, "bench.serve.solve", req);
            response = client.Solve(kInstance, spec.solver, spec.args,
                                    trace != nullptr);
          }
          const auto done = std::chrono::steady_clock::now();
          const BenchSpan span(trace, "bench.check", req);
          const bool ok = checks->Record(Matches(spec, response),
                                         "serve_open open " + spec.solver);
          // A failed request counts as over any latency limit.
          out->req_ms.push_back(
              ok ? std::chrono::duration<double, std::milli>(done - due).count()
                 : std::numeric_limits<double>::infinity());
          ++out->completed;
        }
        out->lag_ms.push_back(
            std::chrono::duration<double, std::milli>(sent - due).count());
      }
    }, service, /*warm_up=*/false);
  }

  // Removes the reload files and sockets; call once no service runs.
  void RemoveFiles() {
    for (int k = 0; k < reloads_; ++k) std::filesystem::remove(ReloadPath(k));
    for (int k = 0; k < services_; ++k) std::filesystem::remove(SocketPath(k));
  }

 private:
  static std::string Endpoint(const SolveService& service) {
    return streamsc::serve::EndpointSpec(service.endpoint());
  }

  std::string SocketPath(int k) const {
    return options_.dir + "/solve_" + std::to_string(k) + ".sock";
  }

  std::string ReloadPath(int k) const {
    return options_.dir + "/reload_" + std::to_string(k) + ".sscb1";
  }

  bool Matches(const SolverSpec& spec,
               const StatusOr<SolveResponse>& response) const {
    if (!response.ok()) return false;
    const std::vector<std::uint32_t> ids(response->solution.begin(),
                                         response->solution.end());
    return Digest(ids, response->feasible, response->extra) ==
           reference_.at(spec.solver);
  }

  void Scrape(SolveClient& client, std::uint64_t req, TraceRecorder* trace,
              Samples* out, Checks* checks) {
    StatusOr<std::string> stats = streamsc::Status::Internal("unset");
    {
      const BenchSpan span(trace, "bench.serve.stats", req);
      stats = client.Stats();
    }
    const bool ok = stats.ok() && stats->find("serve_requests") != std::string::npos;
    if (checks->Record(ok, "serve_open stats")) {
      out->queue_depth_max = std::max(out->queue_depth_max,
                                      StatValue(*stats, "serve_queue_depth"));
      out->busy = std::max(out->busy, StatValue(*stats, "serve_busy_rejected"));
    }
  }

  // Rewrites the instance (same content) to a fresh file and reloads it.
  // Files are removed only after the service stops: a slot may still map
  // an older one.
  void Reload(SolveClient& client, std::uint64_t req, TraceRecorder* trace,
              Samples* out, Checks* checks) {
    const std::string path = ReloadPath(reloads_++);
    bool ok = false;
    {
      const BenchSpan span(trace, "bench.storage.write", req);
      ok = streamsc::BinaryInstanceWriter::WriteSystem(system_, path).ok();
    }
    const double start = NowMs();
    {
      const BenchSpan span(trace, "bench.serve.reload", req);
      ok = ok && client.Reload(kInstance, path).ok();
    }
    out->reload_ms.push_back(NowMs() - start);
    checks->Record(ok, "serve_open reload");
  }

  // Runs \p body on kConnections threads, one connection each, after
  // kWarmupRequests untimed solves per connection when \p warm_up; merges
  // their samples and checks.
  template <typename Body>
  Samples RunClients(Body&& body, SolveService& service, bool warm_up) {
    std::vector<Samples> samples(kConnections);
    for (Samples& s : samples) s.Reserve(kSampleCapacity);
    std::vector<Checks> checks(kConnections);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        StatusOr<SolveClient> client = SolveClient::Connect(Endpoint(service));
        if (!checks[c].Record(client.ok(), "serve_open connect")) return;
        for (int i = 0; warm_up && i < kWarmupRequests; ++i) {
          const SolverSpec& spec = Mix()[i % Mix().size()];
          checks[c].Record(
              Matches(spec, client->Solve(kInstance, spec.solver, spec.args)),
              "serve_open warm-up " + spec.solver);
        }
        body(*client, c, &samples[c], &checks[c]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    Samples merged;
    merged.Reserve(kConnections * kSampleCapacity);
    for (int c = 0; c < kConnections; ++c) {
      merged.Merge(samples[c]);
      checks_->Merge(checks[c]);
    }
    return merged;
  }

  const Options& options_;
  Checks* checks_;
  const streamsc::SetSystem system_;
  std::map<std::string, std::uint64_t> reference_;
  std::atomic<int> reloads_{0};
  int services_ = 0;
};

void Print(const char* phase, const Samples& s) {
  std::cout << "serve_open " << phase << ": " << s.completed
            << " solves, roundtrip p50 " << Percentile(s.roundtrip_ms, 50)
            << " ms, open-loop p50/p90/p99 " << Percentile(s.req_ms, 50) << "/"
            << Percentile(s.req_ms, 90) << "/" << Percentile(s.req_ms, 99)
            << " ms over " << s.req_ms.size() << " requests, lag p99 "
            << Percentile(s.lag_ms, 99) << " ms\n";
}

}  // namespace

bool GenerateServeOpen(const Options& options) {
  const streamsc::Status written = streamsc::BinaryInstanceWriter::WriteSystem(
      Instance(options), InstancePath(options));
  if (!written.ok()) std::cerr << "serve_open gen: " << written.ToString() << "\n";
  return written.ok();
}

void RunServeOpen(const Options& options, Metrics* metrics, Checks* checks) {
  ServeOpen workload(options, checks);
  Metrics counts;
  const double open_ms = workload.Reference(&counts);
  if (!checks->Record(open_ms >= 0.0, "serve_open reference")) return;
  counts.Set("api.open_ms", open_ms, "ms");

  std::vector<double> setup_ms;
  std::unique_ptr<SolveService> service;
  for (int i = 0; i < kSetups; ++i) {
    if (service) service->Stop();
    double ms = 0.0;
    service = workload.Start(false, &ms);
    if (!service) return;
    setup_ms.push_back(ms);
  }

  // Untraced: the whole run; traced: half of it, then the same on a
  // daemon with tracing armed and every request asking for its breakdown.
  const double phase_s = options.seconds / (options.trace ? 4 : 2);
  const Samples closed = workload.ClosedLoop(*service, phase_s, nullptr);
  const Samples open = workload.OpenLoop(*service, phase_s, nullptr);
  Print("untraced", [&] { Samples s = closed; s.Merge(open); return s; }());
  if (!options.trace) {
    service->Stop();
    workload.RemoveFiles();
    metrics->Set("setup_s", Median(setup_ms) / 1e3, "s");
    metrics->Set("solve_ms_gmean", GeoMeanOfMedians(closed.server_ms), "ms");
    metrics->Set("op_ms_p50", Percentile(open.req_ms, 50), "ms");
    metrics->Set("op_ms_p90", Percentile(open.req_ms, 90), "ms");
    metrics->Set("ops_per_s",
                 static_cast<double>(closed.completed) / (closed.wall_ms / 1e3),
                 "1/s");
    return;
  }

  // Stats are read once the open loop has exercised admission.
  StatusOr<SolveClient> scraper =
      SolveClient::Connect(streamsc::serve::EndpointSpec(service->endpoint()));
  Samples scraped;
  if (scraper.ok()) {
    const StatusOr<std::string> stats = scraper->Stats();
    if (stats.ok()) {
      scraped.queue_depth_max = StatValue(*stats, "serve_queue_depth");
      scraped.busy = StatValue(*stats, "serve_busy_rejected");
    }
  }
  scraper = streamsc::Status::Internal("closed");
  service->Stop();

  *metrics = counts;
  ReportSolveSamples("serve_open", closed.server_ms, metrics);
  std::vector<double> server_all;
  for (const auto& [solver, samples] : closed.server_ms) {
    server_all.insert(server_all.end(), samples.begin(), samples.end());
  }
  metrics->Set("serve.server_ms", Median(server_all), "ms");
  metrics->Set("serve.overhead_ms", Median(closed.overhead_ms), "ms");
  metrics->Set("serve.req_ms_p99", Percentile(open.req_ms, 99), "ms");
  metrics->Set("serve.gen_lag_ms", Percentile(open.lag_ms, 99), "ms");
  metrics->Set("storage.reload_ms", Median(open.reload_ms), "ms");
  metrics->Set("serve.queue_depth_max",
               std::max(open.queue_depth_max, scraped.queue_depth_max), "count");
  metrics->Set("serve.busy", std::max(open.busy, scraped.busy), "count");

  double ignored = 0.0;
  std::unique_ptr<SolveService> traced_service = workload.Start(true, &ignored);
  if (!traced_service) return;
  TraceRecorder trace(TraceRecorder::Options{1 << 16, 8});
  const Samples traced_closed =
      workload.ClosedLoop(*traced_service, phase_s, &trace);
  workload.OpenLoop(*traced_service, phase_s, &trace);
  traced_service->Stop();
  workload.RemoveFiles();
  SetTraceOverhead(Median(traced_closed.roundtrip_ms),
                   Median(closed.roundtrip_ms), metrics);
  LayerBreakdown breakdown;
  AnalyzeTrace(trace, kSolveThreads, &breakdown);
  AddBreakdownMetrics(breakdown, metrics);
  ProbeSetKernels(InstancePath(options), options.seed, metrics);
  ProbeMmapOpen(InstancePath(options), metrics);
  ProbeEngine(metrics);
  ProbeCodec(InstancePath(options), metrics);
  WriteTrace(trace, options);
}

}  // namespace perfbench
