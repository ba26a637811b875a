#include "harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "obs/counters.h"
#include "util/bitset.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE
#define PERFBENCH_NATIVE 0
#endif

namespace perfbench {

using streamsc::DynamicBitset;
using streamsc::SetId;
using streamsc::SolveReport;
using streamsc::SolverKind;

bool Checks::Record(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 20) std::cerr << "check failed: " << what << "\n";
  }
  return ok;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (samples[hi] == samples[lo]) return samples[lo];  // also inf == inf
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double NowMs() {
  return static_cast<double>(streamsc::TraceRecorder::NowNs()) / 1e6;
}

double GeoMeanOfMedians(const SolveSamples& samples) {
  std::vector<double> medians;
  for (const auto& [solver, values] : samples) medians.push_back(Median(values));
  return GeoMean(medians);
}

void ReportSolveSamples(const std::string& workload,
                        const SolveSamples& samples, Metrics* metrics) {
  for (const auto& [solver, values] : samples) {
    std::cout << workload << " solve_ms." << solver << " median "
              << Median(values) << " ms over " << values.size() << " solves\n";
    if (metrics != nullptr) {
      metrics->Set("solve_ms." + solver, Median(values), "ms");
    }
  }
}

std::uint64_t Digest(const std::vector<std::uint32_t>& ids, bool feasible,
                     std::uint64_t extra) {
  // FNV-1a over the id sequence, then the two scalars.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(ids.size());
  for (const std::uint32_t id : ids) mix(id);
  mix(feasible ? 1 : 0);
  mix(extra);
  return h;
}

std::uint64_t Digest(const SolveReport& report) {
  const std::vector<std::uint32_t> ids(report.solution.chosen.begin(),
                                       report.solution.chosen.end());
  return Digest(ids, report.feasible, report.extra);
}

bool CheckReport(const SolveReport& report, std::size_t n, std::size_t m,
                 const SetLookup& lookup, std::size_t k) {
  std::set<SetId> distinct;
  for (const SetId id : report.solution.chosen) {
    if (id >= m || !distinct.insert(id).second) return false;
  }
  DynamicBitset covered(n);
  for (const SetId id : report.solution.chosen) lookup(id).OrInto(covered);
  if (report.kind == SolverKind::kMaxCoverage) {
    return report.solution.size() <= k && covered.CountSet() == report.extra;
  }
  return report.feasible && covered.All();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string HostFingerprintJson() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  std::string model = "unknown";
  std::set<std::string> flags;
  while (std::getline(cpuinfo, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_first_of(" \t"));
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model" && line.rfind("model name", 0) == 0) {
      model = value;
    } else if (key == "flags" && flags.empty()) {
      std::istringstream words(value);
      std::string flag;
      while (words >> flag) flags.insert(flag);
    }
  }
  std::ostringstream out;
  out << "{\"host\": {\"cpu\": \"";
  for (const char c : model) {
    if (c != '"' && c != '\\') out << c;
  }
  out << "\", \"isa\": {";
  const char* kIsa[] = {"popcnt", "bmi2", "avx2", "avx512_vpopcntdq"};
  for (std::size_t i = 0; i < std::size(kIsa); ++i) {
    out << (i ? ", " : "") << '"' << kIsa[i]
        << "\": " << (flags.count(kIsa[i]) ? "true" : "false");
  }
  out << "}, \"compiler\": \""
#if defined(__clang__)
      << "clang "
#elif defined(__GNUC__)
      << "gcc "
#endif
      << __VERSION__ << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"streamsc_native\": " << (PERFBENCH_NATIVE ? "true" : "false")
      << "}}";
  return out.str();
}

std::uint64_t NextRequestId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void AddRunCounts(const SolveReport& report, Metrics* metrics) {
  metrics->Set("core.passes." + report.solver,
               static_cast<double>(report.passes), "count");
  metrics->Set("core.peak_space_bytes." + report.solver,
               static_cast<double>(report.peak_space_bytes), "bytes");
  const auto add = [&](const char* metric, const char* counter) {
    const double value = static_cast<double>(
        report.counters.value(streamsc::CounterId::Counter(counter)));
    metrics->Set(metric, metrics->Get(metric) + value, "count");
  };
  add("stream.items_scanned", "engine.items_scanned");
  add("stream.shard_jobs", "engine.shard_jobs");
  metrics->Set("api.arena_high_water_bytes",
               std::max(metrics->Get("api.arena_high_water_bytes"),
                        static_cast<double>(report.arena_high_water)),
               "bytes");
}

void SetTraceOverhead(double traced_ms, double untraced_ms,
                      Metrics* metrics) {
  metrics->Set("obs.trace_overhead_pct",
               untraced_ms > 0.0 ? (traced_ms / untraced_ms - 1.0) * 100.0
                                 : 0.0,
               "%");
}

}  // namespace perfbench
