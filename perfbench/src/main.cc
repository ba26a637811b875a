// streamsc_perfbench: the benchmark binary behind perfbench/run.py.
//
//   streamsc_perfbench gen --workload W --seed N --dir D
//   streamsc_perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//
// `gen` writes the workload's seeded inputs into D. `run` measures them in
// a fresh process (so peak RSS and set-up time exclude generation) and
// prints the host fingerprint line and then one JSON result line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::Checks;
using perfbench::Metrics;
using perfbench::Options;

struct Workload {
  const char* name;
  bool (*generate)(const Options&);
  void (*run)(const Options&, Metrics*, Checks*);
};

constexpr Workload kWorkloads[] = {
    {"dense_batch", perfbench::GenerateDenseBatch, perfbench::RunDenseBatch},
    {"sparse_dynamic", perfbench::GenerateSparseDynamic,
     perfbench::RunSparseDynamic},
    {"serve_open", perfbench::GenerateServeOpen, perfbench::RunServeOpen},
};

int Usage() {
  std::cerr << "usage: streamsc_perfbench gen|run --workload W --seed N "
               "[--seconds S] [--trace 0|1] --dir D\n";
  return 2;
}

void PrintResult(const Metrics& metrics, const Checks& checks) {
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10)
            << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << checks.attempted()
            << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics.values()) {
    // JSON has no infinity; a latency percentile that lands on a failed
    // request (counted as infinitely slow) prints as the largest double.
    double value = value_unit.first;
    if (std::isinf(value)) value = std::numeric_limits<double>::max();
    if (std::isnan(value)) value = 0.0;
    std::cout << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
              << value << ", \"unit\": \"" << value_unit.second << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Options options;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--dir") {
      options.dir = value;
    } else {
      return Usage();
    }
  }
  if (options.dir.empty() || !(options.seconds > 0.0)) return Usage();

  for (const Workload& workload : kWorkloads) {
    if (options.workload != workload.name) continue;
    if (command == "gen") {
      return workload.generate(options) ? 0 : 1;
    }
    if (command != "run") return Usage();
    Metrics metrics;
    Checks checks;
    workload.run(options, &metrics, &checks);
    metrics.Set(options.trace ? "obs.peak_rss_mb" : "peak_rss_mb",
                perfbench::PeakRssMb(), "MB");
    std::cout << "fail_ratio " << checks.failed() << "/" << checks.attempted()
              << "\n"
              << perfbench::HostFingerprintJson() << "\n";
    PrintResult(metrics, checks);
    return 0;
  }
  std::cerr << "unknown workload '" << options.workload << "'\n";
  return 2;
}
