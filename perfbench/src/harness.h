#ifndef STREAMSC_PERFBENCH_HARNESS_H_
#define STREAMSC_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/solve_report.h"
#include "obs/trace.h"
#include "util/set_view.h"

/// \file harness.h
/// Shared plumbing of the streamsc benchmark: run options, the metric and
/// check sinks every workload fills, sample statistics, solution checks
/// and digests, and the benchmark's own trace spans.

namespace perfbench {

/// Command-line options of one `run` or `gen` invocation.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;  ///< The workload's data directory (inputs, trace).
};

/// Named metrics with units, printed in the result line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  /// The value of \p name, 0 when unset.
  double Get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second.first;
  }
  const std::map<std::string, std::pair<double, std::string>>& values()
      const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Counts attempted operations and the ones that failed or produced a
/// wrong output. A failure is reported on stderr and never aborts the run.
class Checks {
 public:
  /// Records one operation; \p ok false counts it as failed.
  bool Record(bool ok, const std::string& what);
  /// Adds another thread's counts.
  void Merge(const Checks& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- sample statistics ------------------------------------------------

/// The \p p-th percentile (0..100) of \p samples by linear interpolation;
/// 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);
inline double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50.0);
}
/// Geometric mean of positive values; 0 if any value is not positive.
double GeoMean(const std::vector<double>& values);

/// Milliseconds on the steady clock (the trace recorder's time base).
double NowMs();

/// Solve times in ms, per solver.
using SolveSamples = std::map<std::string, std::vector<double>>;

/// Geometric mean of the per-solver medians.
double GeoMeanOfMedians(const SolveSamples& samples);

/// Prints each solver's median and sample count and, when \p metrics is
/// non-null, sets solve_ms.<solver> to the median.
void ReportSolveSamples(const std::string& workload,
                        const SolveSamples& samples, Metrics* metrics);

// --- solution checks --------------------------------------------------

/// Order-sensitive digest of a report's deterministic result surface:
/// chosen ids, feasibility, and the family scalar.
std::uint64_t Digest(const streamsc::SolveReport& report);
std::uint64_t Digest(const std::vector<std::uint32_t>& ids, bool feasible,
                     std::uint64_t extra);

/// Returns a view of set \p id of the instance being checked.
using SetLookup = std::function<streamsc::SetView(streamsc::SetId)>;

/// Checks a finished run against the instance it ran on, independently of
/// the solver: a set cover must cover every element of [n] with distinct,
/// in-range ids; a max k-coverage result must pick at most \p k distinct
/// sets whose union has exactly the reported coverage.
bool CheckReport(const streamsc::SolveReport& report, std::size_t n,
                 std::size_t m, const SetLookup& lookup, std::size_t k = 3);

// --- process facts ----------------------------------------------------

/// Peak resident set size of this process (VmHWM) in MB.
double PeakRssMb();

/// One-line JSON host fingerprint: CPU model, ISA flags, compiler, build
/// type and STREAMSC_NATIVE. Results with different fingerprints are not
/// comparable.
std::string HostFingerprintJson();

// --- the benchmark's own spans ----------------------------------------

/// Request id carried by every benchmark span ("req" arg).
std::uint64_t NextRequestId();

/// A span the benchmark records around one call into a layer. \p name
/// must be a literal of the form "bench.<layer>.<op>"; a null recorder
/// makes it free. The recorder has no category for callers, so these
/// spans carry the session category and are told apart by the prefix.
class BenchSpan {
 public:
  BenchSpan(streamsc::TraceRecorder* trace, const char* name,
            std::uint64_t request_id)
      : span_(trace, streamsc::TraceCategory::kSession, name) {
    span_.AddArg("req", request_id);
  }

 private:
  streamsc::TraceSpan span_;
};

}  // namespace perfbench

#endif  // STREAMSC_PERFBENCH_HARNESS_H_
