#include "probes.h"

#include <filesystem>
#include <iostream>
#include <vector>

#include "api/solve_session.h"
#include "core/sampling.h"
#include "dynamic/delta_log.h"
#include "serve/frame.h"
#include "storage/mmap_set_stream.h"
#include "stream/engine_context.h"
#include "stream/parallel_pass_engine.h"
#include "util/random.h"

namespace perfbench {

using streamsc::DynamicBitset;
using streamsc::MmapSetStream;
using streamsc::Rng;
using streamsc::SetId;
using streamsc::SetView;

namespace {

constexpr int kReps = 7;
constexpr double kBytesPerMb = 1024.0 * 1024.0;

// Median over kReps of \p body's wall time in ns, divided by \p units.
template <typename Body>
double NsPerUnit(double units, Body&& body) {
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    const double start = NowMs();
    body();
    samples.push_back((NowMs() - start) * 1e6 / units);
  }
  return Median(samples);
}

// The stream's sets split by on-disk representation.
struct SpanSets {
  std::vector<SetView> dense;
  std::vector<SetView> sparse;
};

SpanSets Split(const MmapSetStream& stream) {
  SpanSets out;
  for (SetId id = 0; id < stream.num_sets(); ++id) {
    const SetView view = stream.set(id);
    (view.dense_span() != nullptr ? out.dense : out.sparse).push_back(view);
  }
  return out;
}

bool Opened(const MmapSetStream& stream, const std::string& path) {
  if (stream.status().ok()) return true;
  std::cerr << "probe: cannot open " << path << ": "
            << stream.status().ToString() << "\n";
  return false;
}

}  // namespace

void ProbeSetKernels(const std::string& path, std::uint64_t seed,
                     Metrics* metrics) {
  const MmapSetStream stream(path);
  if (!Opened(stream, path)) return;
  const std::size_t n = stream.universe_size();
  Rng rng(seed ^ 0x5e7u);
  const DynamicBitset mask = rng.RandomSubsetOfSize(n, n / 2);
  const SpanSets sets = Split(stream);
  const double words_per_set = static_cast<double>((n + 63) / 64);
  volatile std::uint64_t sink = 0;

  if (!sets.dense.empty()) {
    // Enough passes over the sets for ~16M words per sample.
    const int loops = static_cast<int>(std::max<double>(
        1.0, 16e6 / (words_per_set * static_cast<double>(sets.dense.size()))));
    const double words =
        words_per_set * static_cast<double>(sets.dense.size()) * loops;
    metrics->Set("util.count_and_ns_per_word", NsPerUnit(words, [&] {
                   std::uint64_t sum = 0;
                   for (int l = 0; l < loops; ++l) {
                     for (const SetView& v : sets.dense) sum += v.CountAnd(mask);
                   }
                   sink = sink + sum;
                 }),
                 "ns");
    DynamicBitset target(n);
    metrics->Set("util.and_not_into_ns_per_word", NsPerUnit(words, [&] {
                   for (int l = 0; l < loops; ++l) {
                     for (const SetView& v : sets.dense) v.AndNotInto(target);
                   }
                   sink = sink + target.CountSet();
                 }),
                 "ns");
  }
  if (!sets.sparse.empty()) {
    double ids = 0.0;
    for (const SetView& v : sets.sparse) {
      ids += static_cast<double>(v.CountSet());
    }
    const int loops = static_cast<int>(std::max(1.0, 4e6 / ids));
    metrics->Set("util.count_and_ns_per_id", NsPerUnit(ids * loops, [&] {
                   std::uint64_t sum = 0;
                   for (int l = 0; l < loops; ++l) {
                     for (const SetView& v : sets.sparse) sum += v.CountAnd(mask);
                   }
                   sink = sink + sum;
                 }),
                 "ns");
  }
}

void ProbeProjection(const std::string& path, std::uint64_t seed,
                     Metrics* metrics) {
  const MmapSetStream stream(path);
  if (!Opened(stream, path)) return;
  const std::size_t n = stream.universe_size();
  Rng rng(seed ^ 0x9a0u);
  const streamsc::SubUniverse sub(
      streamsc::SampleElements(DynamicBitset::Full(n), 0.125, rng));
  const double words = static_cast<double>((n + 63) / 64) *
                       static_cast<double>(stream.num_sets());
  volatile std::size_t sink = 0;
  metrics->Set("core.project_ns_per_word", NsPerUnit(words, [&] {
                 for (SetId id = 0; id < stream.num_sets(); ++id) {
                   const streamsc::ProjectedSet projected =
                       sub.ProjectAdaptive(stream.set(id));
                   sink = sink + projected.index();
                 }
               }),
               "ns");
}

void ProbeEngine(Metrics* metrics) {
  for (const std::size_t width : {std::size_t{2}, std::size_t{4}}) {
    std::vector<double> samples;
    for (int rep = 0; rep < 31; ++rep) {
      const double start = NowMs();
      { const auto engine = streamsc::MakeEngine(width); }
      samples.push_back((NowMs() - start) * 1e3);
    }
    metrics->Set("stream.engine_make_us." + std::to_string(width),
                 Median(samples), "us");
  }
}

void ProbeMmapOpen(const std::string& path, Metrics* metrics) {
  const double mb =
      static_cast<double>(std::filesystem::file_size(path)) / kBytesPerMb;
  metrics->Set("storage.open_ms_per_mb", NsPerUnit(mb * 1e6, [&] {
                 const MmapSetStream stream(path);
                 if (!stream.status().ok()) std::cerr << "probe open failed\n";
               }),
               "ms");
}

void ProbeDeltaLogOpen(const std::string& path, Metrics* metrics) {
  const double mb =
      static_cast<double>(std::filesystem::file_size(path)) / kBytesPerMb;
  metrics->Set("dynamic.log_open_ms_per_mb", NsPerUnit(mb * 1e6, [&] {
                 const streamsc::DeltaLog log(path);
                 if (!log.status().ok()) std::cerr << "probe open failed\n";
               }),
               "ms");
}

void ProbeCodec(const std::string& path, Metrics* metrics) {
  streamsc::StatusOr<streamsc::SolveSession> session =
      streamsc::SolveSession::Open(path);
  if (!session.ok()) return;
  const streamsc::StatusOr<streamsc::SolveReport> report =
      session->Solve("threshold_greedy", {});
  if (!report.ok()) return;
  const streamsc::serve::SolveResponse response =
      streamsc::serve::ResponseFromReport(*report, false);
  constexpr int kPairs = 2000;
  metrics->Set("serve.codec_us", NsPerUnit(kPairs * 1e3, [&] {
                 for (int i = 0; i < kPairs; ++i) {
                   streamsc::serve::SolveResponse decoded;
                   const std::string payload =
                       streamsc::serve::EncodeResponse(response);
                   if (!streamsc::serve::DecodeResponse(payload, &decoded)
                            .ok()) {
                     std::cerr << "probe decode failed\n";
                   }
                 }
               }),
               "us");
}

}  // namespace perfbench
