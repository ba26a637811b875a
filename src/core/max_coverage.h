#ifndef STREAMSC_CORE_MAX_COVERAGE_H_
#define STREAMSC_CORE_MAX_COVERAGE_H_

#include <cstdint>
#include <string>

#include "stream/stream_algorithm.h"
#include "util/random.h"

/// \file max_coverage.h
/// Streaming maximum k-coverage algorithms:
///
/// * ElementSamplingMaxCoverage — the (1-ε)-approximation scheme of
///   McGregor-Vu / Bateni et al. that Result 2's lower bound matches:
///   subsample the universe to Õ(k·log m / ε²) elements in one pass while
///   storing every set's projection, then solve the sampled instance
///   offline (exactly for small k, greedily otherwise). Space has the
///   m/ε² shape of the upper bounds quoted in the paper.
///
/// * SieveMaxCoverage — a single-pass threshold sieve
///   (Badanidiyuru et al. KDD'14 style): guesses of OPT on a geometric
///   grid; a set is added to a guess's candidate iff its marginal gain
///   meets (v/2 - current)/(k - picked). Gives (1/2 - ε) offline-style
///   guarantees with k·n-bit state per guess; used as the cheap baseline.

namespace streamsc {

/// Configuration of the element-sampling (1-ε) scheme.
/// epsilon must lie in (0, 1) — CHECK-enforced in every build mode (the
/// sample-rate formula divides by ε²).
struct ElementSamplingMcConfig {
  double epsilon = 0.1;          ///< Target (1-ε) accuracy.
  double sampling_boost = 1.0;   ///< Multiplier on the sample rate.
  std::uint64_t seed = 1;
  std::uint64_t exact_node_budget = 5'000'000;
  std::size_t exact_k_limit = 3;  ///< Solve sampled instance exactly for
                                  ///< k <= this; greedily otherwise.
};

/// The (1-ε)-approximation, single-pass element-sampling algorithm.
class ElementSamplingMaxCoverage : public StreamingMaxCoverageAlgorithm {
 public:
  explicit ElementSamplingMaxCoverage(ElementSamplingMcConfig config);

  std::string name() const override;

  using StreamingMaxCoverageAlgorithm::Run;

  /// The engine in \p context (if any) shards the projection-storing
  /// pass; bit-identical results for any thread count.
  MaxCoverageRunResult Run(SetStream& stream, std::size_t k,
                           const RunContext& context) override;

  /// The universe-sampling rate used for a given instance shape — exposed
  /// so benches can report the predicted space m·(rate·n) directly.
  double SampleRate(std::size_t n, std::size_t m, std::size_t k) const;

 private:
  ElementSamplingMcConfig config_;
};

/// Configuration of the sieve baseline.
/// epsilon must lie in (0, 1) — CHECK-enforced in every build mode. This
/// one is load-bearing: ε = 0 makes the (1+ε)^j guess grid stop growing,
/// which in a release build (where a plain assert compiles out) used to
/// spin the grid-construction loop forever.
struct SieveMcConfig {
  double epsilon = 0.1;  ///< Guess-grid resolution (1+ε).
};

/// Single-pass threshold sieve baseline. Per item, a lane that is full,
/// or whose take rule asks for more than a sparse set's member count (an
/// O(1) bound on the gain), costs O(1); every other lane runs one gain
/// kernel on the set.
class SieveMaxCoverage : public StreamingMaxCoverageAlgorithm {
 public:
  explicit SieveMaxCoverage(SieveMcConfig config = {});

  std::string name() const override;

  using StreamingMaxCoverageAlgorithm::Run;

  /// The engine in \p context (if any) runs the OPT-guess lanes of the
  /// sieve in parallel — each lane's state depends only on its own
  /// history, so the result is bit-identical for any thread count.
  /// Throws ArenaBudgetExceeded before building any lane when the lanes
  /// would exceed the run arena's budget or, with no budget, the host's
  /// physical memory.
  MaxCoverageRunResult Run(SetStream& stream, std::size_t k,
                           const RunContext& context) override;

 private:
  SieveMcConfig config_;
};

}  // namespace streamsc

#endif  // STREAMSC_CORE_MAX_COVERAGE_H_
