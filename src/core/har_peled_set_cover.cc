#include "core/har_peled_set_cover.h"

#include <algorithm>
#include <cmath>

#include "core/cover_run.h"
#include "core/sampling.h"
#include "obs/trace.h"
#include "stream/engine_context.h"
#include "util/check.h"
#include "util/math.h"

namespace streamsc {

HarPeledSetCover::HarPeledSetCover(HarPeledConfig config) : config_(config) {
  STREAMSC_CHECK(config_.alpha >= 1, "HarPeledConfig: alpha must be >= 1");
}

std::string HarPeledSetCover::name() const {
  return "har-peled(alpha=" + std::to_string(config_.alpha) + ")";
}

SetCoverRunResult HarPeledSetCover::RunWithGuess(
    SetStream& stream, std::size_t opt_guess, Rng& rng,
    const RunContext& context) const {
  const std::size_t n = stream.universe_size();
  const std::size_t m = stream.num_sets();

  // Run-lived state on the run arena; guess-lived structures bracket the
  // thread's table arena per iteration (see the Assadi implementation for
  // the full rationale).
  CoverRun run(stream, context);
  EngineContext& ctx = run.ctx();
  DynamicBitset& uncovered = run.uncovered();
  const auto take = [&](SetId id) { run.Take(id); };

  // ceil(α/2) iterations, each reducing |U| by ~n^{2/α} (the c = 2
  // exponent in the original's n^{Θ(1/α)} space).
  const std::size_t iterations = (config_.alpha + 1) / 2;
  const double rho =
      1.0 / std::pow(static_cast<double>(n),
                     2.0 / static_cast<double>(config_.alpha));

  bool guess_ok = true;
  for (std::size_t iter = 0; iter < iterations && guess_ok; ++iter) {
    if (uncovered.None()) break;
    TraceSpan iteration_span(ctx.trace(), TraceCategory::kPhase, "iteration");
    iteration_span.AddArg("iter", iter);

    // 1. Iterative pruning pass (per-iteration, threshold |U|/(2·õpt)).
    const double threshold =
        static_cast<double>(uncovered.CountSet()) /
        (2.0 * static_cast<double>(std::max<std::size_t>(opt_guess, 1)));
    {
      const TraceSpan phase(ctx.trace(), TraceCategory::kPhase, "prune");
      ctx.ThresholdPass(threshold, uncovered, take);
    }
    if (uncovered.None()) break;

    // 2. Sampling pass with the looser rate (ρ = n^{-2/α}). The sample,
    // projections, and sub-solution are guess-lived: table-arena bracket.
    const ArenaCheckpoint iteration_checkpoint(ThreadTableArena());
    const double rate = ElementSamplingRate(
        n, m, std::max<std::size_t>(opt_guess, 1), rho,
        config_.sampling_boost);
    const DynamicBitset sampled = SampleElements(
        uncovered, rate, rng, DynamicBitset::Allocator::Table());
    if (sampled.None()) continue;
    ProjectedSample sample(run, sampled, &ThreadTableArena());

    // 3. Optimal sub-solve + subtraction pass.
    ArenaVector<SetId> chosen_local(ctx.alloc<SetId>());
    {
      const TraceSpan subsolve(ctx.trace(), TraceCategory::kPhase,
                               "subsolve");
      guess_ok = ExactSubsolve(sample, opt_guess, config_.exact_node_budget,
                               chosen_local);
    }
    sample.ReleaseSpace();
    if (!guess_ok) break;
    run.CommitAndSubtract(sample, chosen_local);
  }

  // Cleanup pass for feasibility (as in the Assadi implementation).
  if (guess_ok && !uncovered.None()) {
    ctx.CoverResiduePass(uncovered, take);
  }
  return run.Finish(guess_ok);
}

SetCoverRunResult HarPeledSetCover::Run(SetStream& stream,
                                        const RunContext& context) {
  Rng rng(config_.seed);
  const GuessGrid grid{2.0, static_cast<double>(config_.alpha) + 1.0,
                       config_.known_opt};
  return RunGuesses(stream, context, grid, [&](std::size_t guess) {
    return RunWithGuess(stream, guess, rng, context);
  });
}

}  // namespace streamsc
