#include "core/demaine_set_cover.h"

#include <algorithm>
#include <cmath>

#include "core/cover_run.h"
#include "core/sampling.h"
#include "obs/trace.h"
#include "offline/greedy.h"
#include "stream/engine_context.h"
#include "util/check.h"

namespace streamsc {

DemaineSetCover::DemaineSetCover(DemaineConfig config) : config_(config) {
  STREAMSC_CHECK(config_.alpha >= 2, "DemaineConfig: alpha must be >= 2");
}

std::string DemaineSetCover::name() const {
  return "demaine(alpha=" + std::to_string(config_.alpha) + ")";
}

double DemaineSetCover::SpaceExponent(std::size_t n) const {
  (void)n;
  const double delta =
      std::log(4.0) / std::log(static_cast<double>(config_.alpha));
  return std::clamp(delta, 1e-6, 1.0);
}

SetCoverRunResult DemaineSetCover::RunWithGuess(
    SetStream& stream, std::size_t opt_guess, Rng& rng,
    const RunContext& context) const {
  const std::size_t n = stream.universe_size();

  // Run-lived state on the run arena; phase-lived structures bracket the
  // thread's table arena per phase (see the Assadi implementation for the
  // full rationale).
  CoverRun run(stream, context);
  EngineContext& ctx = run.ctx();
  DynamicBitset& uncovered = run.uncovered();

  // Per-phase sample size target: n^delta elements of the residual
  // universe (the Õ(m·n^delta) space law), but never below what the
  // greedy sub-solve needs to make progress for a size-õpt cover.
  const double delta = SpaceExponent(n);
  const double target =
      config_.sampling_boost *
      std::max(std::pow(static_cast<double>(n), delta),
               4.0 * static_cast<double>(std::max<std::size_t>(opt_guess, 1)));

  // O(alpha) phases: sample / store / greedy / subtract = 2 passes each.
  const std::size_t max_phases = config_.alpha;
  for (std::size_t phase = 0; phase < max_phases; ++phase) {
    if (uncovered.None()) break;
    TraceSpan phase_span(ctx.trace(), TraceCategory::kPhase, "phase");
    phase_span.AddArg("phase", phase);
    const double residual = static_cast<double>(uncovered.CountSet());
    const double rate = std::clamp(target / residual, 1e-12, 1.0);

    // Everything this phase builds dies with it: table-arena bracket.
    const ArenaCheckpoint phase_checkpoint(ThreadTableArena());
    const DynamicBitset sampled = SampleElements(
        uncovered, rate, rng, DynamicBitset::Allocator::Table());
    if (sampled.None()) continue;
    ProjectedSample sample(run, sampled, &ThreadTableArena());

    // DIMV'14 covers the sample with greedy — the multiplicative loss per
    // phase is where the 4^{1/delta} approximation factor comes from.
    const Solution local = [&] {
      const TraceSpan subsolve(ctx.trace(), TraceCategory::kPhase,
                               "greedy_subsolve");
      return GreedySetCover(sample.projections(),
                            ArenaAllocator<SetId>::Table());
    }();
    sample.ReleaseSpace();
    run.CommitAndSubtract(sample, local.chosen);
  }

  if (config_.ensure_feasible && !uncovered.None()) {
    ctx.CoverResiduePass(uncovered, [&](SetId id) { run.Take(id); });
  }
  return run.Finish();
}

SetCoverRunResult DemaineSetCover::Run(SetStream& stream,
                                       const RunContext& context) {
  Rng rng(config_.seed);
  const GuessGrid grid{2.0, static_cast<double>(config_.alpha),
                       config_.known_opt};
  return RunGuesses(stream, context, grid, [&](std::size_t guess) {
    return RunWithGuess(stream, guess, rng, context);
  });
}

}  // namespace streamsc
