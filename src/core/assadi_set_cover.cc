#include "core/assadi_set_cover.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/cover_run.h"
#include "core/sampling.h"
#include "obs/trace.h"
#include "stream/engine_context.h"
#include "util/check.h"
#include "util/math.h"

namespace streamsc {

AssadiSetCover::AssadiSetCover(AssadiConfig config) : config_(config) {
  STREAMSC_CHECK(config_.alpha >= 1, "AssadiConfig: alpha must be >= 1");
  STREAMSC_CHECK(1.0 + config_.epsilon > 1.0,
                 "AssadiConfig: epsilon must be > 0 with 1 + epsilon > 1 "
                 "(a smaller epsilon freezes the (1+eps)^j guess grid)");
}

std::string AssadiSetCover::name() const {
  return "assadi(alpha=" + std::to_string(config_.alpha) +
         ",eps=" + std::to_string(config_.epsilon) + ")";
}

double AssadiSetCover::BudgetFactor() const {
  return static_cast<double>(config_.alpha) + config_.epsilon;
}

SetCoverRunResult AssadiSetCover::RunGuess(
    SetStream& stream, std::size_t opt_guess, Rng& rng,
    const RunContext& context,
    std::uint64_t* residual_after_iterations) const {
  const std::size_t n = stream.universe_size();
  const std::size_t m = stream.num_sets();
  const double alpha = static_cast<double>(config_.alpha);

  // All passes run through the run's context: sharded when the run binds
  // an engine and the stream's item views survive a whole pass,
  // sequential otherwise — bit-identical either way. Run-lived state (U,
  // the solution ids) comes from the run arena; guess-lived structures
  // bracket the thread's table arena per iteration below.
  CoverRun run(stream, context);
  EngineContext& ctx = run.ctx();
  DynamicBitset& uncovered = run.uncovered();
  const auto take = [&](SetId id) { run.Take(id); };

  // --- Pass 0: one-shot pruning. -----------------------------------------
  // Any set still covering >= n/(ε·õpt) uncovered elements is taken. At
  // most ε·õpt sets can be taken (each removes >= n/(ε·õpt) elements).
  const double prune_threshold =
      static_cast<double>(n) /
      (config_.epsilon * static_cast<double>(std::max<std::size_t>(
                             opt_guess, 1)));
  {
    const TraceSpan phase(ctx.trace(), TraceCategory::kPhase, "prune");
    ctx.ThresholdPass(prune_threshold, uncovered, take);
  }

  // --- α iterations of sample / store / solve / subtract. ----------------
  const double rho = 1.0 / NthRoot(static_cast<double>(n), alpha);
  const double rate = ElementSamplingRate(n, m, std::max<std::size_t>(
                                                    opt_guess, 1),
                                          rho, config_.sampling_boost);
  bool guess_ok = true;
  for (std::size_t iter = 0; iter < config_.alpha && guess_ok; ++iter) {
    if (uncovered.None()) break;

    // Everything this iteration builds — the sample, the projections, the
    // sub-solution — dies with it: bracket the thread's table arena. (Not
    // the scratch arena: TransformPass stages inside scratch and rewinds
    // it, which would free anything the commit callbacks had kept there.)
    const ArenaCheckpoint iteration_checkpoint(ThreadTableArena());
    TraceSpan iteration_span(ctx.trace(), TraceCategory::kPhase, "iteration");
    iteration_span.AddArg("iter", iter);

    // (a) Sample U_smpl from the still-uncovered universe.
    const DynamicBitset sampled = SampleElements(
        uncovered, rate, rng, DynamicBitset::Allocator::Table());
    if (sampled.None()) continue;  // nothing sampled; iteration is a no-op

    // (b) One pass storing the projections S'_i = S_i ∩ U_smpl.
    ProjectedSample sample(run, sampled, &ThreadTableArena());

    // (c) Solve the sub-instance *optimally* (the model allows unbounded
    // computation; ExactSubsolve keeps a node budget and degrades to
    // greedy if hit). The A2 ablation flips use_exact_subsolver off to
    // quantify what the paper's optimal sub-solve buys over plain greedy.
    ArenaVector<SetId> chosen_local(ctx.alloc<SetId>());
    {
      const TraceSpan subsolve(ctx.trace(), TraceCategory::kPhase,
                               "subsolve");
      guess_ok = config_.use_exact_subsolver
                     ? ExactSubsolve(sample, opt_guess,
                                     config_.exact_node_budget, chosen_local)
                     : GreedySubsolve(sample, SIZE_MAX, chosen_local);
    }
    sample.ReleaseSpace();
    if (!guess_ok) break;

    // (d) One pass subtracting the chosen sets' *full* contents from U.
    run.CommitAndSubtract(sample, chosen_local);
  }

  if (residual_after_iterations != nullptr) {
    *residual_after_iterations = uncovered.CountSet();
  }

  // --- Optional cleanup pass: guarantee feasibility. ----------------------
  // W.h.p. U is already empty (Lemma 3.11); at laptop scale a small
  // residue can survive, and the paper requires the returned solution to
  // always be feasible.
  if (guess_ok && config_.ensure_feasible && !uncovered.None()) {
    ctx.CoverResiduePass(uncovered, take);
  }
  return run.Finish(guess_ok);
}

AssadiGuessResult AssadiSetCover::RunWithGuess(SetStream& stream,
                                               std::size_t opt_guess,
                                               Rng& rng,
                                               const RunContext& context) const {
  AssadiGuessResult result;
  SetCoverRunResult r = RunGuess(stream, opt_guess, rng, context,
                                 &result.residual_after_iterations);
  result.within_budget =
      r.feasible && static_cast<double>(r.solution.size()) <=
                        BudgetFactor() * static_cast<double>(opt_guess);
  result.solution = std::move(r.solution);
  result.feasible = r.feasible;
  result.passes = r.stats.passes;
  result.peak_space_bytes = r.stats.peak_space_bytes;
  result.counters = std::move(r.stats.counters);
  return result;
}

SetCoverRunResult AssadiSetCover::Run(SetStream& stream,
                                      const RunContext& context) {
  Rng rng(config_.seed);
  const GuessGrid grid{1.0 + config_.epsilon, BudgetFactor(),
                       config_.known_opt};
  return RunGuesses(stream, context, grid, [&](std::size_t guess) {
    return RunGuess(stream, guess, rng, context, nullptr);
  });
}

}  // namespace streamsc
