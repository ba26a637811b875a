#include "core/demaine_set_cover.h"

#include <algorithm>
#include <cmath>

#include "core/sampling.h"
#include "obs/trace.h"
#include "offline/greedy.h"
#include "stream/engine_context.h"
#include "util/check.h"
#include "util/math.h"
#include "util/space_meter.h"
#include "util/stopwatch.h"

namespace streamsc {
namespace {

// Interned metering categories (hot path: array index per Charge).
const SpaceCategory kUncoveredCat("uncovered");
const SpaceCategory kSolutionCat("solution");
const SpaceCategory kProjectionsCat("projections");

}  // namespace

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
  Stopwatch timer;
  const std::size_t n = stream.universe_size();
  const std::size_t m = stream.num_sets();
  const std::uint64_t passes_before = stream.passes();

  SetCoverRunResult result;
  SpaceMeter meter;
  EngineContext ctx(stream, context);

  // Run-lived state on the run arena; phase-lived structures bracket the
  // thread's table arena per phase (see the Assadi implementation for the
  // full rationale).
  DynamicBitset uncovered =
      DynamicBitset::Full(n, ctx.alloc<DynamicBitset::Word>());
  meter.Charge(uncovered.ByteSize(), kUncoveredCat);
  Solution solution(ctx.alloc<SetId>());

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
    const auto table = ArenaAllocator<SetId>::Table();
    const DynamicBitset sampled =
        SampleElements(uncovered, rate, rng, DynamicBitset::Allocator(table));
    if (sampled.None()) continue;
    SubUniverse sub(sampled, table);

    SetSystem projections(sub.size(), SetSystem::kDefaultSparsityThreshold,
                          &ThreadTableArena());
    ArenaVector<SetId> projection_ids(table);
    projection_ids.reserve(m);
    ctx.TransformPass<ProjectedSet>(
        [&](const StreamItem& it) {
          return sub.ProjectAdaptive(it.set,
                                     ArenaAllocator<ElementId>::Scratch());
        },
        [&](const StreamItem& it, ProjectedSet proj) {
          const SetId pid = StoreProjection(projections, std::move(proj));
          meter.Charge(projections.SetBytes(pid) + sizeof(SetId),
                       kProjectionsCat);
          projection_ids.push_back(it.id);
        });

    // DIMV'14 covers the sample with greedy — the multiplicative loss per
    // phase is where the 4^{1/delta} approximation factor comes from.
    const std::int64_t subsolve_start =
        ctx.trace() != nullptr ? TraceRecorder::NowNs() : 0;
    const Solution local = GreedySetCover(projections, table);
    if (ctx.trace() != nullptr) {
      ctx.trace()->Emit(TraceCategory::kPhase, "greedy_subsolve",
                        subsolve_start,
                        TraceRecorder::NowNs() - subsolve_start);
    }
    meter.Release(meter.CategoryCurrent(kProjectionsCat), kProjectionsCat);

    ArenaVector<SetId> chosen_global(table);
    chosen_global.reserve(local.size());
    for (const SetId id : local.chosen) {
      chosen_global.push_back(projection_ids[id]);
      solution.chosen.push_back(projection_ids[id]);
    }
    meter.SetCategory(solution.size() * sizeof(SetId), kSolutionCat);
    ctx.RecordTakes(chosen_global.size(), 0);

    ctx.SubtractPass(chosen_global, uncovered);
  }

  if (config_.ensure_feasible && !uncovered.None()) {
    ctx.CoverResiduePass(uncovered, [&](SetId id) {
      solution.chosen.push_back(id);
    });
    meter.SetCategory(solution.size() * sizeof(SetId), kSolutionCat);
  }

  result.solution = std::move(solution);
  result.feasible = uncovered.None();
  result.stats.passes = stream.passes() - passes_before;
  result.stats.peak_space_bytes = meter.peak();
  result.stats.wall_seconds = timer.ElapsedSeconds();
  result.stats.counters = ctx.counters();
  return result;
}

SetCoverRunResult DemaineSetCover::Run(SetStream& stream,
                                       const RunContext& context) {
  Stopwatch timer;
  Rng rng(config_.seed);
  const std::uint64_t passes_before = stream.passes();
  SetCoverRunResult out;
  Bytes peak = 0;

  auto try_guess = [&](std::size_t guess) {
    TraceSpan guess_span(context.trace, TraceCategory::kPhase, "guess");
    guess_span.AddArg("opt_guess", guess);
    SetCoverRunResult r = RunWithGuess(stream, guess, rng, context);
    peak = std::max(peak, r.stats.peak_space_bytes);
    out.stats.counters.MergeFrom(r.stats.counters);
    const double budget = static_cast<double>(config_.alpha) *
                          static_cast<double>(guess);
    if (r.feasible && static_cast<double>(r.solution.size()) <= budget) {
      if (out.solution.empty() || r.solution.size() < out.solution.size()) {
        out.solution = std::move(r.solution);
      }
      out.feasible = true;
      return true;
    }
    return false;
  };

  if (config_.known_opt > 0) {
    try_guess(config_.known_opt);
  } else {
    std::size_t prev = 0;
    for (double g = 1.0;
         static_cast<std::size_t>(g) <= stream.universe_size(); g *= 2.0) {
      const std::size_t guess = static_cast<std::size_t>(std::ceil(g));
      if (guess == prev) continue;
      prev = guess;
      if (try_guess(guess)) break;
    }
  }

  out.stats.passes = stream.passes() - passes_before;
  out.stats.peak_space_bytes = peak;
  out.stats.wall_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace streamsc
