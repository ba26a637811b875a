#include "core/cover_run.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "offline/exact_set_cover.h"
#include "offline/greedy.h"
#include "util/check.h"

namespace streamsc {
namespace {

// Interned metering categories (hot path: array index per Charge).
const SpaceCategory kUncoveredCat("uncovered");
const SpaceCategory kSolutionCat("solution");
const SpaceCategory kProjectionsCat("projections");

}  // namespace

StreamRun::StreamRun(SetStream& stream, const RunContext& context)
    : passes_before_(stream.passes()), ctx_(stream, context) {}

StreamRunStats StreamRun::Stats() {
  StreamRunStats stats;
  stats.passes = ctx_.stream().passes() - passes_before_;
  stats.peak_space_bytes = meter_.peak();
  stats.wall_seconds = timer_.ElapsedSeconds();
  stats.counters = ctx_.counters();
  return stats;
}

CoverRun::CoverRun(SetStream& stream, const RunContext& context)
    : StreamRun(stream, context),
      uncovered_(DynamicBitset::Full(stream.universe_size(),
                                     ctx().alloc<DynamicBitset::Word>())),
      solution_(ctx().alloc<SetId>()) {
  meter().Charge(uncovered_.ByteSize(), kUncoveredCat);
}

void CoverRun::Take(SetId id) {
  solution_.chosen.push_back(id);
  meter().SetCategory(solution_.size() * sizeof(SetId), kSolutionCat);
}

void CoverRun::TakeAll(std::span<const SetId> ids) {
  solution_.chosen.insert(solution_.chosen.end(), ids.begin(), ids.end());
  meter().SetCategory(solution_.size() * sizeof(SetId), kSolutionCat);
  ctx().RecordTakes(ids.size(), 0);
}

void CoverRun::CommitAndSubtract(const ProjectedSample& sample,
                                 std::span<const SetId> chosen_local) {
  ArenaVector<SetId> chosen(ArenaAllocator<SetId>::Table());
  chosen.reserve(chosen_local.size());
  for (const SetId local : chosen_local) {
    chosen.push_back(sample.StreamId(local));
  }
  TakeAll(chosen);
  ctx().SubtractPass(chosen, uncovered_);
}

SetCoverRunResult CoverRun::Finish(bool ok) {
  SetCoverRunResult result;
  result.solution = std::move(solution_);
  result.feasible = ok && uncovered_.None();
  result.stats = Stats();
  return result;
}

SetCoverRunResult RunGuesses(
    SetStream& stream, const RunContext& context, const GuessGrid& grid,
    FunctionRef<SetCoverRunResult(std::size_t)> run_guess) {
  STREAMSC_CHECK(grid.growth > 1.0,
                 "RunGuesses: the guess growth factor must exceed 1 (a "
                 "factor that rounds to 1 freezes the guess grid)");
  Stopwatch timer;
  const std::uint64_t passes_before = stream.passes();
  SetCoverRunResult out;
  Bytes peak = 0;

  const auto try_guess = [&](std::size_t guess) -> bool {
    TraceSpan guess_span(context.trace, TraceCategory::kPhase, "guess");
    guess_span.AddArg("opt_guess", guess);
    SetCoverRunResult r = run_guess(guess);
    peak = std::max(peak, r.stats.peak_space_bytes);
    out.stats.counters.MergeFrom(r.stats.counters);
    if (!r.feasible || static_cast<double>(r.solution.size()) >
                           grid.budget_factor * static_cast<double>(guess)) {
      return false;
    }
    out.solution = std::move(r.solution);
    out.feasible = true;
    return true;
  };

  if (grid.known_opt > 0) {
    try_guess(grid.known_opt);
  } else {
    // An empty universe still gets the guess õpt = 1, whose (empty)
    // cover succeeds.
    const std::size_t max_guess =
        std::max<std::size_t>(stream.universe_size(), 1);
    std::size_t prev = 0;
    for (double g = 1.0; static_cast<std::size_t>(g) <= max_guess;
         g *= grid.growth) {
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

ProjectedSample::ProjectedSample(StreamRun& run, const DynamicBitset& sampled,
                                 MonotonicArena* arena)
    : meter_(run.meter()),
      sub_(sampled, ArenaAllocator<ElementId>(arena)),
      projections_(sub_.size(), SetSystem::kDefaultSparsityThreshold, arena),
      ids_(ArenaAllocator<SetId>(arena)) {
  EngineContext& ctx = run.ctx();
  ids_.reserve(ctx.stream().num_sets());
  ctx.TransformPass<ProjectedSet>(
      [&](const StreamItem& it) {
        return sub_.ProjectAdaptive(it.set,
                                    ArenaAllocator<ElementId>::Scratch());
      },
      [&](const StreamItem& it, ProjectedSet proj) {
        const SetId pid = StoreProjection(projections_, std::move(proj));
        meter_.Charge(projections_.SetBytes(pid) + sizeof(SetId),
                      kProjectionsCat);
        ids_.push_back(it.id);
      });
}

void ProjectedSample::ReleaseSpace() {
  meter_.Release(meter_.CategoryCurrent(kProjectionsCat), kProjectionsCat);
}

bool GreedySubsolve(const ProjectedSample& sample, std::size_t size_limit,
                    ArenaVector<SetId>& chosen) {
  const Solution greedy =
      GreedySetCover(sample.projections(), ArenaAllocator<SetId>::Table());
  if (!sample.projections().IsFeasibleCover(greedy.chosen) ||
      greedy.chosen.size() > size_limit) {
    return false;
  }
  chosen.assign(greedy.chosen.begin(), greedy.chosen.end());
  return true;
}

bool ExactSubsolve(const ProjectedSample& sample, std::size_t size_limit,
                   std::uint64_t node_budget, ArenaVector<SetId>& chosen) {
  ExactSetCoverOptions options;
  options.max_nodes = node_budget;
  options.size_limit = size_limit;
  const ExactSetCoverResult result = SolveExactSetCover(
      sample.projections(),
      DynamicBitset::Full(sample.sub().size(),
                          DynamicBitset::Allocator::Table()),
      options, chosen.get_allocator());
  if (result.feasible) {
    chosen = result.solution.chosen;
    return true;
  }
  // A budget that ran out before the search completed proves nothing:
  // fall back to greedy. A completed search proved that no cover of at
  // most size_limit sets exists.
  return !result.complete && GreedySubsolve(sample, size_limit, chosen);
}

}  // namespace streamsc
