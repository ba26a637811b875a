#ifndef STREAMSC_CORE_COVER_RUN_H_
#define STREAMSC_CORE_COVER_RUN_H_

#include <cstdint>
#include <span>

#include "core/sampling.h"
#include "instance/set_system.h"
#include "stream/engine_context.h"
#include "stream/stream_algorithm.h"
#include "util/arena.h"
#include "util/bitset.h"
#include "util/function_ref.h"
#include "util/space_meter.h"
#include "util/stopwatch.h"

/// \file cover_run.h
/// The skeleton the streaming solvers in core/ share. Algorithm 1 of the
/// paper and its two baselines (Har-Peled et al., Demaine et al.) run the
/// same shape: geometric õpt guesses, each a few rounds of sample →
/// store projections (one pass) → solve offline → subtract (one pass).
/// They differ only in the pruning rule, the sampling rate and the
/// sub-solver, and those stay in each solver's own file. The pieces here
/// are the rest:
///
///   StreamRun        the run's engine context, space meter, wall clock
///                    and pass mark, and the one fill of StreamRunStats;
///   CoverRun         a StreamRun plus the charged uncovered bitset and
///                    the solution — the state of every set-cover run;
///   RunGuesses       the geometric õpt guess driver;
///   ProjectedSample  one pass storing every set's projection onto an
///                    element sample; CoverRun::CommitAndSubtract lifts
///                    the sub-solver's picks back and subtracts them;
///   ExactSubsolve    the exact sub-solve with its greedy fallback.

namespace streamsc {

class ProjectedSample;

/// The bookkeeping every streaming run does at its start and end: binds
/// the EngineContext for the run, owns the SpaceMeter, and marks the wall
/// clock and the stream's pass count so Stats() can report the run.
class StreamRun {
 public:
  StreamRun(SetStream& stream, const RunContext& context);

  StreamRun(const StreamRun&) = delete;
  StreamRun& operator=(const StreamRun&) = delete;

  EngineContext& ctx() { return ctx_; }
  SpaceMeter& meter() { return meter_; }

  /// The run so far: passes since construction, the meter's peak, the
  /// wall time since construction and the context's counters.
  StreamRunStats Stats();

 private:
  Stopwatch timer_;
  std::uint64_t passes_before_;
  SpaceMeter meter_;
  EngineContext ctx_;
};

/// A set-cover run: a StreamRun whose retained state is the uncovered
/// elements U (a full bitset over the universe, charged up front) and the
/// solution ids (charged as they grow). Both live on the run arena.
class CoverRun : public StreamRun {
 public:
  CoverRun(SetStream& stream, const RunContext& context);

  DynamicBitset& uncovered() { return uncovered_; }
  const Solution& solution() const { return solution_; }

  /// Appends \p id to the solution. Counts no take: the passes that call
  /// it (ThresholdPass, CoverResiduePass) count their own, and the gain
  /// scans record theirs with the gain they saw.
  void Take(SetId id);

  /// Appends \p ids to the solution and counts them as takes of no known
  /// gain — for picks the context cannot see (sub-solver picks, witness
  /// closures); the subtract pass that follows counts their elements.
  void TakeAll(std::span<const SetId> ids);

  /// One sampling round's commit: appends the stream ids of \p sample's
  /// local picks \p chosen_local (TakeAll), then runs one pass
  /// subtracting those sets' *full* contents from U — the sample stores
  /// only projections, so recovering the chosen sets needs this pass.
  void CommitAndSubtract(const ProjectedSample& sample,
                         std::span<const SetId> chosen_local);

  /// Ends the run: the solution, feasible iff \p ok and U is empty, and
  /// the run's Stats().
  SetCoverRunResult Finish(bool ok = true);

 private:
  DynamicBitset uncovered_;
  Solution solution_;
};

/// The õpt grid of a guess-driven solver.
struct GuessGrid {
  double growth = 2.0;         ///< Ratio between guesses (> 1).
  double budget_factor = 1.0;  ///< A guess õpt succeeds with a feasible
                               ///< cover of ≤ budget_factor·õpt sets.
  std::size_t known_opt = 0;   ///< If > 0, run this one guess only.
};

/// The geometric guess driver. Runs \p run_guess on õpt = known_opt, or
/// else on the distinct values ceil(growth^j), j = 0, 1, ..., up to
/// max(n, 1), smallest first, and stops at the first guess whose cover is
/// feasible within budget (larger guesses only loosen the budget). The
/// paper runs its guesses in parallel within shared passes; running them
/// one after another keeps each guess's space bound and reports the
/// passes actually made. Each guess runs inside a "guess" span carrying
/// its õpt. Returns the successful cover (empty and infeasible when no
/// guess succeeded) with the passes and counters of every guess run, the
/// largest per-guess peak space and the driver's wall time.
/// CHECK-fails unless growth > 1, which would freeze the grid.
SetCoverRunResult RunGuesses(
    SetStream& stream, const RunContext& context, const GuessGrid& grid,
    FunctionRef<SetCoverRunResult(std::size_t)> run_guess);

/// The projections S'_i = S_i ∩ U_smpl of every streamed set onto one
/// element sample, stored in one pass: the space-dominant structure of
/// the sampling solvers (m projections of |U_smpl| bits each when dense,
/// fewer when the hybrid store sparsifies them). Each stored projection
/// is charged to the run's meter under "projections". Worker threads
/// project into their own scratch; the in-order commit re-homes each
/// projection into the arena-backed system.
class ProjectedSample {
 public:
  /// Runs the projection pass over \p run's stream for the sample
  /// \p sampled (a bitset over the full universe). The re-indexing, the
  /// projections and the id map are allocated from \p arena (null = the
  /// heap): the guess-lived sample of the set-cover solvers brackets the
  /// thread's table arena, a run-lived one uses the run arena.
  ProjectedSample(StreamRun& run, const DynamicBitset& sampled,
                  MonotonicArena* arena);

  ProjectedSample(const ProjectedSample&) = delete;
  ProjectedSample& operator=(const ProjectedSample&) = delete;

  /// The sampled sub-universe and its re-indexing.
  const SubUniverse& sub() const { return sub_; }

  /// The stored projections, numbered in stream order.
  const SetSystem& projections() const { return projections_; }

  /// The stream id of stored projection \p local.
  SetId StreamId(SetId local) const { return ids_[local]; }

  /// Releases the projections' charge: they are dropped once the
  /// sub-instance is solved.
  void ReleaseSpace();

 private:
  SpaceMeter& meter_;
  SubUniverse sub_;
  SetSystem projections_;
  ArenaVector<SetId> ids_;
};

/// Covers all of \p sample with greedy. Writes the local picks to
/// \p chosen and returns true when the cover is feasible and uses at most
/// \p size_limit sets; returns false otherwise.
bool GreedySubsolve(const ProjectedSample& sample, std::size_t size_limit,
                    ArenaVector<SetId>& chosen);

/// Covers all of \p sample *optimally* with at most \p size_limit sets
/// (the model allows unbounded computation; the branch and bound keeps a
/// budget of \p node_budget nodes). When the budget runs out before the
/// search completes, degrades to GreedySubsolve under the same limit.
/// Returns false when the search proved no such cover exists (õpt < opt)
/// or the fallback's cover is too large: the guess fails. The local picks
/// land in \p chosen, whose allocator also backs the solver's result (the
/// solver brackets the table arena internally, so it must live
/// elsewhere).
bool ExactSubsolve(const ProjectedSample& sample, std::size_t size_limit,
                   std::uint64_t node_budget, ArenaVector<SetId>& chosen);

}  // namespace streamsc

#endif  // STREAMSC_CORE_COVER_RUN_H_
