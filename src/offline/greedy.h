#ifndef STREAMSC_OFFLINE_GREEDY_H_
#define STREAMSC_OFFLINE_GREEDY_H_

#include "instance/set_system.h"
#include "util/arena.h"

/// \file greedy.h
/// Classic offline greedy algorithms: (ln n)-approximate set cover
/// [Johnson'74, Slavik'97] and (1-1/e)-approximate maximum coverage.
/// These are the unbounded-computation reference points used as sub-routine
/// fallbacks and as quality baselines in the benches.
///
/// Both evaluate gains lazily: a set's last counted gain bounds its
/// current one, so a set is re-counted only when that bound is the
/// largest left. The picks are exactly those of rescanning every set
/// before each pick.
///
/// Arena-aware: \p alloc backs the returned Solution (heap by default);
/// the internal uncovered-state copy stages in the calling thread's
/// scratch arena under a checkpoint. Because of that checkpoint, \p alloc
/// must NOT be the scratch binding (the rewind would free the result) —
/// pass the table binding, a pinned run arena, or the heap default.

namespace streamsc {

/// Greedy set cover restricted to covering \p universe (a subset of the
/// system's universe): repeatedly takes the set with the largest number of
/// still-uncovered elements of \p universe. Returns the chosen ids in pick
/// order. If \p universe is not coverable by the system, covers as much as
/// possible and returns what it picked (callers can check feasibility).
Solution GreedySetCover(const SetSystem& system, const DynamicBitset& universe,
                        ArenaAllocator<SetId> alloc = {});

/// Greedy set cover of the full universe.
Solution GreedySetCover(const SetSystem& system,
                        ArenaAllocator<SetId> alloc = {});

/// Greedy maximum coverage: picks \p k sets maximizing marginal coverage
/// of \p universe. Ties broken by lower id. Returns fewer than k ids only
/// if coverage is complete first.
Solution GreedyMaxCoverage(const SetSystem& system,
                           const DynamicBitset& universe, std::size_t k,
                           ArenaAllocator<SetId> alloc = {});

/// Greedy maximum coverage over the full universe.
Solution GreedyMaxCoverage(const SetSystem& system, std::size_t k,
                           ArenaAllocator<SetId> alloc = {});

}  // namespace streamsc

#endif  // STREAMSC_OFFLINE_GREEDY_H_
