#include "offline/exact_set_cover.h"

#include <algorithm>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>

#include "offline/greedy.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/math.h"

namespace streamsc {
namespace {

/// 128-bit content key for a bitset (two independent multiplicative
/// hashes), used by the transposition table. Collision probability over
/// millions of entries is negligible (~2^-90).
struct StateKey {
  std::uint64_t h1;
  std::uint64_t h2;
  bool operator==(const StateKey& o) const { return h1 == o.h1 && h2 == o.h2; }
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& k) const {
    return static_cast<std::size_t>(k.h1 ^ (k.h2 * 0x9e3779b97f4a7c15ull));
  }
};

// Hashes each nonzero word together with its index, so the cost is one
// step per touched word rather than one per uncovered element.
StateKey KeyOf(const DynamicBitset& bs) {
  std::uint64_t h1 = 0x243f6a8885a308d3ull;
  std::uint64_t h2 = 0x13198a2e03707344ull;
  for (std::size_t w = 0; w < bs.WordCount(); ++w) {
    const std::uint64_t word = bs.GetWord(w);
    if (word == 0) continue;
    h1 = (h1 ^ (word + w * 0x9e3779b97f4a7c15ull)) * 0xff51afd7ed558ccdull;
    h1 ^= h1 >> 32;
    h2 = (h2 + (word ^ (w << 32 | w))) * 0xc4ceb9fe1a85ec53ull + (h2 >> 29);
  }
  return {h1, h2};
}

/// Shared search state for the branch-and-bound recursion. Call-scoped
/// (outlives the interleaved LIFO rewinds of the scratch arena), so its
/// containers live on the thread's table arena — the solve entry point
/// brackets it with a checkpoint.
struct SearchState {
  const SetSystem* system = nullptr;
  ExactSetCoverOptions options;
  ArenaVector<SetId> current{ArenaAllocator<SetId>::Table()};
  ArenaVector<SetId> best{ArenaAllocator<SetId>::Table()};
  bool best_feasible = false;
  std::uint64_t nodes = 0;
  bool budget_exhausted = false;
  // Transposition table: uncovered-state -> smallest depth at which it was
  // fully explored. Re-visiting at the same or greater depth is redundant.
  using SeenAlloc = ArenaAllocator<std::pair<const StateKey, std::size_t>>;
  std::unordered_map<StateKey, std::size_t, StateKeyHash,
                     std::equal_to<StateKey>, SeenAlloc>
      seen{SeenAlloc::Table()};
};

// Returns an uncovered element with (approximately) the fewest covering
// sets. Scans at most 64 uncovered elements: min-degree is a branching
// heuristic, so an approximate argmin is fine and keeps node cost bounded.
// \p gains holds every set's gain against \p uncovered; a set with gain
// 0 contains no uncovered element, so it is skipped without a lookup.
ElementId PickBranchElement(const SearchState& state,
                            const DynamicBitset& uncovered,
                            std::span<const Count> gains,
                            std::size_t& degree_out) {
  ElementId best_e = kInvalidElementId;
  std::size_t best_degree = ~std::size_t{0};
  std::size_t scanned = 0;
  for (ElementId e = uncovered.FindFirst();
       e != kInvalidElementId && scanned < 64 && best_degree > 1;
       e = uncovered.FindNext(e), ++scanned) {
    std::size_t degree = 0;
    for (SetId i = 0; i < state.system->num_sets(); ++i) {
      if (gains[i] != 0 && state.system->set(i).Test(e)) {
        if (++degree >= best_degree) break;
      }
    }
    if (degree < best_degree) {
      best_degree = degree;
      best_e = e;
    }
  }
  degree_out = (best_e == kInvalidElementId) ? 0 : best_degree;
  return best_e;
}

void Search(SearchState& state, const DynamicBitset& uncovered) {
  if (state.budget_exhausted) return;
  if (++state.nodes > state.options.max_nodes) {
    state.budget_exhausted = true;
    return;
  }
  if (uncovered.None()) {
    if (!state.best_feasible || state.current.size() < state.best.size()) {
      state.best = state.current;
      state.best_feasible = true;
    }
    return;
  }

  const std::size_t budget =
      std::min(state.options.size_limit,
               state.best_feasible ? state.best.size() - 1 : ~std::size_t{0});
  if (state.current.size() >= budget) return;

  // Transposition pruning: if this uncovered state was already explored at
  // a depth <= ours, nothing new can be found here.
  const StateKey key = KeyOf(uncovered);
  auto [it, inserted] = state.seen.try_emplace(key, state.current.size());
  if (!inserted) {
    if (it->second <= state.current.size()) return;
    it->second = state.current.size();
  }

  // Per-node temporaries stage LIFO in the scratch arena: the gain array
  // and candidate list under a node checkpoint, each branch bitset under
  // a per-child checkpoint so sibling subtrees reuse the same bytes.
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint node_checkpoint(scratch);

  // Every set's gain against the *current* uncovered region, computed
  // once: the counting lower bound, the branch-element scan and the
  // candidate order all read it.
  const std::size_t num_sets = state.system->num_sets();
  ArenaVector<Count> gains(num_sets, Count{0}, ArenaAllocator<Count>(&scratch));
  Count max_gain = 0;
  for (SetId i = 0; i < num_sets; ++i) {
    gains[i] = state.system->set(i).CountAnd(uncovered);
    max_gain = std::max(max_gain, gains[i]);
  }
  if (max_gain == 0) return;  // infeasible branch
  const Count remaining = uncovered.CountSet();
  const std::size_t lb =
      static_cast<std::size_t>(CeilDiv(remaining, max_gain));
  if (state.current.size() + lb > budget) return;

  std::size_t degree = 0;
  const ElementId e = PickBranchElement(state, uncovered, gains, degree);
  if (degree == 0) return;  // e is coverable by no set: infeasible branch

  // Candidate sets containing e, largest marginal gain first.
  using Candidate = std::pair<Count, SetId>;
  ArenaVector<Candidate> candidates{ArenaAllocator<Candidate>(&scratch)};
  candidates.reserve(degree);
  for (SetId i = 0; i < num_sets; ++i) {
    if (gains[i] != 0 && state.system->set(i).Test(e)) {
      candidates.emplace_back(gains[i], i);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& x, const auto& y) { return x.first > y.first; });

  for (const auto& [gain, id] : candidates) {
    (void)gain;
    if (state.budget_exhausted) return;
    state.current.push_back(id);
    {
      const ArenaCheckpoint child_checkpoint(scratch);
      DynamicBitset next(uncovered, DynamicBitset::Allocator(&scratch));
      state.system->set(id).AndNotInto(next);
      Search(state, next);
    }
    state.current.pop_back();
  }
}

}  // namespace

ExactSetCoverResult SolveExactSetCover(const SetSystem& system,
                                       const DynamicBitset& universe,
                                       const ExactSetCoverOptions& options,
                                       ArenaAllocator<SetId> result_alloc) {
  STREAMSC_DCHECK(universe.size() == system.universe_size());
  ExactSetCoverResult result;
  result.solution = Solution(result_alloc);
  if (universe.None()) {
    result.feasible = true;
    result.proven_optimal = true;
    return result;
  }

  // Bracket the call-scoped search state (incumbent vectors, transposition
  // table) on the table arena. The checkpoint outlives the inner scope, so
  // the containers are destroyed (deallocate is a no-op) before the bytes
  // are reclaimed; the result was copied into result_alloc by then.
  const ArenaCheckpoint table_checkpoint(ThreadTableArena());
  {
    SearchState state;
    state.system = &system;
    state.options = options;

    // Greedy warm start gives the incumbent upper bound (if feasible and
    // within the requested size limit). Greedy max coverage with k =
    // size_limit makes greedy set cover's picks but stops after
    // size_limit of them: a longer greedy cover would fail the size check
    // below anyway. The warm-start solution is call-scoped too, so it
    // lands on the table arena alongside the state.
    const Solution greedy =
        GreedyMaxCoverage(system, universe, options.size_limit,
                          ArenaAllocator<SetId>::Table());
    {
      MonotonicArena& scratch = ThreadScratchArena();
      const ArenaCheckpoint checkpoint(scratch);
      if (universe.IsSubsetOf(system.UnionOf(
              greedy.chosen, DynamicBitset::Allocator(&scratch))) &&
          greedy.chosen.size() <= options.size_limit) {
        state.best.assign(greedy.chosen.begin(), greedy.chosen.end());
        state.best_feasible = true;
      }
    }

    Search(state, universe);

    result.solution.chosen.assign(state.best.begin(), state.best.end());
    result.feasible = state.best_feasible;
    result.complete = !state.budget_exhausted;
    result.proven_optimal = state.best_feasible && result.complete;
    result.nodes = state.nodes;
  }
  return result;
}

ExactSetCoverResult SolveExactSetCover(const SetSystem& system,
                                       const ExactSetCoverOptions& options,
                                       ArenaAllocator<SetId> result_alloc) {
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint checkpoint(scratch);
  return SolveExactSetCover(
      system,
      DynamicBitset::Full(system.universe_size(),
                          DynamicBitset::Allocator(&scratch)),
      options, result_alloc);
}

}  // namespace streamsc
