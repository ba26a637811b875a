#include "offline/greedy.h"

#include <algorithm>
#include <limits>

#include "util/bitset.h"

namespace streamsc {
namespace {

// A set's gain as of its last evaluation. Gains only shrink as
// `uncovered` does, so a stale gain is an upper bound on the current one.
struct GainBound {
  Count gain;
  SetId id;
};

// Heap order: largest gain on top, ties to the lower id.
bool Below(const GainBound& a, const GainBound& b) {
  return a.gain != b.gain ? a.gain < b.gain : a.id > b.id;
}

// Greedy with lazy gain evaluation: makes at most \p max_picks picks,
// each the set with the largest number of still-uncovered elements of
// \p universe (ties to the lower id), and stops early once it is covered
// or no set helps. Picks exactly what a full rescan per pick would pick,
// but re-counts a set only when its stale gain reaches the top of the
// heap, so most sets are counted once per call rather than once per pick.
Solution LazyGreedy(const SetSystem& system, const DynamicBitset& universe,
                    std::size_t max_picks, ArenaAllocator<SetId> alloc) {
  Solution solution(alloc);
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint checkpoint(scratch);
  DynamicBitset uncovered(universe, DynamicBitset::Allocator(&scratch));
  ArenaVector<GainBound> heap{ArenaAllocator<GainBound>(&scratch)};
  heap.reserve(system.num_sets());
  for (SetId i = 0; i < system.num_sets(); ++i) {
    const Count gain = system.set(i).CountAnd(uncovered);
    if (gain > 0) heap.push_back({gain, i});
  }
  std::make_heap(heap.begin(), heap.end(), Below);
  while (solution.size() < max_picks && !heap.empty() && !uncovered.None()) {
    std::pop_heap(heap.begin(), heap.end(), Below);
    GainBound top = heap.back();
    heap.pop_back();
    top.gain = system.set(top.id).CountAnd(uncovered);
    if (top.gain == 0) continue;  // never helps again
    // `top` wins iff it still ranks above every other bound: no other set
    // can then beat it, nor tie it with a lower id.
    if (heap.empty() || Below(heap.front(), top)) {
      solution.chosen.push_back(top.id);
      system.set(top.id).AndNotInto(uncovered);
    } else {
      heap.push_back(top);
      std::push_heap(heap.begin(), heap.end(), Below);
    }
  }
  return solution;
}

}  // namespace

Solution GreedySetCover(const SetSystem& system, const DynamicBitset& universe,
                        ArenaAllocator<SetId> alloc) {
  return LazyGreedy(system, universe, std::numeric_limits<std::size_t>::max(),
                    alloc);
}

Solution GreedySetCover(const SetSystem& system, ArenaAllocator<SetId> alloc) {
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint checkpoint(scratch);
  return GreedySetCover(system,
                        DynamicBitset::Full(system.universe_size(),
                                            DynamicBitset::Allocator(&scratch)),
                        alloc);
}

Solution GreedyMaxCoverage(const SetSystem& system,
                           const DynamicBitset& universe, std::size_t k,
                           ArenaAllocator<SetId> alloc) {
  return LazyGreedy(system, universe, k, alloc);
}

Solution GreedyMaxCoverage(const SetSystem& system, std::size_t k,
                           ArenaAllocator<SetId> alloc) {
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint checkpoint(scratch);
  return GreedyMaxCoverage(
      system,
      DynamicBitset::Full(system.universe_size(),
                          DynamicBitset::Allocator(&scratch)),
      k, alloc);
}

}  // namespace streamsc
