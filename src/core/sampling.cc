#include "core/sampling.h"

#include <algorithm>
#include <bit>
#include <span>

#include "util/check.h"

namespace streamsc {
namespace {

using Word = DynamicBitset::Word;
using internal::GatherBlock;

// Compacts the bits of x selected by mask into the low bits of the
// result (BMI2 pext semantics, portable: one iteration per mask bit that
// survives in x, so all-zero inputs cost one branch).
inline Word ExtractBitsPortable(Word x, Word mask) {
  Word selected = x & mask;
  Word out = 0;
  while (selected != 0) {
    const Word lowest = selected & (~selected + 1);
    // Rank of this bit among the mask bits = its output position.
    out |= Word{1} << std::popcount(mask & (lowest - 1));
    selected ^= lowest;
  }
  return out;
}

// The gather loop both tiers share; `extract` is the per-word pext. Always
// inlined, so each tier's loop is compiled with that tier's target flags.
template <typename Extract>
[[gnu::always_inline]] inline void GatherLoop(
    std::span<const GatherBlock> plan, const Word* words, DynamicBitset& out,
    Extract extract) {
  for (const GatherBlock& block : plan) {
    const Word bits = extract(words[block.src_word], block.mask);
    if (bits == 0) continue;
    const std::size_t word = block.dst_bit / DynamicBitset::kBitsPerWord;
    const std::size_t offset = block.dst_bit % DynamicBitset::kBitsPerWord;
    out.OrWord(word, bits << offset);
    // Bits shifted past the word's top spill into the next output word,
    // which then exists: they are sampled positions below out.size().
    if (offset != 0) {
      const Word spill = bits >> (DynamicBitset::kBitsPerWord - offset);
      if (spill != 0) out.OrWord(word + 1, spill);
    }
  }
}

#if defined(__x86_64__)
__attribute__((target("bmi2"))) inline Word ExtractBitsPext(Word x,
                                                            Word mask) {
  return __builtin_ia32_pext_di(x, mask);
}

__attribute__((target("bmi2"))) void GatherWithPext(
    std::span<const GatherBlock> plan, const Word* words,
    DynamicBitset& out) {
  GatherLoop(plan, words, out, ExtractBitsPext);
}
#endif

// The gather loop of this process, picked once on first use.
internal::GatherFn SelectedGather() {
  static const internal::GatherFn gather = [] {
    const internal::GatherFn pext = internal::PextGatherIfSupported();
    return pext != nullptr ? pext : &internal::GatherPortable;
  }();
  return gather;
}

}  // namespace

namespace internal {

void GatherPortable(std::span<const GatherBlock> plan, const Word* words,
                    DynamicBitset& out) {
  GatherLoop(plan, words, out, ExtractBitsPortable);
}

GatherFn PextGatherIfSupported() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("bmi2")) return &GatherWithPext;
#endif
  return nullptr;
}

}  // namespace internal

SubUniverse::SubUniverse(const DynamicBitset& sampled,
                         ArenaAllocator<ElementId> alloc)
    : full_size_(sampled.size()),
      sample_to_full_(alloc),
      sampled_words_(ArenaAllocator<Word>(alloc)),
      word_rank_(ArenaAllocator<std::uint32_t>(alloc)),
      gather_(ArenaAllocator<GatherBlock>(alloc)) {
  sample_to_full_.reserve(static_cast<std::size_t>(sampled.CountSet()));
  sampled.ForEach([&](ElementId e) { sample_to_full_.push_back(e); });
  // Gather plan + rank structure: sampled elements are re-indexed in
  // increasing full-id order, so the sampled bits of each source word
  // land at consecutive output positions starting at the running sample
  // count (which is exactly that word's rank).
  sampled_words_.reserve(sampled.WordCount());
  word_rank_.reserve(sampled.WordCount());
  std::uint32_t dst_bit = 0;
  for (std::size_t w = 0; w < sampled.WordCount(); ++w) {
    const Word mask = sampled.GetWord(w);
    sampled_words_.push_back(mask);
    word_rank_.push_back(dst_bit);
    if (mask == 0) continue;
    gather_.push_back({static_cast<std::uint32_t>(w), dst_bit, mask});
    dst_bit += static_cast<std::uint32_t>(std::popcount(mask));
  }
}

template <typename Emit>
void SubUniverse::ForEachSampled(SparseSpan ids, Emit&& emit) const {
  // O(k) rank computations — independent of both n and the sample size.
  // Source ids are sorted, and full -> sample rank is monotone, so the
  // emitted sample ids are sorted too.
  ids.ForEach([&](ElementId e) {
    const std::size_t w = e / DynamicBitset::kBitsPerWord;
    const std::size_t b = e % DynamicBitset::kBitsPerWord;
    const Word mask = sampled_words_[w];
    if ((mask >> b) & 1) {
      emit(word_rank_[w] + static_cast<std::uint32_t>(
                               std::popcount(mask & ((Word{1} << b) - 1))));
    }
  });
}

DynamicBitset SubUniverse::Project(SetView full_set,
                                   DynamicBitset::Allocator alloc) const {
  STREAMSC_DCHECK(full_set.size() == full_size_);
  DynamicBitset out(sample_to_full_.size(), alloc);
  if (const SparseSpan* ids = full_set.sparse_span()) {
    ForEachSampled(*ids, [&](std::uint32_t s) { out.Set(s); });
    return out;
  }
  SelectedGather()(gather_, full_set.dense_span()->WordData(), out);
  return out;
}

ProjectedSet SubUniverse::ProjectAdaptive(SetView full_set,
                                          ArenaAllocator<ElementId> alloc)
    const {
  const SparseSpan* ids = full_set.sparse_span();
  if (ids == nullptr) return Project(full_set, DynamicBitset::Allocator(alloc));
  ArenaVector<ElementId> projected(alloc);
  projected.reserve(static_cast<std::size_t>(ids->CountSet()));
  ForEachSampled(*ids, [&](std::uint32_t s) { projected.push_back(s); });
  // ForEachSampled emits strictly increasing in-range sample ids, so the
  // per-item hot path can skip the release-mode re-validation.
  return SparseSet::FromSortedIndicesUnchecked(sample_to_full_.size(),
                                               std::move(projected));
}

SetId StoreProjection(SetSystem& system, ProjectedSet projection) {
  return std::visit(
      [&](auto&& set) { return system.AddSet(std::move(set)); },
      std::move(projection));
}

SetView ViewOf(const ProjectedSet& projection) {
  return std::visit([](const auto& set) { return SetView(set); }, projection);
}

DynamicBitset SubUniverse::Lift(const DynamicBitset& sample_set,
                                DynamicBitset::Allocator alloc) const {
  DynamicBitset out(full_size_, alloc);
  sample_set.ForEach([&](ElementId i) { out.Set(sample_to_full_[i]); });
  return out;
}

DynamicBitset SampleElements(const DynamicBitset& universe, double rate,
                             Rng& rng, DynamicBitset::Allocator alloc) {
  // Rng::BernoulliSubsample owns the documented [0,1]/NaN clamp.
  return rng.BernoulliSubsample(universe, rate, alloc);
}

}  // namespace streamsc
