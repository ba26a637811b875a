#ifndef STREAMSC_UTIL_SET_SPAN_H_
#define STREAMSC_UTIL_SET_SPAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/common.h"

/// \file set_span.h
/// The two set representations, as non-owning spans, and the only home of
/// the set read kernels:
///
/// * DenseSpan  — a run of packed 64-bit words (n bits): ops cost n/64
///   word operations.
/// * SparseSpan — a run of sorted, duplicate-free member ids: ops cost k
///   element operations.
///
/// Every set in the system is read through one of these. The owning
/// containers (DynamicBitset, SparseSet) hand out a span over their
/// storage via span(); the mmap'd payloads of an sscb1 or sscd1 file
/// (storage/mmap_set_stream.h, dynamic/delta_log.h) are spans directly
/// over the mapping. SetView (util/set_view.h) is a by-value copy of one
/// span plus a tag.
///
/// Binary read ops take the other operand as a DenseSpan (the residual
/// universe is always dense); the two write ops mutate an owning
/// DynamicBitset in place.
///
/// Invariants are the *storage side's* responsibility (they are what
/// DynamicBitset maintains and MmapSetStream validates at open): a
/// DenseSpan's tail bits beyond size() are zero, a SparseSpan's ids are
/// strictly increasing and < size().

namespace streamsc {

class DynamicBitset;

/// A borrowed dense set: ceil(size / 64) packed words. The span does not
/// own the words; they must outlive it.
class DenseSpan {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kBitsPerWord = 64;

  DenseSpan() = default;

  /// Views \p size bits backed by the words at \p words. Tail bits beyond
  /// \p size must be zero.
  DenseSpan(const Word* words, std::size_t size) : words_(words), size_(size) {
    STREAMSC_DCHECK(size == 0 || words != nullptr);
  }

  /// Universe size (number of addressable bits).
  std::size_t size() const { return size_; }

  /// Number of backing words.
  std::size_t WordCount() const {
    return (size_ + kBitsPerWord - 1) / kBitsPerWord;
  }

  /// The \p w-th backing word. Precondition: w < WordCount().
  Word GetWord(std::size_t w) const {
    STREAMSC_DCHECK(w < WordCount());
    return words_[w];
  }

  /// Contiguous backing words (read-only; WordCount() of them).
  const Word* WordData() const { return words_; }

  /// Membership test.
  bool Test(std::size_t i) const {
    STREAMSC_DCHECK(i < size_);
    return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1;
  }

  /// Number of elements in the set (popcount over the words).
  Count CountSet() const;

  /// True iff the set is empty.
  bool None() const;

  /// True iff the set equals the whole universe.
  bool All() const { return CountSet() == size_; }

  /// |*this & other|.
  Count CountAnd(DenseSpan other) const;

  /// |*this \ other|.
  Count CountAndNot(DenseSpan other) const;

  /// True iff the two sets share at least one element.
  bool Intersects(DenseSpan other) const;

  /// True iff *this ⊆ other.
  bool IsSubsetOf(DenseSpan other) const;

  /// target \= *this.
  void AndNotInto(DynamicBitset& target) const;

  /// target |= *this.
  void OrInto(DynamicBitset& target) const;

  /// All member elements in increasing order.
  std::vector<ElementId> ToIndices() const;

  /// Logical size in bytes of the viewed representation.
  Bytes ByteSize() const { return WordCount() * sizeof(Word); }

  /// "{0, 3, 7}" style debug rendering.
  std::string ToString() const;

  /// Calls \p fn(ElementId) for every member element in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const std::size_t words = WordCount();
    for (std::size_t w = 0; w < words; ++w) {
      Word word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(static_cast<ElementId>(w * kBitsPerWord + bit));
        word &= word - 1;
      }
    }
  }

 private:
  const Word* words_ = nullptr;
  std::size_t size_ = 0;
};

/// A borrowed sparse set: \p count sorted, duplicate-free member ids of a
/// universe of \p size elements. The span does not own the ids.
class SparseSpan {
 public:
  SparseSpan() = default;

  /// Views \p count member ids at \p elements over a universe of
  /// \p size elements. The ids must be strictly increasing and < size.
  SparseSpan(const ElementId* elements, std::size_t count, std::size_t size)
      : elements_(elements), count_(count), size_(size) {
    STREAMSC_DCHECK(count == 0 || elements != nullptr);
  }

  /// Universe size.
  std::size_t size() const { return size_; }

  /// The member ids, sorted ascending (CountSet() of them).
  const ElementId* elements() const { return elements_; }

  /// Number of elements in the set.
  Count CountSet() const { return count_; }

  /// True iff the set is empty.
  bool None() const { return count_ == 0; }

  /// True iff the set equals the whole universe.
  bool All() const { return count_ == size_; }

  /// Membership test (binary search, O(log k)).
  bool Test(std::size_t i) const;

  /// |*this & other| — O(k) membership probes into \p other.
  Count CountAnd(DenseSpan other) const;

  /// |*this \ other| — O(k) membership probes into \p other.
  Count CountAndNot(DenseSpan other) const;

  /// True iff the two sets share at least one element.
  bool Intersects(DenseSpan other) const;

  /// True iff *this ⊆ other.
  bool IsSubsetOf(DenseSpan other) const;

  /// target \= *this.
  void AndNotInto(DynamicBitset& target) const;

  /// target |= *this.
  void OrInto(DynamicBitset& target) const;

  /// All member elements in increasing order (a copy).
  std::vector<ElementId> ToIndices() const {
    return std::vector<ElementId>(elements_, elements_ + count_);
  }

  /// Logical size in bytes of the viewed representation.
  Bytes ByteSize() const { return count_ * sizeof(ElementId); }

  /// "{0, 3, 7}" style debug rendering.
  std::string ToString() const;

  /// Calls \p fn(ElementId) for every member element in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < count_; ++i) fn(elements_[i]);
  }

 private:
  const ElementId* elements_ = nullptr;
  std::size_t count_ = 0;
  std::size_t size_ = 0;
};

}  // namespace streamsc

#endif  // STREAMSC_UTIL_SET_SPAN_H_
