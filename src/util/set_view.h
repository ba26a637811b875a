#ifndef STREAMSC_UTIL_SET_VIEW_H_
#define STREAMSC_UTIL_SET_VIEW_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "util/bitset.h"
#include "util/check.h"
#include "util/common.h"
#include "util/set_span.h"
#include "util/sparse_set.h"

/// \file set_view.h
/// SetView: a non-owning, representation-agnostic view of one set.
///
/// A set is stored in one of two shapes — dense words or sorted sparse
/// ids — and SetView is the uniform read API the algorithms consume. It
/// holds, by value, either a DenseSpan or a SparseSpan (util/set_span.h)
/// plus a tag, and forwards every op to that span's kernel. A pruning scan
/// or projection pass therefore runs at the cost of the *representation*
/// (n/64 word ops dense, k element ops sparse) without the algorithm
/// knowing which it got. The owning containers convert implicitly:
/// DynamicBitset and SparseSet hand over span(), and the mmap-backed
/// stores hand over spans straight out of a mapped file.
///
/// Views are trivially copyable and at most 32 bytes — pass by value. A
/// view borrows its target's storage: it is invalidated by anything that
/// frees or moves that storage (e.g. SetSystem::AddSet growing its
/// payload vectors, or an MmapSetStream being destroyed).

namespace streamsc {

/// A borrowed view of a dense or sparse set. Cheap to copy.
class SetView {
 public:
  /// An invalid (detached) view; valid() is false.
  SetView() : dense_() {}

  /// Views a dense set. Implicit: any DynamicBitset is usable as a view.
  SetView(const DynamicBitset& dense) : SetView(dense.span()) {}  // NOLINT

  /// Views a sparse set.
  SetView(const SparseSet& sparse) : SetView(sparse.span()) {}  // NOLINT

  /// Views a dense word span (e.g. an mmap'd sscb1 payload).
  SetView(DenseSpan span) : dense_(span), rep_(Rep::kDense) {}  // NOLINT

  /// Views a sorted-id span (e.g. an mmap'd sscb1 payload).
  SetView(SparseSpan span) : sparse_(span), rep_(Rep::kSparse) {}  // NOLINT

 private:
  // Invokes \p fn with the held span. Defined before its uses so the
  // deduced return type is available to the dispatching methods below.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    STREAMSC_DCHECK(valid());
    if (rep_ == Rep::kSparse) return fn(sparse_);
    return fn(dense_);
  }

 public:
  /// True iff the view points at a set.
  bool valid() const { return rep_ != Rep::kNone; }

  /// The held dense span (a pointer into this view), or nullptr if the
  /// set is sparse.
  const DenseSpan* dense_span() const {
    return rep_ == Rep::kDense ? &dense_ : nullptr;
  }

  /// The held sparse span (a pointer into this view), or nullptr if the
  /// set is dense.
  const SparseSpan* sparse_span() const {
    return rep_ == Rep::kSparse ? &sparse_ : nullptr;
  }

  /// Universe size of the viewed set.
  std::size_t size() const {
    return Visit([](const auto& s) { return s.size(); });
  }

  /// Number of elements in the set.
  Count CountSet() const {
    return Visit([](const auto& s) { return s.CountSet(); });
  }

  /// True iff the set is empty.
  bool None() const {
    return Visit([](const auto& s) { return s.None(); });
  }

  /// True iff the set equals the whole universe.
  bool All() const {
    return Visit([](const auto& s) { return s.All(); });
  }

  /// Membership test.
  bool Test(std::size_t i) const {
    return Visit([i](const auto& s) { return s.Test(i); });
  }

  /// |*this & other|.
  Count CountAnd(const DynamicBitset& other) const {
    return Visit([&other](const auto& s) { return s.CountAnd(other.span()); });
  }

  /// |*this \ other|.
  Count CountAndNot(const DynamicBitset& other) const {
    return Visit(
        [&other](const auto& s) { return s.CountAndNot(other.span()); });
  }

  /// True iff the two sets share at least one element.
  bool Intersects(const DynamicBitset& other) const {
    return Visit(
        [&other](const auto& s) { return s.Intersects(other.span()); });
  }

  /// True iff *this ⊆ other.
  bool IsSubsetOf(const DynamicBitset& other) const {
    return Visit(
        [&other](const auto& s) { return s.IsSubsetOf(other.span()); });
  }

  /// target \= *this (clears this set's members in \p target).
  void AndNotInto(DynamicBitset& target) const {
    Visit([&target](const auto& s) { s.AndNotInto(target); });
  }

  /// target |= *this.
  void OrInto(DynamicBitset& target) const {
    Visit([&target](const auto& s) { s.OrInto(target); });
  }

  /// Materializes a dense copy into \p alloc (heap by default), at the
  /// viewed representation's scan cost.
  DynamicBitset ToDense(DynamicBitset::Allocator alloc = {}) const {
    DynamicBitset out(size(), alloc);
    OrInto(out);
    return out;
  }

  /// Materializes a sparse copy into \p alloc. The viewed members are
  /// emitted in increasing order, so the sorted-unchecked adoption holds
  /// by construction.
  SparseSet ToSparse(SparseSet::Allocator alloc) const {
    ArenaVector<ElementId> ids(alloc);
    ids.reserve(static_cast<std::size_t>(CountSet()));
    ForEach([&ids](ElementId e) { ids.push_back(e); });
    return SparseSet::FromSortedIndicesUnchecked(size(), std::move(ids));
  }

  /// All member elements in increasing order.
  std::vector<ElementId> ToIndices() const {
    return Visit([](const auto& s) { return s.ToIndices(); });
  }

  /// Logical size in bytes of the *viewed representation*.
  Bytes ByteSize() const {
    return Visit([](const auto& s) { return s.ByteSize(); });
  }

  /// "{0, 3, 7}" style debug rendering.
  std::string ToString() const {
    return Visit([](const auto& s) { return s.ToString(); });
  }

  /// Calls \p fn(ElementId) for every member element in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    Visit([&fn](const auto& s) { s.ForEach(fn); });
  }

  /// Content equality across representations (same universe, same
  /// members). Invalid views compare equal only to invalid views.
  friend bool operator==(const SetView& a, const SetView& b);

 private:
  enum class Rep : std::uint8_t { kNone, kDense, kSparse };

  union {
    DenseSpan dense_;
    SparseSpan sparse_;
  };
  Rep rep_ = Rep::kNone;
};

static_assert(std::is_trivially_copyable_v<SetView> && sizeof(SetView) <= 32);

}  // namespace streamsc

#endif  // STREAMSC_UTIL_SET_VIEW_H_
