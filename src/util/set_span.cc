#include "util/set_span.h"

#include <algorithm>
#include <bit>

#include "util/bitset.h"
#include "util/check.h"

namespace streamsc {
namespace {

using Word = DenseSpan::Word;

template <typename Span>
std::string RenderIndices(const Span& span) {
  std::string out = "{";
  bool first = true;
  span.ForEach([&](ElementId e) {
    if (!first) out += ", ";
    out += std::to_string(e);
    first = false;
  });
  out += "}";
  return out;
}

}  // namespace

// ---- DenseSpan -------------------------------------------------------------

Count DenseSpan::CountSet() const {
  Count total = 0;
  const std::size_t words = WordCount();
  for (std::size_t w = 0; w < words; ++w) total += std::popcount(words_[w]);
  return total;
}

bool DenseSpan::None() const {
  const std::size_t words = WordCount();
  for (std::size_t w = 0; w < words; ++w) {
    if (words_[w] != 0) return false;
  }
  return true;
}

Count DenseSpan::CountAnd(DenseSpan other) const {
  STREAMSC_DCHECK(other.size_ == size_);
  Count total = 0;
  const std::size_t words = WordCount();
  for (std::size_t w = 0; w < words; ++w) {
    total += std::popcount(words_[w] & other.words_[w]);
  }
  return total;
}

Count DenseSpan::CountAndNot(DenseSpan other) const {
  STREAMSC_DCHECK(other.size_ == size_);
  Count total = 0;
  const std::size_t words = WordCount();
  for (std::size_t w = 0; w < words; ++w) {
    total += std::popcount(words_[w] & ~other.words_[w]);
  }
  return total;
}

bool DenseSpan::Intersects(DenseSpan other) const {
  STREAMSC_DCHECK(other.size_ == size_);
  const std::size_t words = WordCount();
  for (std::size_t w = 0; w < words; ++w) {
    if ((words_[w] & other.words_[w]) != 0) return true;
  }
  return false;
}

bool DenseSpan::IsSubsetOf(DenseSpan other) const {
  STREAMSC_DCHECK(other.size_ == size_);
  const std::size_t words = WordCount();
  for (std::size_t w = 0; w < words; ++w) {
    if ((words_[w] & ~other.words_[w]) != 0) return false;
  }
  return true;
}

void DenseSpan::AndNotInto(DynamicBitset& target) const {
  STREAMSC_DCHECK(target.size() == size_);
  const std::size_t words = WordCount();
  // Target tail bits are already zero, so ANDing with ~word keeps them so.
  for (std::size_t w = 0; w < words; ++w) target.AndWord(w, ~words_[w]);
}

void DenseSpan::OrInto(DynamicBitset& target) const {
  STREAMSC_DCHECK(target.size() == size_);
  const std::size_t words = WordCount();
  // The span's tail invariant (no bits beyond size()) carries over.
  for (std::size_t w = 0; w < words; ++w) target.OrWord(w, words_[w]);
}

std::vector<ElementId> DenseSpan::ToIndices() const {
  std::vector<ElementId> out;
  out.reserve(static_cast<std::size_t>(CountSet()));
  ForEach([&](ElementId e) { out.push_back(e); });
  return out;
}

std::string DenseSpan::ToString() const { return RenderIndices(*this); }

// ---- SparseSpan ------------------------------------------------------------

bool SparseSpan::Test(std::size_t i) const {
  STREAMSC_DCHECK(i < size_);
  return std::binary_search(elements_, elements_ + count_,
                            static_cast<ElementId>(i));
}

Count SparseSpan::CountAnd(DenseSpan other) const {
  STREAMSC_DCHECK(other.size() == size_);
  Count total = 0;
  for (std::size_t i = 0; i < count_; ++i) total += other.Test(elements_[i]);
  return total;
}

Count SparseSpan::CountAndNot(DenseSpan other) const {
  STREAMSC_DCHECK(other.size() == size_);
  Count total = 0;
  for (std::size_t i = 0; i < count_; ++i) total += !other.Test(elements_[i]);
  return total;
}

bool SparseSpan::Intersects(DenseSpan other) const {
  STREAMSC_DCHECK(other.size() == size_);
  for (std::size_t i = 0; i < count_; ++i) {
    if (other.Test(elements_[i])) return true;
  }
  return false;
}

bool SparseSpan::IsSubsetOf(DenseSpan other) const {
  STREAMSC_DCHECK(other.size() == size_);
  for (std::size_t i = 0; i < count_; ++i) {
    if (!other.Test(elements_[i])) return false;
  }
  return true;
}

void SparseSpan::AndNotInto(DynamicBitset& target) const {
  STREAMSC_DCHECK(target.size() == size_);
  for (std::size_t i = 0; i < count_; ++i) target.Reset(elements_[i]);
}

void SparseSpan::OrInto(DynamicBitset& target) const {
  STREAMSC_DCHECK(target.size() == size_);
  for (std::size_t i = 0; i < count_; ++i) target.Set(elements_[i]);
}

std::string SparseSpan::ToString() const { return RenderIndices(*this); }

}  // namespace streamsc
