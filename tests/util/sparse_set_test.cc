#include "util/sparse_set.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/set_view.h"

namespace streamsc {
namespace {

// SparseSet owns and builds the sorted id vector; its reads go through
// SetView. The read kernels themselves, over every representation, are
// covered by the property suite in set_view_test.cc.

TEST(SparseSetTest, EmptySet) {
  const SparseSet empty(10);
  const SetView set = empty;
  EXPECT_EQ(set.size(), 10u);
  EXPECT_EQ(set.CountSet(), 0u);
  EXPECT_TRUE(set.None());
  EXPECT_FALSE(set.All());
  EXPECT_FALSE(set.Test(3));
  EXPECT_EQ(set.ByteSize(), 0u);
}

TEST(SparseSetTest, FromIndicesSortsAndDeduplicates) {
  const SparseSet set = SparseSet::FromIndices(10, {7, 2, 2, 5, 7});
  EXPECT_EQ(set.elements(), (std::vector<ElementId>{2, 5, 7}));
  const SetView view = set;
  EXPECT_EQ(view.CountSet(), 3u);
  EXPECT_TRUE(view.Test(5));
  EXPECT_FALSE(view.Test(3));
}

TEST(SparseSetTest, FullSet) {
  const SparseSet set = SparseSet::FromIndices(3, {0, 1, 2});
  EXPECT_TRUE(SetView(set).All());
  EXPECT_FALSE(SetView(set).None());
}

TEST(SparseSetTest, BitsetRoundTrip) {
  const SparseSet set = SparseSet::FromIndices(100, {0, 17, 63, 64, 99});
  const DynamicBitset dense = SetView(set).ToDense();
  EXPECT_EQ(dense.CountSet(), 5u);
  EXPECT_EQ(SparseSet::FromBitset(dense), set);
}

TEST(SparseSetTest, ForEachVisitsInOrder) {
  const SparseSet set = SparseSet::FromIndices(50, {40, 3, 17});
  std::vector<ElementId> seen;
  SetView(set).ForEach([&seen](ElementId e) { seen.push_back(e); });
  EXPECT_EQ(seen, (std::vector<ElementId>{3, 17, 40}));
}

TEST(SparseSetTest, ToString) {
  const SparseSet set = SparseSet::FromIndices(9, {0, 3, 7});
  EXPECT_EQ(SetView(set).ToString(), "{0, 3, 7}");
}

TEST(SparseSetDeathTest, FromSortedIndicesRejectsUnsorted) {
  EXPECT_DEATH(SparseSet::FromSortedIndices(10, {3, 1}), "sorted");
}

TEST(SparseSetDeathTest, FromIndicesRejectsOutOfUniverse) {
  EXPECT_DEATH(SparseSet::FromIndices(4, {4}), "universe");
}

}  // namespace
}  // namespace streamsc
