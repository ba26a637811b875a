#include "util/set_view.h"

#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "core/sampling.h"
#include "util/arena.h"
#include "util/random.h"

namespace streamsc {
namespace {

// Seeded property suite for the set substrate: every random set is built
// as all four sources SetView accepts — an owning DynamicBitset, an owning
// SparseSet, a DenseSpan over the bitset's words and a SparseSpan over its
// sorted ids — and every SetView operation is checked, through each
// source, against the DynamicBitset reference.

// Universe sizes straddling word boundaries on purpose.
const std::size_t kSizes[] = {1, 63, 64, 65, 127, 128, 200, 1000};
// Densities hitting the empty and full corners as well as the middle.
const double kDensities[] = {0.0, 0.05, 0.5, 1.0};
constexpr int kTrialsPerDensity = 4;

// One set held as all four sources. The spans borrow the bitset's
// words and the id vector, so the struct is pinned (not copyable).
class FourSources {
 public:
  explicit FourSources(DynamicBitset bits)
      : bits_(std::move(bits)),
        sparse_(SparseSet::FromBitset(bits_)),
        ids_(bits_.ToIndices()),
        dense_span_(bits_.WordData(), bits_.size()),
        sparse_span_(ids_.data(), ids_.size(), bits_.size()) {}
  FourSources(const FourSources&) = delete;
  FourSources& operator=(const FourSources&) = delete;

  const DynamicBitset& bits() const { return bits_; }
  const SparseSet& sparse() const { return sparse_; }

  // The four views, in a fixed order matching Name().
  std::vector<SetView> Views() const {
    return {SetView(bits_), SetView(sparse_), SetView(dense_span_),
            SetView(sparse_span_)};
  }
  static const char* Name(std::size_t i) {
    static const char* const kNames[] = {"DynamicBitset", "SparseSet",
                                         "DenseSpan", "SparseSpan"};
    return kNames[i];
  }
  static bool IsDenseSource(std::size_t i) { return i == 0 || i == 2; }

 private:
  DynamicBitset bits_;
  SparseSet sparse_;
  std::vector<ElementId> ids_;
  DenseSpan dense_span_;
  SparseSpan sparse_span_;
};

// Calls fn(rng, bits) for every density x trial over a universe of n.
template <typename Fn>
void ForEachRandomSet(std::size_t n, Fn&& fn) {
  Rng rng(0x5e7u ^ n);
  for (const double density : kDensities) {
    for (int trial = 0; trial < kTrialsPerDensity; ++trial) {
      SCOPED_TRACE("density=" + std::to_string(density) +
                   " trial=" + std::to_string(trial));
      fn(rng, rng.BernoulliSubset(n, density));
    }
  }
}

// Probes for the binary read ops: random ones plus the empty set, the
// full universe and a superset of \p set (so IsSubsetOf is exercised on
// both answers).
std::vector<DynamicBitset> Probes(const DynamicBitset& set, Rng& rng) {
  const std::size_t n = set.size();
  std::vector<DynamicBitset> probes = {
      DynamicBitset(n), DynamicBitset::Full(n), rng.BernoulliSubset(n, 0.5),
      rng.BernoulliSubset(n, 0.05)};
  probes.push_back(rng.BernoulliSubset(n, 0.5) | set);
  return probes;
}

class SetViewPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SetViewPropertyTest, ReadOpsMatchBitset) {
  const std::size_t n = GetParam();
  ForEachRandomSet(n, [&](Rng& rng, DynamicBitset bits) {
    const FourSources sources(std::move(bits));
    const DynamicBitset& ref = sources.bits();
    const std::vector<DynamicBitset> probes = Probes(ref, rng);
    const std::vector<SetView> views = sources.Views();
    for (std::size_t v = 0; v < views.size(); ++v) {
      SCOPED_TRACE(FourSources::Name(v));
      const SetView view = views[v];
      ASSERT_TRUE(view.valid());
      EXPECT_EQ(view.size(), n);
      EXPECT_EQ(view.CountSet(), ref.CountSet());
      EXPECT_EQ(view.None(), ref.None());
      EXPECT_EQ(view.All(), ref.All());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(view.Test(i), ref.Test(i)) << "element " << i;
      }
      for (const DynamicBitset& probe : probes) {
        EXPECT_EQ(view.CountAnd(probe), ref.CountAnd(probe));
        EXPECT_EQ(view.CountAndNot(probe), ref.CountAndNot(probe));
        EXPECT_EQ(view.Intersects(probe), ref.Intersects(probe));
        EXPECT_EQ(view.IsSubsetOf(probe), ref.IsSubsetOf(probe));
      }
      EXPECT_EQ(view.ToIndices(), ref.ToIndices());
      EXPECT_EQ(view.ToString(), ref.ToString());
      std::vector<ElementId> visited;
      view.ForEach([&visited](ElementId e) { visited.push_back(e); });
      EXPECT_EQ(visited, ref.ToIndices());
      // ByteSize reports the viewed representation's payload.
      EXPECT_EQ(view.ByteSize(),
                FourSources::IsDenseSource(v)
                    ? ref.ByteSize()
                    : ref.CountSet() * sizeof(ElementId));
    }
  });
}

TEST_P(SetViewPropertyTest, IntoOpsMatchBitset) {
  const std::size_t n = GetParam();
  ForEachRandomSet(n, [&](Rng& rng, DynamicBitset bits) {
    const FourSources sources(std::move(bits));
    const DynamicBitset& ref = sources.bits();
    const std::vector<DynamicBitset> targets = Probes(ref, rng);
    const std::vector<SetView> views = sources.Views();
    for (std::size_t v = 0; v < views.size(); ++v) {
      SCOPED_TRACE(FourSources::Name(v));
      for (const DynamicBitset& target : targets) {
        DynamicBitset and_not = target;
        views[v].AndNotInto(and_not);
        EXPECT_EQ(and_not, target.Difference(ref));
        DynamicBitset or_into = target;
        views[v].OrInto(or_into);
        EXPECT_EQ(or_into, target | ref);
        // Results keep the tail invariant: nothing beyond n.
        EXPECT_LE(or_into.CountSet(), n);
      }
    }
  });
}

TEST_P(SetViewPropertyTest, ConversionsRoundTrip) {
  const std::size_t n = GetParam();
  ForEachRandomSet(n, [&](Rng&, DynamicBitset bits) {
    const FourSources sources(std::move(bits));
    const DynamicBitset& ref = sources.bits();
    const SparseSet ref_sparse = SparseSet::FromBitset(ref);
    const std::vector<SetView> views = sources.Views();
    for (std::size_t v = 0; v < views.size(); ++v) {
      SCOPED_TRACE(FourSources::Name(v));
      MonotonicArena arena;
      EXPECT_EQ(views[v].ToDense(), ref);
      const DynamicBitset rehomed =
          views[v].ToDense(DynamicBitset::Allocator(&arena));
      EXPECT_EQ(rehomed, ref);
      EXPECT_TRUE(rehomed.get_allocator() ==
                  DynamicBitset::Allocator(&arena));
      EXPECT_EQ(views[v].ToSparse(SparseSet::Allocator()), ref_sparse);
      const SparseSet sparse_rehomed =
          views[v].ToSparse(SparseSet::Allocator(&arena));
      EXPECT_EQ(sparse_rehomed, ref_sparse);
      EXPECT_TRUE(sparse_rehomed.get_allocator() ==
                  SparseSet::Allocator(&arena));
    }
    // dense -> sparse -> dense and sparse -> dense -> sparse are the
    // identity.
    EXPECT_EQ(SetView(ref_sparse).ToDense(), ref);
    EXPECT_EQ(SparseSet::FromBitset(SetView(ref_sparse).ToDense()),
              ref_sparse);
    EXPECT_EQ(sources.sparse(), ref_sparse);
  });
}

// Sets that differ from \p bits: one element toggled (so the counts
// differ) and, when \p bits is neither empty nor full, one member moved
// to a non-member (same count, so only the members can tell them apart).
std::vector<DynamicBitset> Neighbours(const DynamicBitset& bits, Rng& rng) {
  const std::size_t n = bits.size();
  DynamicBitset flipped = bits;
  const std::size_t flip = static_cast<std::size_t>(rng.UniformInt(n));
  if (flipped.Test(flip)) {
    flipped.Reset(flip);
  } else {
    flipped.Set(flip);
  }
  std::vector<DynamicBitset> out = {flipped};
  const std::vector<ElementId> members = bits.ToIndices();
  if (!members.empty() && members.size() < n) {
    DynamicBitset outside = bits;
    outside.Complement();
    const std::vector<ElementId> non_members = outside.ToIndices();
    DynamicBitset moved = bits;
    moved.Reset(members[rng.UniformInt(members.size())]);
    moved.Set(non_members[rng.UniformInt(non_members.size())]);
    out.push_back(std::move(moved));
  }
  return out;
}

TEST_P(SetViewPropertyTest, EqualityAcrossRepresentations) {
  const std::size_t n = GetParam();
  ForEachRandomSet(n, [&](Rng& rng, DynamicBitset bits) {
    const std::vector<DynamicBitset> neighbours = Neighbours(bits, rng);
    const FourSources sources(std::move(bits));
    // Same members over a larger universe.
    const DynamicBitset wider =
        DynamicBitset::FromIndices(n + 1, sources.bits().ToIndices());
    const std::vector<SetView> views = sources.Views();
    for (std::size_t a = 0; a < views.size(); ++a) {
      SCOPED_TRACE(FourSources::Name(a));
      EXPECT_FALSE(views[a] == SetView(wider));
      EXPECT_FALSE(views[a] == SetView());
      for (std::size_t b = 0; b < views.size(); ++b) {
        SCOPED_TRACE(FourSources::Name(b));
        EXPECT_TRUE(views[a] == views[b]);
      }
    }
    for (const DynamicBitset& neighbour : neighbours) {
      const FourSources other(neighbour);
      const std::vector<SetView> others = other.Views();
      for (std::size_t a = 0; a < views.size(); ++a) {
        for (std::size_t b = 0; b < others.size(); ++b) {
          EXPECT_FALSE(views[a] == others[b])
              << FourSources::Name(a) << " vs " << FourSources::Name(b);
        }
      }
    }
  });
  EXPECT_TRUE(SetView() == SetView());
  EXPECT_FALSE(SetView().valid());
}

TEST_P(SetViewPropertyTest, ProjectionMatchesReference) {
  const std::size_t n = GetParam();
  ForEachRandomSet(n, [&](Rng& rng, DynamicBitset bits) {
    const FourSources sources(std::move(bits));
    const DynamicBitset& ref = sources.bits();
    for (const double rate : {0.0, 0.3, 1.0}) {
      SCOPED_TRACE("rate=" + std::to_string(rate));
      const SubUniverse sub(rng.BernoulliSubset(n, rate));
      DynamicBitset expected(sub.size());
      for (std::size_t i = 0; i < sub.size(); ++i) {
        if (ref.Test(sub.ToFull(i))) expected.Set(i);
      }
      const std::vector<SetView> views = sources.Views();
      for (std::size_t v = 0; v < views.size(); ++v) {
        SCOPED_TRACE(FourSources::Name(v));
        EXPECT_EQ(sub.Project(views[v]), expected);
        const ProjectedSet adaptive = sub.ProjectAdaptive(views[v]);
        // The projection keeps the source's representation.
        EXPECT_EQ(std::holds_alternative<DynamicBitset>(adaptive),
                  FourSources::IsDenseSource(v));
        EXPECT_TRUE(ViewOf(adaptive) == SetView(expected));
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, SetViewPropertyTest,
                         ::testing::ValuesIn(kSizes));

// Example cases, each run through all four sources.

TEST(SetViewTest, CountsAgainstDense) {
  const std::vector<ElementId> ids = {1, 5, 9, 13};
  const FourSources set(DynamicBitset::FromIndices(20, ids));
  for (const SetView view : set.Views()) {
    DynamicBitset other(20);
    other.Set(5);
    other.Set(13);
    other.Set(14);
    EXPECT_EQ(view.CountAnd(other), 2u);
    EXPECT_EQ(view.CountAndNot(other), 2u);
    EXPECT_TRUE(view.Intersects(other));
    EXPECT_FALSE(view.IsSubsetOf(other));
    other.Set(1);
    other.Set(9);
    EXPECT_TRUE(view.IsSubsetOf(other));
  }
}

TEST(SetViewTest, AndNotIntoAndOrInto) {
  const std::vector<ElementId> ids = {1, 3};
  const FourSources set(DynamicBitset::FromIndices(8, ids));
  for (const SetView view : set.Views()) {
    DynamicBitset target = DynamicBitset::Full(8);
    view.AndNotInto(target);
    EXPECT_EQ(target.CountSet(), 6u);
    EXPECT_FALSE(target.Test(1));
    view.OrInto(target);
    EXPECT_TRUE(target.All());
  }
}

}  // namespace
}  // namespace streamsc
