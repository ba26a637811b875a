#include "util/set_view.h"

#include <algorithm>

namespace streamsc {

bool operator==(const SetView& a, const SetView& b) {
  if (!a.valid() || !b.valid()) return a.valid() == b.valid();
  if (a.size() != b.size() || a.CountSet() != b.CountSet()) return false;
  // Same-representation fast paths: compare the payloads directly.
  if (const DenseSpan* da = a.dense_span(); da && b.dense_span()) {
    return std::equal(da->WordData(), da->WordData() + da->WordCount(),
                      b.dense_span()->WordData());
  }
  if (const SparseSpan* sa = a.sparse_span(); sa && b.sparse_span()) {
    return std::equal(sa->elements(), sa->elements() + sa->CountSet(),
                      b.sparse_span()->elements());
  }
  // Mixed representations: equal cardinality plus one-sided containment
  // (subset + equal count => equal). Membership probes are O(1) dense and
  // O(log k) sparse — fine for the comparison-heavy test paths this
  // serves.
  bool subset = true;
  a.ForEach([&](ElementId e) { subset = subset && b.Test(e); });
  return subset;
}

}  // namespace streamsc
