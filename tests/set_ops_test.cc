#include "util/set_ops.h"

#include <algorithm>
#include <set>
#include <span>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace hgmatch {
namespace {

using V = std::vector<uint32_t>;

TEST(SetOpsTest, IntersectBasics) {
  V out;
  Intersect(V{1, 3, 5, 7}, V{3, 4, 5, 6}, &out);
  EXPECT_EQ(out, (V{3, 5}));
  Intersect(V{}, V{1, 2}, &out);
  EXPECT_TRUE(out.empty());
  Intersect(V{1, 2}, V{}, &out);
  EXPECT_TRUE(out.empty());
  Intersect(V{1, 2, 3}, V{1, 2, 3}, &out);
  EXPECT_EQ(out, (V{1, 2, 3}));
  Intersect(V{1, 2}, V{3, 4}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(SetOpsTest, IntersectGallopPathMatchesMerge) {
  // Force the galloping path with a very asymmetric pair.
  V small = {5, 500, 5000, 49999};
  V large;
  for (uint32_t i = 0; i < 50000; ++i) large.push_back(i);
  V out;
  Intersect(small, large, &out);
  EXPECT_EQ(out, small);
  // And the reversed argument order.
  Intersect(large, small, &out);
  EXPECT_EQ(out, small);
}

TEST(SetOpsTest, IntersectSize) {
  EXPECT_EQ(IntersectSize(V{1, 2, 3}, V{2, 3, 4}), 2u);
  EXPECT_EQ(IntersectSize(V{}, V{1}), 0u);
}

TEST(SetOpsTest, UnionBasics) {
  V out;
  Union(V{1, 3}, V{2, 3, 4}, &out);
  EXPECT_EQ(out, (V{1, 2, 3, 4}));
}

TEST(SetOpsTest, UnionMany) {
  V a = {1, 4}, b = {2, 4, 8}, c = {0, 8};
  V out;
  UnionMany({a, b, c}, &out);
  EXPECT_EQ(out, (V{0, 1, 2, 4, 8}));
  UnionMany({}, &out);
  EXPECT_TRUE(out.empty());
  UnionMany({a}, &out);
  EXPECT_EQ(out, a);
  UnionMany({a, b}, &out);
  EXPECT_EQ(out, (V{1, 2, 4, 8}));
}

TEST(SetOpsTest, Predicates) {
  EXPECT_TRUE(Contains(V{1, 5, 9}, 5));
  EXPECT_FALSE(Contains(V{1, 5, 9}, 4));
  EXPECT_TRUE(Intersects(V{1, 9}, V{9, 10}));
  EXPECT_FALSE(Intersects(V{1, 9}, V{2, 10}));
}

TEST(SetOpsTest, InsertSortedAndSortUnique) {
  V a = {2, 6};
  InsertSorted(&a, 4);
  InsertSorted(&a, 4);
  InsertSorted(&a, 1);
  InsertSorted(&a, 9);
  EXPECT_EQ(a, (V{1, 2, 4, 6, 9}));
  V b = {5, 1, 5, 3, 1};
  SortUnique(&b);
  EXPECT_EQ(b, (V{1, 3, 5}));
}

// Property sweep: all ops agree with std::set algebra on random inputs of
// varying density.
class SetOpsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SetOpsPropertyTest, MatchesStdSet) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    const uint32_t universe = 1 + rng.NextBounded(200);
    auto sample = [&](size_t n) {
      std::set<uint32_t> s;
      for (size_t i = 0; i < n; ++i) s.insert(rng.NextBounded(universe));
      return V(s.begin(), s.end());
    };
    const V a = sample(rng.NextBounded(100));
    const V b = sample(rng.NextBounded(100));

    std::set<uint32_t> sa(a.begin(), a.end()), sb(b.begin(), b.end());
    V expect_i, expect_u;
    std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                          std::back_inserter(expect_i));
    std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                   std::back_inserter(expect_u));

    V out;
    Intersect(a, b, &out);
    EXPECT_EQ(out, expect_i);
    EXPECT_EQ(IntersectSize(a, b), expect_i.size());
    Union(a, b, &out);
    EXPECT_EQ(out, expect_u);
    EXPECT_EQ(Intersects(a, b), !expect_i.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetOpsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// UnionMany against a std::set_union fold. Three or more inputs take the
// bitmap path when their id span is dense and the heap merge when it is
// sparse, so the sweep draws both spans, plus ids at the top of the uint32
// range where the bitmap's 64-aligned base matters.
V UnionFold(const std::vector<V>& lists) {
  V acc;
  for (const V& l : lists) {
    V next;
    std::set_union(acc.begin(), acc.end(), l.begin(), l.end(),
                   std::back_inserter(next));
    acc.swap(next);
  }
  return acc;
}

V UnionManyOf(const std::vector<V>& lists) {
  std::vector<std::span<const uint32_t>> spans(lists.begin(), lists.end());
  V out = {42};  // must be cleared
  UnionMany(spans, &out);
  return out;
}

TEST(SetOpsTest, UnionManyEdgeCases) {
  constexpr uint32_t kMax = UINT32_MAX;
  const std::vector<std::vector<V>> cases = {
      {},
      {{}},
      {{}, {}, {}},
      {{7}},
      {{}, {3, 9}, {}},
      {{1, 2, 3}, {2, 3, 4}, {0, 5}},                    // dense
      {{0}, {1000000000}, {kMax}},                       // sparse
      {{kMax}, {kMax - 1, kMax}, {kMax - 64, kMax}},     // dense at the top
      {{kMax - 63}, {kMax - 64}, {kMax - 127, kMax}},    // word boundaries
      {{0, kMax}, {1, kMax - 1}, {2}},                   // widest span
  };
  for (const auto& lists : cases) {
    EXPECT_EQ(UnionManyOf(lists), UnionFold(lists));
  }
}

class UnionManyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(UnionManyPropertyTest, MatchesSetUnionFold) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 60; ++iter) {
    const size_t k = 1 + rng.NextBounded(130);
    // 0: dense span, 1: sparse span, 2: dense near UINT32_MAX.
    const int regime = iter % 3;
    const uint32_t span = regime == 1 ? 1u << 30 : 64 + rng.NextBounded(4096);
    const uint32_t lo =
        regime == 2 ? UINT32_MAX - span + 1 : rng.NextBounded(1u << 20);
    std::vector<V> lists(k);
    for (V& l : lists) {
      if (rng.NextBounded(8) == 0) continue;  // some inputs stay empty
      std::set<uint32_t> s;
      const size_t n = rng.NextBounded(regime == 1 ? 8 : 200);
      for (size_t i = 0; i < n; ++i) s.insert(lo + rng.NextBounded(span));
      l.assign(s.begin(), s.end());
    }
    EXPECT_EQ(UnionManyOf(lists), UnionFold(lists))
        << "iteration " << iter << ", " << k << " inputs";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionManyPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace hgmatch
