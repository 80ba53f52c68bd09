// Coverage of the canonical query labelling (core/canonical.h): renamed
// and edge-reordered copies of a query must map to one canonical key,
// structurally different near-misses must not, and the size/search-budget
// cutoffs must fall back to the exact structural key. Randomised sweep:
// every permutation of a small query agrees with the identity's key.

#include "core/canonical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "core/hypergraph.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"

namespace hgmatch {
namespace {

std::vector<EdgeId> IdentityEdges(const Hypergraph& q) {
  std::vector<EdgeId> order(q.NumEdges());
  std::iota(order.begin(), order.end(), 0);
  return order;
}

TEST(CanonicalTest, SameQueryTwiceProducesIdenticalKey) {
  const Hypergraph q = PaperQueryHypergraph();
  const CanonicalKey a = CanonicalQueryKey(q);
  const CanonicalKey b = CanonicalQueryKey(q);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_TRUE(a.isomorphism_invariant);
}

TEST(CanonicalTest, RenamedVerticesProduceSameKeyButDifferentExactKey) {
  const Hypergraph q = PaperQueryHypergraph();
  // Label-preserving rename: u0(A)<->u3(A), u2 stays, and so on.
  const std::vector<VertexId> perm = {3, 1, 2, 0, 4};
  const Hypergraph renamed = Permuted(q, perm, IdentityEdges(q));
  const CanonicalKey a = CanonicalQueryKey(q);
  const CanonicalKey b = CanonicalQueryKey(renamed);
  EXPECT_TRUE(a.isomorphism_invariant);
  EXPECT_EQ(a.key, b.key);
  EXPECT_NE(a.exact, b.exact);  // the exact structural key sees the rename
}

TEST(CanonicalTest, ReorderedEdgesProduceSameKey) {
  const Hypergraph q = PaperQueryHypergraph();
  const std::vector<VertexId> identity = {0, 1, 2, 3, 4};
  const Hypergraph reordered = Permuted(q, identity, {2, 0, 1});
  const CanonicalKey a = CanonicalQueryKey(q);
  const CanonicalKey b = CanonicalQueryKey(reordered);
  EXPECT_EQ(a.key, b.key);
  EXPECT_NE(a.exact, b.exact);  // the exact key is edge-order sensitive
}

TEST(CanonicalTest, EveryPermutationOfTheQueryAgrees) {
  const Hypergraph q = PaperQueryHypergraph();
  const CanonicalKey base = CanonicalQueryKey(q);
  std::vector<VertexId> perm(q.NumVertices());
  std::iota(perm.begin(), perm.end(), 0);
  do {
    // Only label-preserving permutations are isomorphisms; skip the rest
    // (they relabel vertices and legitimately change the key).
    bool preserves = true;
    for (VertexId v = 0; v < q.NumVertices(); ++v) {
      if (q.label(perm[v]) != q.label(v)) preserves = false;
    }
    if (!preserves) continue;
    std::vector<VertexId> inverse(perm.size());
    for (VertexId v = 0; v < q.NumVertices(); ++v) inverse[perm[v]] = v;
    const Hypergraph renamed = Permuted(q, inverse, IdentityEdges(q));
    EXPECT_EQ(CanonicalQueryKey(renamed).key, base.key);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(CanonicalTest, NearMissVertexLabelChangesKey) {
  Hypergraph a = PaperQueryHypergraph();
  Hypergraph b;
  const Label A = 0, B = 1, C = 2;
  for (Label l : {A, C, A, B, B}) b.AddVertex(l);  // u3: A -> B
  (void)b.AddEdge({2, 4});
  (void)b.AddEdge({0, 1, 2});
  (void)b.AddEdge({0, 1, 3, 4});
  EXPECT_NE(CanonicalQueryKey(a).key, CanonicalQueryKey(b).key);
}

TEST(CanonicalTest, NearMissMembershipChangesKey) {
  Hypergraph a = PaperQueryHypergraph();
  Hypergraph b;
  const Label A = 0, B = 1, C = 2;
  for (Label l : {A, C, A, A, B}) b.AddVertex(l);
  (void)b.AddEdge({2, 4});
  (void)b.AddEdge({0, 1, 3});  // was {0, 1, 2}: same arity, other member
  (void)b.AddEdge({0, 1, 3, 4});
  EXPECT_NE(CanonicalQueryKey(a).key, CanonicalQueryKey(b).key);
}

TEST(CanonicalTest, NearMissEdgeLabelChangesKey) {
  Hypergraph a;
  Hypergraph b;
  for (int i = 0; i < 3; ++i) {
    a.AddVertex(0);
    b.AddVertex(0);
  }
  (void)a.AddEdge({0, 1, 2}, /*label=*/1);
  (void)b.AddEdge({0, 1, 2}, /*label=*/2);
  EXPECT_NE(CanonicalQueryKey(a).key, CanonicalQueryKey(b).key);
}

TEST(CanonicalTest, SizeCutoffFallsBackToExactKey) {
  const Hypergraph q = PaperQueryHypergraph();
  CanonicalOptions tight;
  tight.max_vertices = 3;  // the paper query has 5 vertices
  const CanonicalKey k = CanonicalQueryKey(q, tight);
  EXPECT_FALSE(k.isomorphism_invariant);
  EXPECT_EQ(k.key, 'X' + ExactQueryKey(q));
  // A renamed copy no longer matches: the fallback is exact-only.
  const Hypergraph renamed =
      Permuted(q, {3, 1, 2, 0, 4}, IdentityEdges(q));
  EXPECT_NE(CanonicalQueryKey(renamed, tight).key, k.key);
}

TEST(CanonicalTest, SearchBudgetAbortFallsBackToExactKey) {
  // A fully symmetric query (all labels equal, complete pairwise edges)
  // forces individualisation; a one-node budget cannot finish it.
  Hypergraph q;
  for (int i = 0; i < 5; ++i) q.AddVertex(0);
  for (VertexId a = 0; a < 5; ++a) {
    for (VertexId b = a + 1; b < 5; ++b) (void)q.AddEdge({a, b});
  }
  CanonicalOptions tiny;
  tiny.max_search_nodes = 1;
  const CanonicalKey k = CanonicalQueryKey(q, tiny);
  EXPECT_FALSE(k.isomorphism_invariant);
  EXPECT_EQ(k.key, 'X' + ExactQueryKey(q));
  // With the default budget the same query canonicalises fine.
  EXPECT_TRUE(CanonicalQueryKey(q).isomorphism_invariant);
}

TEST(CanonicalTest, RandomQueriesSurviveRandomRenames) {
  Rng rng(20260808);
  for (int round = 0; round < 20; ++round) {
    // Random small query: 4..8 vertices, 3..6 edges, 1..3 labels.
    const uint32_t n = static_cast<uint32_t>(rng.NextRange(4, 8));
    const uint32_t m = static_cast<uint32_t>(rng.NextRange(3, 6));
    const uint64_t labels = rng.NextRange(1, 3);
    Hypergraph q;
    for (uint32_t v = 0; v < n; ++v) {
      q.AddVertex(static_cast<Label>(rng.NextBounded(labels)));
    }
    for (uint32_t e = 0; e < m; ++e) {
      const uint64_t arity = rng.NextRange(2, 3);
      VertexSet members;
      while (members.size() < arity) {
        const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        if (std::find(members.begin(), members.end(), v) == members.end()) {
          members.push_back(v);
        }
      }
      (void)q.AddEdge(std::move(members),
                      static_cast<Label>(rng.NextBounded(2)));
    }
    std::vector<VertexId> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    rng.Shuffle(&perm);
    // AddEdge dedupes identical member sets, so use the realised count.
    std::vector<EdgeId> edge_order(q.NumEdges());
    std::iota(edge_order.begin(), edge_order.end(), 0);
    rng.Shuffle(&edge_order);
    const Hypergraph renamed = Permuted(q, perm, edge_order);
    const CanonicalKey a = CanonicalQueryKey(q);
    const CanonicalKey b = CanonicalQueryKey(renamed);
    ASSERT_TRUE(a.isomorphism_invariant) << "round " << round;
    EXPECT_EQ(a.key, b.key) << "round " << round;
  }
}

}  // namespace
}  // namespace hgmatch
