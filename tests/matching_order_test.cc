#include "core/matching_order.h"

#include <gtest/gtest.h>

#include "tests/test_fixtures.h"
#include "util/set_ops.h"

namespace hgmatch {
namespace {

TEST(MatchingOrderTest, PaperExampleOrder) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  // All three query signatures have cardinality 2; ties break to smaller
  // ids, giving the order used throughout the paper's Example V.1:
  // ({u2,u4}, {u0,u1,u2}, {u0,u1,u3,u4}).
  EXPECT_EQ(ComputeMatchingOrder(q, idx), (std::vector<EdgeId>{0, 1, 2}));
}

TEST(MatchingOrderTest, StartsAtMinimumCardinality) {
  // Data: many {A,A} edges, a single {A,B} edge.
  Hypergraph h;
  h.AddVertices(6, 0);
  const VertexId b = h.AddVertex(1);
  (void)h.AddEdge({0, 1});
  (void)h.AddEdge({1, 2});
  (void)h.AddEdge({2, 3});
  (void)h.AddEdge({3, 4});
  (void)h.AddEdge({4, b});
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(h));

  // Query: edge 0 = {A,A} (cardinality 4), edge 1 = {A,B} (cardinality 1).
  Hypergraph q;
  q.AddVertices(2, 0);
  const VertexId qb = q.AddVertex(1);
  (void)q.AddEdge({0, 1});
  (void)q.AddEdge({1, qb});
  EXPECT_EQ(ComputeMatchingOrder(q, idx), (std::vector<EdgeId>{1, 0}));
}

TEST(MatchingOrderTest, PrefersHigherOverlapOnEqualCardinality) {
  // Data gives each signature distinct cardinalities via repetitions.
  Hypergraph h;
  h.AddVertices(10, 0);
  (void)h.AddEdge({0, 1, 2});
  (void)h.AddEdge({3, 4, 5});
  (void)h.AddEdge({0, 1});
  (void)h.AddEdge({2, 3});
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(h));

  // Query: start edge {u0,u1,u2} (card 2 < card of pairs? both cards are 2).
  // Edge 1 shares two vertices with edge 0; edge 2 shares one. Equal
  // cardinalities => Card/overlap = 2/2 vs 2/1 => edge 1 goes first.
  Hypergraph q;
  q.AddVertices(4, 0);
  (void)q.AddEdge({0, 1, 2});  // edge 0
  (void)q.AddEdge({2, 3});     // edge 1, overlap 1 with edge 0
  (void)q.AddEdge({0, 1});     // edge 2, overlap 2 with edge 0
  const std::vector<EdgeId> order = ComputeMatchingOrder(q, idx);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 2u);  // 2/2 = 1 beats 2/1 = 2
  EXPECT_EQ(order[2], 1u);
}

TEST(MatchingOrderTest, OrderIsAlwaysConnectedPermutation) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Hypergraph data = GenerateHypergraph(SmallRandomConfig(seed));
    IndexedHypergraph idx = IndexedHypergraph::Build(std::move(data));
    GeneratorConfig qc = SmallRandomConfig(seed + 100);
    qc.num_edges = 6;
    Hypergraph q = GenerateHypergraph(qc);
    if (q.NumEdges() == 0) continue;
    const std::vector<EdgeId> order = ComputeMatchingOrder(q, idx);
    ASSERT_EQ(order.size(), q.NumEdges());
    std::vector<uint8_t> seen(q.NumEdges(), 0);
    VertexSet covered;
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_LT(order[i], q.NumEdges());
      EXPECT_FALSE(seen[order[i]]);
      seen[order[i]] = 1;
      if (i > 0 && q.IsConnected()) {
        EXPECT_GT(IntersectSize(covered, q.edge(order[i])), 0u)
            << "order not connected at position " << i;
      }
      for (VertexId v : q.edge(order[i])) InsertSorted(&covered, v);
    }
  }
}

TEST(QueryPlanTest, StepPrecomputationOnPaperExample) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  Result<QueryPlan> plan = BuildQueryPlan(q, idx);
  ASSERT_TRUE(plan.ok());
  const QueryPlan& p = plan.value();
  ASSERT_EQ(p.NumSteps(), 3u);

  // Step 0: {u2,u4}, no previous steps, 2 query vertices so far.
  EXPECT_TRUE(p.steps[0].adjacent_prev.empty());
  EXPECT_TRUE(p.steps[0].nonadjacent_prev.empty());
  EXPECT_EQ(p.steps[0].num_query_vertices_after, 2u);

  // Step 1: {u0,u1,u2} shares u2 with step 0.
  ASSERT_EQ(p.steps[1].adjacent_prev.size(), 1u);
  EXPECT_EQ(p.steps[1].adjacent_prev[0].step, 0u);
  EXPECT_EQ(p.steps[1].adjacent_prev[0].shared, (std::vector<VertexId>{2}));
  EXPECT_EQ(p.steps[1].num_query_vertices_after, 4u);
  // u2's degree in the partial query before step 1 is 1 (only edge 0).
  EXPECT_EQ(p.steps[1].shared_info[0][0].degree_before, 1u);
  EXPECT_EQ(p.steps[1].shared_info[0][0].label, 0u);  // A

  // Step 2: {u0,u1,u3,u4} shares u4 with step 0 and u0,u1 with step 1.
  ASSERT_EQ(p.steps[2].adjacent_prev.size(), 2u);
  EXPECT_EQ(p.steps[2].adjacent_prev[0].shared, (std::vector<VertexId>{4}));
  EXPECT_EQ(p.steps[2].adjacent_prev[1].shared, (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(p.steps[2].num_query_vertices_after, 5u);
  EXPECT_TRUE(p.steps[2].nonadjacent_prev.empty());

  // Step 2 shared profiles, over steps 0-1 only: u0 (A, {1}), u4 (B, {0}),
  // u1 (C, {1}), sorted by (label, mask). u3 is new at step 2 and has none.
  ASSERT_EQ(p.steps[2].shared_profiles.size(), 3u);
  const auto& profiles = p.steps[2].shared_profiles;
  EXPECT_EQ(profiles[0].label, 0u);  // A
  EXPECT_EQ(profiles[0].steps_mask, 0b010ULL);  // u0: step 1
  EXPECT_EQ(profiles[1].label, 1u);  // B
  EXPECT_EQ(profiles[1].steps_mask, 0b001ULL);  // u4: step 0
  EXPECT_EQ(profiles[2].label, 2u);  // C
  EXPECT_EQ(profiles[2].steps_mask, 0b010ULL);  // u1: step 1
}

TEST(QueryPlanTest, RejectsBadInputs) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph empty;
  empty.AddVertex(0);
  EXPECT_FALSE(BuildQueryPlan(empty, idx).ok());

  Hypergraph q = PaperQueryHypergraph();
  EXPECT_FALSE(BuildQueryPlanWithOrder(q, {0, 1}).ok());     // too short
  EXPECT_FALSE(BuildQueryPlanWithOrder(q, {0, 1, 1}).ok());  // repeat
  EXPECT_FALSE(BuildQueryPlanWithOrder(q, {0, 1, 9}).ok());  // out of range
  EXPECT_TRUE(BuildQueryPlanWithOrder(q, {2, 0, 1}).ok());   // any perm ok
}

TEST(QueryPlanTest, OrderAccessorRoundTrips) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {2, 0, 1});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().Order(), (std::vector<EdgeId>{2, 0, 1}));
}

}  // namespace
}  // namespace hgmatch
