#include "core/candidates.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/validation.h"
#include "gen/dataset_profiles.h"
#include "gen/query_gen.h"
#include "tests/test_fixtures.h"

namespace hgmatch {
namespace {

// Example V.1 of the paper: with matching order
// ({u2,u4}, {u0,u1,u2}, {u0,u1,u3,u4}) and partial embedding m = (e1, e3),
// the candidates of the third query hyperedge are exactly {e5}.
TEST(CandidatesTest, PaperExampleV1) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {0, 1, 2});
  ASSERT_TRUE(plan.ok());
  Expander expander(idx, plan.value());

  const EdgeId m[] = {0 /*e1*/, 2 /*e3*/};
  std::vector<EdgeId> out;
  expander.GenerateCandidates(m, 2, &out);
  EXPECT_EQ(out, (std::vector<EdgeId>{4}));  // e5
}

TEST(CandidatesTest, ScanStepReturnsWholeTable) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {0, 1, 2});
  ASSERT_TRUE(plan.ok());
  Expander expander(idx, plan.value());
  std::vector<EdgeId> out;
  expander.GenerateCandidates(nullptr, 0, &out);
  EXPECT_EQ(out, (std::vector<EdgeId>{0, 1}));  // e1, e2: the {A,B} table
}

TEST(CandidatesTest, MissingSignatureYieldsNoCandidates) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  // Query with a hyperedge signature {B,C} absent from the data.
  Hypergraph q;
  const VertexId b = q.AddVertex(1);
  const VertexId c = q.AddVertex(2);
  (void)q.AddEdge({b, c});
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {0});
  ASSERT_TRUE(plan.ok());
  Expander expander(idx, plan.value());
  std::vector<EdgeId> out = {99};
  expander.GenerateCandidates(nullptr, 0, &out);
  EXPECT_TRUE(out.empty());
}

TEST(CandidatesTest, ExcludesAlreadyMatchedEdges) {
  // Data: triangle-ish structure where the same signature table serves two
  // steps; the edge already used must not be offered again.
  Hypergraph h;
  h.AddVertices(4, 0);  // all label A
  (void)h.AddEdge({0, 1});
  (void)h.AddEdge({1, 2});
  (void)h.AddEdge({2, 3});
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(h));

  Hypergraph q;
  q.AddVertices(3, 0);
  (void)q.AddEdge({0, 1});
  (void)q.AddEdge({1, 2});
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {0, 1});
  ASSERT_TRUE(plan.ok());
  Expander expander(idx, plan.value());

  const EdgeId m[] = {1 /*{1,2}*/};
  std::vector<EdgeId> out;
  expander.GenerateCandidates(m, 1, &out);
  // Neighbours of data edge {1,2} with signature {A,A}: {0,1} and {2,3};
  // the matched edge itself is excluded.
  EXPECT_EQ(out, (std::vector<EdgeId>{0, 2}));
}

// One call site of the Expander API: extend `prefix` at step prefix.size().
struct PartialEmbedding {
  std::vector<EdgeId> prefix;
  uint32_t step() const { return static_cast<uint32_t>(prefix.size()); }
};

// Up to `cap` partial embeddings of `plan` (the empty one first), in
// depth-first order.
std::vector<PartialEmbedding> CollectPartialEmbeddings(
    const IndexedHypergraph& idx, const QueryPlan& plan, size_t cap) {
  std::vector<PartialEmbedding> out;
  Expander expander(idx, plan);
  MatchStats stats;
  std::vector<EdgeId> m;
  auto visit = [&](auto& self) -> void {
    if (out.size() >= cap || m.size() >= plan.NumSteps()) return;
    out.push_back({m});
    std::vector<EdgeId> valid;
    expander.Expand(m.data(), static_cast<uint32_t>(m.size()), &valid, &stats);
    for (EdgeId c : valid) {
      m.push_back(c);
      self(self);
      m.pop_back();
    }
  };
  visit(visit);
  return out;
}

// Everything the Expander API answers about one partial embedding.
struct ExpandOutcome {
  std::vector<EdgeId> valid;        // Expand
  uint64_t candidates = 0;          // Expand's counters
  uint64_t filtered = 0;
  std::vector<EdgeId> generated;    // GenerateCandidates
  std::vector<int> checks;          // IsValidEmbedding per generated edge:
                                    // 2 valid, 1 count ok only, 0 neither
  bool operator==(const ExpandOutcome&) const = default;
};

ExpandOutcome ExpectedOutcome(const IndexedHypergraph& idx,
                              const QueryPlan& plan,
                              const PartialEmbedding& pe) {
  // A fresh Expander on a fresh thread: no state shared with any other
  // call.
  ExpandOutcome out;
  std::thread([&] {
    Expander expander(idx, plan);
    MatchStats stats;
    expander.Expand(pe.prefix.data(), pe.step(), &out.valid, &stats);
    out.candidates = stats.candidates;
    out.filtered = stats.filtered;
    expander.GenerateCandidates(pe.prefix.data(), pe.step(), &out.generated);
    for (EdgeId c : out.generated) {
      bool count_ok = false;
      const bool valid =
          expander.IsValidEmbedding(pe.prefix.data(), pe.step(), c, &count_ok);
      out.checks.push_back(valid ? 2 : count_ok ? 1 : 0);
    }
  }).join();
  return out;
}

// Expanders of different plans over data hypergraphs of different |V|
// share one thread's step-mask array. Interleaving their Expand,
// GenerateCandidates and IsValidEmbedding calls on one thread must give
// exactly the answers of fresh Expanders, which holds only if every call
// leaves the array all-zero. One more Expander is rebound to the side of
// every call, as a pool worker rebinds its one Expander to the query of
// each task: Rebind must leave nothing of the previous (data, plan) pair.
TEST(CandidatesTest, InterleavedExpandersMatchFreshOnes) {
  GeneratorConfig big_config;
  big_config.seed = 11;
  big_config.num_vertices = 3000;
  big_config.num_edges = 6000;
  big_config.num_labels = 2;
  big_config.arity_min = 2;
  big_config.arity_max = 4;
  big_config.vertex_skew = 0.9;
  const IndexedHypergraph small_idx =
      IndexedHypergraph::Build(FindDatasetProfile("SB")->Generate(0.05));
  const IndexedHypergraph big_idx =
      IndexedHypergraph::Build(GenerateHypergraph(big_config));
  ASSERT_LT(small_idx.graph().NumVertices(), 100u);
  ASSERT_GT(big_idx.graph().NumVertices(), 1000u);

  struct Side {
    const IndexedHypergraph* idx;
    QueryPlan plan;
    std::vector<PartialEmbedding> calls;
    std::vector<ExpandOutcome> expected;
  };
  std::vector<Side> sides;
  for (const IndexedHypergraph* idx : {&small_idx, &big_idx}) {
    std::vector<Hypergraph> queries =
        SampleQueries(idx->graph(), kQ4, 1, 0x1A7E);
    ASSERT_EQ(queries.size(), 1u);
    Result<QueryPlan> plan = BuildQueryPlan(queries[0], *idx);
    ASSERT_TRUE(plan.ok());
    Side side{idx, std::move(plan).value(), {}, {}};
    side.calls = CollectPartialEmbeddings(*idx, side.plan, 40);
    for (const PartialEmbedding& pe : side.calls) {
      side.expected.push_back(ExpectedOutcome(*idx, side.plan, pe));
    }
    sides.push_back(std::move(side));
  }
  // The queries must have more than a SCAN to interleave.
  for (const Side& side : sides) ASSERT_GT(side.calls.size(), 3u);

  Expander a(*sides[0].idx, sides[0].plan);
  Expander b(*sides[1].idx, sides[1].plan);
  Expander rebound(*sides[1].idx, sides[1].plan);
  Expander* per_side[] = {&a, &b};
  const size_t rounds =
      std::max(sides[0].calls.size(), sides[1].calls.size());
  // Round r runs each API call on the r-th partial embedding of both
  // sides, alternating sides between every single call. got[0] holds the
  // answers of the per-side Expanders, got[1] those of `rebound`.
  std::vector<ExpandOutcome> got[2][2];
  for (size_t r = 0; r < rounds; ++r) {
    for (int phase = 0; phase < 3; ++phase) {
      for (int k = 0; k < 4; ++k) {
        const int x = (k + static_cast<int>(r)) % 2;  // who goes first
        const int variant = k / 2;
        const Side& side = sides[x];
        if (r >= side.calls.size()) continue;
        const PartialEmbedding& pe = side.calls[r];
        Expander& ex = variant == 0 ? *per_side[x] : rebound;
        if (variant == 1) rebound.Rebind(*side.idx, side.plan);
        if (phase == 0) got[variant][x].emplace_back();
        ExpandOutcome& o = got[variant][x].back();
        if (phase == 0) {
          MatchStats stats;
          ex.Expand(pe.prefix.data(), pe.step(), &o.valid, &stats);
          o.candidates = stats.candidates;
          o.filtered = stats.filtered;
        } else if (phase == 1) {
          ex.GenerateCandidates(pe.prefix.data(), pe.step(), &o.generated);
        } else {
          for (EdgeId c : o.generated) {
            bool count_ok = false;
            const bool valid =
                ex.IsValidEmbedding(pe.prefix.data(), pe.step(), c, &count_ok);
            o.checks.push_back(valid ? 2 : count_ok ? 1 : 0);
          }
        }
      }
    }
  }
  for (int variant = 0; variant < 2; ++variant) {
    for (int x = 0; x < 2; ++x) {
      const std::vector<ExpandOutcome>& g = got[variant][x];
      ASSERT_EQ(g.size(), sides[x].expected.size());
      for (size_t r = 0; r < g.size(); ++r) {
        EXPECT_TRUE(g[r] == sides[x].expected[r])
            << (variant == 0 ? "per-side" : "rebound") << " side " << x
            << " call " << r << " at step " << sides[x].calls[r].step();
      }
    }
  }
}

// Fig 4 of the paper: a candidate that passes the vertex-count check but
// fails profile validation. Partial query: e0={u0,u1} (B,A),
// e1={u2,u3,u4,u5}? — we reproduce the *structure*: the multiset of
// profiles differs although counts agree.
TEST(ValidationTest, RejectsProfileMismatch) {
  // Data: v0(B) v1..v5(A); edges d0={v0,v1}, d1={v3,v4,v5}, d2={v1,v2,v3}.
  Hypergraph h;
  const Label A = 0, B = 1;
  h.AddVertex(B);
  for (int i = 0; i < 5; ++i) h.AddVertex(A);
  const EdgeId d0 = h.AddEdge({0, 1}).value();
  const EdgeId d1 = h.AddEdge({3, 4, 5}).value();
  const EdgeId d2 = h.AddEdge({1, 2, 3}).value();
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(h));

  // Query: u0(B) u1..u5(A); q0={u0,u1}, q1={u3,u4,u5}, q2={u2,u3,u4}.
  // Here q2 intersects q1 in TWO vertices (u3,u4) and is disjoint from q0.
  Hypergraph q;
  q.AddVertex(B);
  for (int i = 0; i < 5; ++i) q.AddVertex(A);
  (void)q.AddEdge({0, 1});
  (void)q.AddEdge({3, 4, 5});
  (void)q.AddEdge({2, 3, 4});
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {0, 1, 2});
  ASSERT_TRUE(plan.ok());
  Expander expander(idx, plan.value());

  // Candidate d2={v1,v2,v3} for q2: touches d0 (via v1) although q2 is
  // non-adjacent to q0, and shares only ONE vertex with d1 (v3) although
  // q2 shares two with q1. Vertex count: |V(q')| = 6;
  // |V(m')| with m'=(d0,d1,d2) = 6 as well => count check passes, profile
  // check must reject.
  const EdgeId m[] = {d0, d1};
  bool count_ok = false;
  EXPECT_FALSE(expander.IsValidEmbedding(m, 2, d2, &count_ok));
  EXPECT_TRUE(count_ok);
  // The exact class check agrees.
  const EdgeId full[] = {d0, d1, d2};
  const EdgeId order[] = {0, 1, 2};
  EXPECT_FALSE(
      EmbeddingConsistent(q, idx.graph(), order, full, 3));
}

TEST(ValidationTest, AcceptsPaperEmbeddings) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {0, 1, 2});
  ASSERT_TRUE(plan.ok());
  Expander expander(idx, plan.value());

  bool count_ok = false;
  const EdgeId m1[] = {0, 2};
  EXPECT_TRUE(expander.IsValidEmbedding(m1, 2, 4, &count_ok));  // + e5
  EXPECT_TRUE(count_ok);
  const EdgeId m2[] = {1, 3};
  EXPECT_TRUE(expander.IsValidEmbedding(m2, 2, 5, &count_ok));  // + e6
  // Cross combination is invalid: (e1, e3) + e6.
  EXPECT_FALSE(expander.IsValidEmbedding(m1, 2, 5, &count_ok));

  // VerifyExact agrees on the two full embeddings.
  const EdgeId full1[] = {0, 2, 4};
  const EdgeId full2[] = {1, 3, 5};
  EXPECT_TRUE(expander.VerifyExact(full1, 3));
  EXPECT_TRUE(expander.VerifyExact(full2, 3));
}

TEST(ValidationTest, VertexCountCheckFiltersEarly) {
  // Candidate sharing too many vertices with the partial embedding fails
  // the Observation V.5 check (count_ok == false).
  Hypergraph h;
  h.AddVertices(5, 0);
  const EdgeId d0 = h.AddEdge({0, 1, 2}).value();
  const EdgeId d1 = h.AddEdge({0, 1, 3}).value();
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(h));

  // Query expects the two edges to share exactly one vertex.
  Hypergraph q;
  q.AddVertices(5, 0);
  (void)q.AddEdge({0, 1, 2});
  (void)q.AddEdge({2, 3, 4});
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {0, 1});
  ASSERT_TRUE(plan.ok());
  Expander expander(idx, plan.value());

  const EdgeId m[] = {d0};
  bool count_ok = true;
  EXPECT_FALSE(expander.IsValidEmbedding(m, 1, d1, &count_ok));
  EXPECT_FALSE(count_ok);  // 4 distinct data vertices != 5 query vertices
}

TEST(ValidationTest, RejectsCandidateFromAnotherSignatureTable) {
  // The kernel checks Theorem V.2 on shared vertices only, which is exact
  // for candidates from the step's signature table. A same-arity candidate
  // from another table must still be rejected by the standalone check.
  const Label A = 0, B = 1;
  Hypergraph h;
  h.AddVertex(A);  // v0
  h.AddVertex(A);  // v1
  h.AddVertex(B);  // v2
  h.AddVertex(A);  // v3
  const EdgeId d0 = h.AddEdge({0, 1}).value();  // {A,A}
  const EdgeId d1 = h.AddEdge({1, 2}).value();  // {A,B}
  const EdgeId d2 = h.AddEdge({1, 3}).value();  // {A,A}
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(h));

  // q0 = {u0,u1} (A,A) then q1 = {u1,u2} (A,B): the shared vertex u1 has
  // profile (A, {0}), which d2's shared vertex v1 matches; d2's new vertex
  // is an A where the query's is a B.
  Hypergraph q;
  q.AddVertex(A);
  q.AddVertex(A);
  q.AddVertex(B);
  (void)q.AddEdge({0, 1});
  (void)q.AddEdge({1, 2});
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {0, 1});
  ASSERT_TRUE(plan.ok());
  Expander expander(idx, plan.value());

  const EdgeId m[] = {d0};
  bool count_ok = false;
  EXPECT_TRUE(expander.IsValidEmbedding(m, 1, d1, &count_ok));
  EXPECT_TRUE(count_ok);
  count_ok = true;
  EXPECT_FALSE(expander.IsValidEmbedding(m, 1, d2, &count_ok));
  EXPECT_FALSE(count_ok);
  // Step 0 takes only {A,A} edges.
  EXPECT_TRUE(expander.IsValidEmbedding(nullptr, 0, d2, &count_ok));
  EXPECT_FALSE(expander.IsValidEmbedding(nullptr, 0, d1, &count_ok));
}

TEST(EmbeddingConsistentTest, SymmetricVerticesAllowAnyBijection) {
  // Two query vertices with identical labels and incidence are
  // interchangeable; the class check must accept.
  Hypergraph h;
  h.AddVertices(3, 0);
  const EdgeId d0 = h.AddEdge({0, 1, 2}).value();
  Hypergraph q;
  q.AddVertices(3, 0);
  (void)q.AddEdge({0, 1, 2});
  const EdgeId order[] = {0};
  const EdgeId matched[] = {d0};
  EXPECT_TRUE(EmbeddingConsistent(q, h, order, matched, 1));
}

TEST(EmbeddingConsistentTest, LabelMultiplicityMismatchRejected) {
  Hypergraph h;
  h.AddVertex(0);
  h.AddVertex(0);
  h.AddVertex(1);
  const EdgeId d0 = h.AddEdge({0, 1, 2}).value();  // labels {A,A,B}
  Hypergraph q;
  q.AddVertex(0);
  q.AddVertex(1);
  q.AddVertex(1);
  (void)q.AddEdge({0, 1, 2});  // labels {A,B,B}
  const EdgeId order[] = {0};
  const EdgeId matched[] = {d0};
  EXPECT_FALSE(EmbeddingConsistent(q, h, order, matched, 1));
}

}  // namespace
}  // namespace hgmatch
