#include "core/hypergraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "core/signature.h"
#include "util/rng.h"
#include "util/set_ops.h"

namespace hgmatch {
namespace {

// Builds the paper's running example (Fig 1b): 7 vertices, 6 hyperedges.
// Labels: A=0, B=1, C=2.
Hypergraph PaperDataHypergraph() {
  Hypergraph h;
  const Label A = 0, B = 1, C = 2;
  // v0..v6 with labels A, C, A, A, B, C, A (Fig 1b).
  for (Label l : {A, C, A, A, B, C, A}) h.AddVertex(l);
  EXPECT_TRUE(h.AddEdge({2, 4}).ok());           // e1 = {v2, v4}
  EXPECT_TRUE(h.AddEdge({4, 6}).ok());           // e2 = {v4, v6}
  EXPECT_TRUE(h.AddEdge({0, 1, 2}).ok());        // e3 = {v0, v1, v2}
  EXPECT_TRUE(h.AddEdge({3, 5, 6}).ok());        // e4 = {v3, v5, v6}
  EXPECT_TRUE(h.AddEdge({0, 1, 4, 6}).ok());     // e5 = {v0, v1, v4, v6}
  EXPECT_TRUE(h.AddEdge({2, 3, 4, 5}).ok());     // e6 = {v2, v3, v4, v5}
  return h;
}

TEST(HypergraphTest, BasicCounts) {
  Hypergraph h = PaperDataHypergraph();
  EXPECT_EQ(h.NumVertices(), 7u);
  EXPECT_EQ(h.NumEdges(), 6u);
  EXPECT_EQ(h.NumLabels(), 3u);
  EXPECT_EQ(h.MaxArity(), 4u);
  EXPECT_DOUBLE_EQ(h.AverageArity(), (2 + 2 + 3 + 3 + 4 + 4) / 6.0);
  EXPECT_EQ(h.NumIncidences(), 18u);
}

TEST(HypergraphTest, EdgeCanonicalisation) {
  Hypergraph h;
  h.AddVertices(4, 0);
  Result<EdgeId> e = h.AddEdge({3, 1, 3, 2});
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(std::ranges::equal(h.edge(e.value()), VertexSet{1, 2, 3}));
  EXPECT_EQ(h.arity(e.value()), 3u);
}

TEST(HypergraphTest, DuplicateEdgeReturnsExistingId) {
  Hypergraph h;
  h.AddVertices(4, 0);
  Result<EdgeId> first = h.AddEdge({0, 1});
  Result<EdgeId> dup = h.AddEdge({1, 0});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(first.value(), dup.value());
  EXPECT_EQ(h.NumEdges(), 1u);
}

TEST(HypergraphTest, AddsAnEdgeReadFromItself) {
  // The source span points into the array AddEdge appends to.
  Hypergraph h = PaperDataHypergraph();
  for (EdgeId e = 0; e < 6; ++e) {
    ASSERT_EQ(h.AddEdge(h.edge(e), 1).value(), 6 + e);
    EXPECT_EQ(h.AddEdge(h.edge(e), 0).value(), e);
  }
  for (EdgeId e = 0; e < 6; ++e) {
    EXPECT_TRUE(std::ranges::equal(h.edge(6 + e), h.edge(e)));
    EXPECT_EQ(h.FindEdge(h.edge(e), 1), 6 + e);
  }
}

TEST(HypergraphTest, RejectsEmptyAndUnknownVertex) {
  Hypergraph h;
  h.AddVertices(2, 0);
  EXPECT_FALSE(h.AddEdge({}).ok());
  EXPECT_FALSE(h.AddEdge({5}).ok());
}

TEST(HypergraphTest, IncidenceAndDegree) {
  Hypergraph h = PaperDataHypergraph();
  // v4 appears in e1, e2, e5, e6 (ids 0, 1, 4, 5).
  EXPECT_EQ(EdgeSet(h.incident(4)), (EdgeSet{0, 1, 4, 5}));
  EXPECT_EQ(h.degree(4), 4u);
  EXPECT_EQ(h.degree(3), 2u);
}

TEST(HypergraphTest, AdjacentVertices) {
  Hypergraph h = PaperDataHypergraph();
  // v0 is in e3={v0,v1,v2} and e5={v0,v1,v4,v6}.
  EXPECT_EQ(h.AdjacentVertices(0), (VertexSet{1, 2, 4, 6}));
}

TEST(HypergraphTest, AdjacentEdges) {
  Hypergraph h = PaperDataHypergraph();
  // e1={v2,v4} shares v2 with e3, e6 and v4 with e2, e5, e6.
  EXPECT_EQ(h.AdjacentEdges(0), (EdgeSet{1, 2, 4, 5}));
}

TEST(HypergraphTest, FindEdge) {
  Hypergraph h = PaperDataHypergraph();
  EXPECT_EQ(h.FindEdge({4, 2}), 0u);
  EXPECT_EQ(h.FindEdge({0, 1, 4, 6}), 4u);
  EXPECT_EQ(h.FindEdge({0, 1}), kInvalidEdge);
  EXPECT_EQ(h.FindEdge({0, 1, 2, 3}), kInvalidEdge);
}

TEST(HypergraphTest, Connectivity) {
  Hypergraph h = PaperDataHypergraph();
  EXPECT_TRUE(h.IsConnected());
  Hypergraph two;
  two.AddVertices(4, 0);
  ASSERT_TRUE(two.AddEdge({0, 1}).ok());
  ASSERT_TRUE(two.AddEdge({2, 3}).ok());
  EXPECT_FALSE(two.IsConnected());
}

TEST(HypergraphTest, CloneIsDeep) {
  Hypergraph h = PaperDataHypergraph();
  Hypergraph copy = h.Clone();
  copy.AddVertex(0);
  ASSERT_TRUE(copy.AddEdge({0, 7}).ok());
  EXPECT_EQ(h.NumVertices(), 7u);
  EXPECT_EQ(h.NumEdges(), 6u);
  EXPECT_EQ(copy.NumEdges(), 7u);
}

TEST(HypergraphTest, RandomAddAndFindAgreeWithAMap) {
  // Few vertices and short edges make repeated vertex sets common; three
  // labels put equal vertex sets under different labels; thousands of
  // distinct edges grow the duplicate table many times over.
  constexpr uint32_t kVertices = 60;
  Hypergraph h;
  h.AddVertices(kVertices, 0);
  std::map<std::pair<VertexSet, Label>, EdgeId> reference;
  Rng rng(2718);
  uint64_t repeats = 0, relabelled = 0;
  for (int call = 0; call < 24000; ++call) {
    VertexSet raw;
    const uint64_t arity = 1 + rng.NextBounded(4);
    for (uint64_t k = 0; k < arity; ++k) {
      raw.push_back(static_cast<VertexId>(rng.NextBounded(kVertices)));
    }
    const Label label = static_cast<Label>(rng.NextBounded(3));
    VertexSet key = raw;
    SortUnique(&key);
    const auto it = reference.find({key, label});
    if (call % 2 == 0) {
      const EdgeId expected =
          it == reference.end() ? kInvalidEdge : it->second;
      ASSERT_EQ(h.FindEdge(raw, label), expected) << "call " << call;
      continue;
    }
    Result<EdgeId> added = h.AddEdge(raw, label);
    ASSERT_TRUE(added.ok()) << "call " << call;
    if (it != reference.end()) {
      ASSERT_EQ(added.value(), it->second) << "call " << call;
      ++repeats;
      continue;
    }
    ASSERT_EQ(added.value(), reference.size()) << "call " << call;
    for (Label other = 0; other < 3; ++other) {
      relabelled += other != label && reference.count({key, other}) > 0;
    }
    reference.emplace(std::make_pair(key, label), added.value());
  }
  EXPECT_GT(repeats, 1000u);
  EXPECT_GT(relabelled, 1000u);
  ASSERT_EQ(h.NumEdges(), reference.size());
  ASSERT_GT(h.NumEdges(), 6000u);
  uint64_t incidences = 0;
  for (const auto& [key, e] : reference) {
    EXPECT_TRUE(std::ranges::equal(h.edge(e), key.first)) << "edge " << e;
    EXPECT_EQ(h.edge_label(e), key.second) << "edge " << e;
    incidences += key.first.size();
  }
  EXPECT_EQ(h.NumIncidences(), incidences);
  // he(v), built once, lists exactly the edges containing v, in id order.
  for (VertexId v = 0; v < kVertices; ++v) {
    EdgeSet expected;
    for (EdgeId e = 0; e < h.NumEdges(); ++e) {
      if (Contains(h.edge(e), v)) expected.push_back(e);
    }
    EXPECT_EQ(EdgeSet(h.incident(v)), expected) << "vertex " << v;
  }
}

TEST(HypergraphTest, ReadsAfterAnAddSeeTheNewEdge) {
  Hypergraph h = PaperDataHypergraph();
  EXPECT_EQ(EdgeSet(h.incident(3)), (EdgeSet{3, 5}));
  EXPECT_EQ(h.degree(6), 3u);
  ASSERT_EQ(h.AddEdge({3, 6}).value(), 6u);
  EXPECT_EQ(EdgeSet(h.incident(3)), (EdgeSet{3, 5, 6}));
  EXPECT_EQ(h.degree(6), 4u);
  EXPECT_EQ(h.degree(3), 3u);
  const VertexId fresh = h.AddVertex(1);
  EXPECT_EQ(h.degree(fresh), 0u);
  ASSERT_EQ(h.AddEdge({fresh, 0}).value(), 7u);
  EXPECT_EQ(EdgeSet(h.incident(fresh)), (EdgeSet{7}));
  EXPECT_EQ(EdgeSet(h.incident(0)), (EdgeSet{2, 4, 7}));
}

TEST(HypergraphTest, ConcurrentFirstReadsAgreeWithASequentialRead) {
  constexpr uint32_t kVertices = 3000;
  Hypergraph h;
  h.AddVertices(kVertices, 0);
  Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    (void)h.AddEdge({static_cast<VertexId>(rng.NextBounded(kVertices)),
                     static_cast<VertexId>(rng.NextBounded(kVertices)),
                     static_cast<VertexId>(rng.NextBounded(kVertices))});
  }
  // The clone builds its own incidence lists; the original's are still
  // unbuilt when the threads start.
  const Hypergraph copy = h.Clone();
  std::vector<EdgeSet> expected;
  for (VertexId v = 0; v < kVertices; ++v) expected.push_back(copy.incident(v));

  constexpr int kThreads = 8;
  std::atomic<int> waiting{kThreads};
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      // Half the threads start with degree(), half with incident().
      for (VertexId i = 0; i < kVertices; ++i) {
        const VertexId v = (i + static_cast<VertexId>(t) * 997) % kVertices;
        const bool ok = t % 2 == 0
                            ? h.degree(v) == expected[v].size() &&
                                  EdgeSet(h.incident(v)) == expected[v]
                            : EdgeSet(h.incident(v)) == expected[v] &&
                                  h.degree(v) == expected[v].size();
        mismatches[t] += !ok;
      }
    });
  }
  for (std::thread& r : readers) r.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

// A released duplicate check is rebuilt by the first AddEdge or FindEdge,
// and first FindEdge calls may race each other.
TEST(HypergraphTest, ReleasedEdgeSlotsAreRebuiltOnFirstUse) {
  constexpr uint32_t kVertices = 3000;
  Hypergraph h;
  h.AddVertices(kVertices, 0);
  Rng rng(47);
  for (int i = 0; i < 20000; ++i) {
    (void)h.AddEdge({static_cast<VertexId>(rng.NextBounded(kVertices)),
                     static_cast<VertexId>(rng.NextBounded(kVertices)),
                     static_cast<VertexId>(rng.NextBounded(kVertices))});
  }
  const EdgeId num_edges = static_cast<EdgeId>(h.NumEdges());
  const uint64_t bytes = h.MemoryBytes();
  h.ReleaseEdgeSlots();
  EXPECT_LT(h.MemoryBytes(), bytes);
  const VertexSet first(h.edge(0).begin(), h.edge(0).end());
  EXPECT_EQ(h.AddEdge(first).value(), 0u);
  ASSERT_EQ(h.AddEdge({0, 1, 2, 3}).value(), num_edges);

  h.ReleaseEdgeSlots();
  constexpr int kThreads = 8;
  std::atomic<int> waiting{kThreads};
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      for (EdgeId i = 0; i <= num_edges; ++i) {
        const EdgeId e = (i + static_cast<EdgeId>(t) * 997) % (num_edges + 1);
        mismatches[t] += h.FindEdge(h.edge(e)) != e;
        mismatches[t] += h.FindEdge(h.edge(e), 1) != kInvalidEdge;
      }
    });
  }
  for (std::thread& r : readers) r.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(SignatureTest, PaperExample) {
  Hypergraph h = PaperDataHypergraph();
  // S(e1) = {A, B}: labels of v2 (A) and v4 (B).
  EXPECT_EQ(SignatureOf(h, 0), (Signature{0, 1}));
  // S(e3) = {A, A, C}.
  EXPECT_EQ(SignatureOf(h, 2), (Signature{0, 0, 2}));
  // S(e5) = {A, A, B, C}.
  EXPECT_EQ(SignatureOf(h, 4), (Signature{0, 0, 1, 2}));
  // e5 and e6 share a signature; e1 and e2 share a signature.
  EXPECT_EQ(SignatureOf(h, 4), SignatureOf(h, 5));
  EXPECT_EQ(SignatureOf(h, 0), SignatureOf(h, 1));
  EXPECT_EQ(SignatureToString(SignatureOf(h, 2)), "{A,A,C}");
}

TEST(SignatureTest, HashDistinguishes) {
  EXPECT_NE(HashSignature({0, 1}), HashSignature({0, 0, 1}));
  EXPECT_NE(HashSignature({0}), HashSignature({1}));
  EXPECT_EQ(HashSignature({2, 3, 3}), HashSignature({2, 3, 3}));
}

}  // namespace
}  // namespace hgmatch
