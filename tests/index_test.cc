#include <gtest/gtest.h>

#include <span>

#include "core/indexed_hypergraph.h"
#include "core/partition.h"
#include "tests/test_fixtures.h"

namespace hgmatch {
namespace {

EdgeSet Ids(std::span<const EdgeId> postings) {
  return EdgeSet(postings.begin(), postings.end());
}

// Table I of the paper: the data hypergraph of Fig 1b partitions into three
// hyperedge tables with signatures {A,B}, {A,A,C} and {A,A,B,C}.
TEST(IndexedHypergraphTest, PaperTableOnePartitions) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  ASSERT_EQ(idx.partitions().size(), 3u);

  const Signature ab{0, 1}, aac{0, 0, 2}, aabc{0, 0, 1, 2};
  const Partition* p1 = idx.FindPartition(ab);
  const Partition* p2 = idx.FindPartition(aac);
  const Partition* p3 = idx.FindPartition(aabc);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  ASSERT_NE(p3, nullptr);

  // Partition 1: e1={v2,v4}, e2={v4,v6}.
  EXPECT_EQ(p1->edges(), (EdgeSet{0, 1}));
  // Partition 2: e3, e4.
  EXPECT_EQ(p2->edges(), (EdgeSet{2, 3}));
  // Partition 3: e5, e6.
  EXPECT_EQ(p3->edges(), (EdgeSet{4, 5}));
}

// Table I's inverted index: v4 -> [e1, e2] in partition 1; v4 -> [e5, e6]
// in partition 3; v0 -> [e3] in partition 2.
TEST(IndexedHypergraphTest, PaperTableOneInvertedIndex) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  EXPECT_EQ(Ids(idx.Postings({0, 1}, 4)), (EdgeSet{0, 1}));
  EXPECT_EQ(Ids(idx.Postings({0, 0, 1, 2}, 4)), (EdgeSet{4, 5}));
  EXPECT_EQ(Ids(idx.Postings({0, 0, 2}, 0)), (EdgeSet{2}));
  // v0 never occurs in partition 1.
  EXPECT_TRUE(idx.Postings({0, 1}, 0).empty());
  // Unknown signature: empty postings, zero cardinality.
  EXPECT_TRUE(idx.Postings({2, 2}, 0).empty());
  EXPECT_EQ(idx.Cardinality({2, 2}), 0u);
}

TEST(IndexedHypergraphTest, CardinalityIsTableSize) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  EXPECT_EQ(idx.Cardinality({0, 1}), 2u);
  EXPECT_EQ(idx.Cardinality({0, 0, 2}), 2u);
  EXPECT_EQ(idx.Cardinality({0, 0, 1, 2}), 2u);
}

TEST(IndexedHypergraphTest, PartitionOfMapsEveryEdge) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  for (EdgeId e = 0; e < idx.graph().NumEdges(); ++e) {
    const PartitionId p = idx.PartitionOf(e);
    ASSERT_LT(p, idx.partitions().size());
    const EdgeSet& edges = idx.partitions()[p].edges();
    EXPECT_TRUE(std::find(edges.begin(), edges.end(), e) != edges.end());
  }
}

// Invariants on a random hypergraph: every posting list is sorted, contains
// exactly the incident edges of that signature, and partition sizes sum to
// |E|. Size analysis: index is O(a_H * |E|) (Section IV.C).
class IndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexPropertyTest, Invariants) {
  Hypergraph h = GenerateHypergraph(SmallRandomConfig(GetParam()));
  const uint64_t incidences = h.NumIncidences();
  const size_t num_edges = h.NumEdges();
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(h));
  const Hypergraph& g = idx.graph();

  size_t total = 0;
  uint64_t posting_entries = 0;
  for (const Partition& p : idx.partitions()) {
    total += p.size();
    EXPECT_TRUE(std::is_sorted(p.edges().begin(), p.edges().end()));
    for (EdgeId e : p.edges()) {
      EXPECT_EQ(SignatureOf(g, e), p.signature());
      EXPECT_EQ(idx.PartitionOf(e), p.id());
      // Every member vertex's posting list contains e.
      for (VertexId v : g.edge(e)) {
        const std::span<const EdgeId> postings = p.Postings(v);
        EXPECT_TRUE(std::binary_search(postings.begin(), postings.end(), e));
        EXPECT_TRUE(std::is_sorted(postings.begin(), postings.end()));
      }
      posting_entries += g.arity(e);
    }
  }
  EXPECT_EQ(total, num_edges);
  EXPECT_EQ(posting_entries, incidences);
  // Lightweight index: per incidence one posting and at most one key and
  // one offset (12 B), per hyperedge its table entry and its edge-to-table
  // entry (8 B), per table a header and a signature of at most 2x its
  // arity (the edge-label key may double the signature's capacity), and
  // the signature lookup table: 8 B slots, a power of two at most half full
  // (2 to 4 per table, or 1 slot with no table).
  uint64_t keys = 0;
  for (const Partition& p : idx.partitions()) keys += p.NumIndexedVertices();
  const uint64_t tables = idx.partitions().size();
  EXPECT_GE(idx.IndexBytes(), 4 * (incidences + keys + 1) + 8 * num_edges +
                                  (sizeof(Partition) + 16) * tables);
  EXPECT_LE(idx.IndexBytes(),
            12 * incidences + 8 * num_edges + 4 + 8 +
                (sizeof(Partition) + 8 * (g.MaxArity() + 1) + 32) * tables);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

// Exact oracle for the inverted index: for every table and every vertex id
// (and the first ids past the last vertex), Postings(v) is
// {e in he(v) : PartitionOf(e) = table}, through the table and through the
// signature lookup, and NumIndexedVertices counts the vertices whose list
// is non-empty.
void ExpectExactIndex(const IndexedHypergraph& idx) {
  const Hypergraph& g = idx.graph();
  for (const Partition& p : idx.partitions()) {
    size_t distinct = 0;
    for (VertexId v = 0; v < g.NumVertices() + 2; ++v) {
      EdgeSet expect;
      if (v < g.NumVertices()) {
        for (EdgeId e : g.incident(v)) {
          if (idx.PartitionOf(e) == p.id()) expect.push_back(e);
        }
      }
      EXPECT_EQ(Ids(p.Postings(v)), expect)
          << "table " << p.id() << ", vertex " << v;
      EXPECT_EQ(Ids(idx.Postings(p.signature(), v)), expect);
      if (!expect.empty()) ++distinct;
    }
    EXPECT_TRUE(p.Postings(kInvalidVertex).empty());
    EXPECT_EQ(p.NumIndexedVertices(), distinct) << "table " << p.id();
  }
}

// Appends an isolated vertex, so the largest id occurs in no table.
Hypergraph WithIsolatedVertex(Hypergraph h) {
  h.AddVertex(0);
  return h;
}

TEST(IndexedHypergraphTest, PaperIndexMatchesOracle) {
  IndexedHypergraph idx =
      IndexedHypergraph::Build(WithIsolatedVertex(PaperDataHypergraph()));
  ExpectExactIndex(idx);
  // Table {A,A,C} holds e3={v0,v1,v2} and e4={v3,v5,v6}: v0 is its first
  // key, v4 falls between two keys, and the isolated v7 is in no table.
  const Partition* aac = idx.FindPartition({0, 0, 2});
  ASSERT_NE(aac, nullptr);
  EXPECT_EQ(aac->NumIndexedVertices(), 6u);
  EXPECT_EQ(Ids(aac->Postings(0)), (EdgeSet{2}));
  EXPECT_TRUE(aac->Postings(4).empty());
  EXPECT_TRUE(aac->Postings(7).empty());
  EXPECT_EQ(Ids(aac->Postings(6)), (EdgeSet{3}));
}

class IndexOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexOracleTest, RandomGraph) {
  ExpectExactIndex(IndexedHypergraph::Build(WithIsolatedVertex(
      GenerateHypergraph(SmallRandomConfig(GetParam())))));
}

// Hyperedge labels split a signature into several tables, one per label.
TEST_P(IndexOracleTest, EdgeLabelledRandomGraph) {
  const Hypergraph plain = GenerateHypergraph(SmallRandomConfig(GetParam()));
  Hypergraph h;
  for (VertexId v = 0; v < plain.NumVertices(); ++v) {
    h.AddVertex(plain.label(v));
  }
  for (EdgeId e = 0; e < plain.NumEdges(); ++e) {
    ASSERT_TRUE(h.AddEdge(plain.edge(e), e % 3).ok());
  }
  ExpectExactIndex(IndexedHypergraph::Build(WithIsolatedVertex(std::move(h))));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexOracleTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace hgmatch
