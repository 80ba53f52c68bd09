#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <vector>

#include "core/hgmatch.h"
#include "core/indexed_hypergraph.h"
#include "core/partition.h"
#include "core/reference.h"
#include "gen/query_gen.h"
#include "parallel/executor.h"
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
  EXPECT_EQ(Ids(p1->edges()), (EdgeSet{0, 1}));
  // Partition 2: e3, e4.
  EXPECT_EQ(Ids(p2->edges()), (EdgeSet{2, 3}));
  // Partition 3: e5, e6.
  EXPECT_EQ(Ids(p3->edges()), (EdgeSet{4, 5}));
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
    const std::span<const EdgeId> edges = idx.partitions()[p].edges();
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
      EXPECT_EQ(SignatureOf(g, e), SignatureOf(g, p.edges()[0]));
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
  // Lightweight index, counted exactly: every array is sized once. Per
  // table a header, two directory words (plus one each at the end) and
  // the signature lookup table's 8 B slots, a power of two at most half
  // full (1 slot with no table); per hyperedge its table entry and its
  // edge-to-table entry; and only for tables of two or more hyperedges,
  // per distinct vertex a key and an offset (plus one end offset) and per
  // incidence a posting.
  uint64_t keys = 0, postings = 0;
  for (const Partition& p : idx.partitions()) {
    if (p.size() < 2) continue;
    keys += p.NumIndexedVertices();
    for (EdgeId e : p.edges()) postings += g.arity(e);
  }
  const uint64_t tables = idx.partitions().size();
  EXPECT_EQ(idx.IndexBytes(),
            sizeof(Partition) * tables + 4 * 2 * (tables + 1) +
                8 * std::bit_ceil(std::max<uint64_t>(1, 2 * tables)) +
                4 * 2 * num_edges + 4 * (2 * keys + 1 + postings));
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
      EXPECT_EQ(Ids(idx.Postings(SignatureKeyOf(g, p.edges()[0]), v)),
                expect);
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

// A label-rich random hypergraph: with 12 labels over arities 3 to 6
// nearly every signature is unique, so most tables hold one hyperedge and
// are served without an inverted index. Odd seeds add hyperedge labels.
Hypergraph LabelRichHypergraph(uint64_t seed) {
  GeneratorConfig config = SmallRandomConfig(seed);
  config.num_labels = 12;
  config.arity_min = 3;
  config.label_skew = 0;
  const Hypergraph plain = GenerateHypergraph(config);
  Hypergraph h;
  for (VertexId v = 0; v < plain.NumVertices(); ++v) {
    h.AddVertex(plain.label(v));
  }
  for (EdgeId e = 0; e < plain.NumEdges(); ++e) {
    EXPECT_TRUE(h.AddEdge(plain.edge(e), seed % 2 == 1 ? e % 2 : 0).ok());
  }
  return WithIsolatedVertex(std::move(h));
}

// The table of any hyperedge whose key is `s`, found by a scan.
const Partition* TableOfKey(const IndexedHypergraph& idx, const Signature& s) {
  for (EdgeId e = 0; e < idx.graph().NumEdges(); ++e) {
    if (SignatureKeyOf(idx.graph(), e) == s) {
      return &idx.partitions()[idx.PartitionOf(e)];
    }
  }
  return nullptr;
}

class OneEdgeTableTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OneEdgeTableTest, PostingsMatchOracle) {
  const IndexedHypergraph idx =
      IndexedHypergraph::Build(LabelRichHypergraph(GetParam()));
  size_t one_edge = 0;
  for (const Partition& p : idx.partitions()) one_edge += p.size() == 1;
  ASSERT_GT(2 * one_edge, idx.partitions().size());
  ExpectExactIndex(idx);
}

// Lookups of every table's key with one label's multiplicity changed, and
// with its hyperedge label changed, find exactly the table a scan finds.
TEST_P(OneEdgeTableTest, LookupsMatchOracle) {
  const IndexedHypergraph idx =
      IndexedHypergraph::Build(LabelRichHypergraph(GetParam()));
  const Hypergraph& g = idx.graph();
  for (const Partition& p : idx.partitions()) {
    const EdgeId first = p.edges()[0];
    const Signature labels = SignatureOf(g, first);
    const Signature edge_label =
        g.edge_label(first) == 0
            ? Signature{}
            : Signature{kEdgeLabelKeyBit | g.edge_label(first)};
    std::vector<Signature> variants;
    for (size_t i = 0; i < labels.size(); ++i) {
      // One more copy of labels[i], one fewer, and one copy traded for
      // another label of the key.
      Signature more = labels;
      more.insert(more.begin() + static_cast<ptrdiff_t>(i), labels[i]);
      variants.push_back(more);
      if (std::count(labels.begin(), labels.end(), labels[i]) < 2) continue;
      Signature fewer = labels;
      fewer.erase(fewer.begin() + static_cast<ptrdiff_t>(i));
      variants.push_back(fewer);
      for (Label other : labels) {
        if (other == labels[i]) continue;
        Signature traded = labels;
        traded[i] = other;
        std::sort(traded.begin(), traded.end());
        variants.push_back(traded);
      }
    }
    for (Signature& v : variants) {
      v.insert(v.end(), edge_label.begin(), edge_label.end());
    }
    for (Label l = 0; l < 3; ++l) {
      Signature relabelled = labels;
      if (l != 0) relabelled.push_back(kEdgeLabelKeyBit | l);
      variants.push_back(relabelled);
    }
    for (const Signature& s : variants) {
      const Partition* expect = TableOfKey(idx, s);
      EXPECT_EQ(idx.FindPartition(s), expect) << SignatureToString(s);
      EXPECT_EQ(idx.Cardinality(s), expect == nullptr ? 0 : expect->size());
    }
    EXPECT_EQ(idx.FindPartition(SignatureKeyOf(g, first)), &p);
  }
}

// Random-walk queries through both engines, against the brute force.
TEST_P(OneEdgeTableTest, EnginesMatchOracle) {
  const IndexedHypergraph idx =
      IndexedHypergraph::Build(LabelRichHypergraph(GetParam()));
  Rng rng(GetParam() * 31 + 7);
  for (uint32_t num_edges : {2u, 3u}) {
    const QuerySettings settings{"t", num_edges, 2, 100};
    const Result<Hypergraph> q = SampleQuery(idx.graph(), settings, &rng);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    CollectSink oracle_sink, seq_sink, par_sink;
    const MatchStats oracle =
        ReferenceEdgeTupleMatch(idx, q.value(), {}, &oracle_sink);
    std::vector<EdgeId> natural(num_edges);
    std::iota(natural.begin(), natural.end(), 0);
    const std::vector<Embedding> expect =
        NormalizeEmbeddings(oracle_sink.embeddings(), natural);

    const Result<QueryPlan> plan = BuildQueryPlan(q.value(), idx);
    ASSERT_TRUE(plan.ok());
    const Result<MatchStats> seq =
        MatchSequential(idx, q.value(), {}, &seq_sink);
    ASSERT_TRUE(seq.ok());
    ParallelOptions options;
    options.num_threads = 2;
    options.scan_grain = 1;
    const Result<ParallelResult> par =
        MatchParallel(idx, q.value(), options, &par_sink);
    ASSERT_TRUE(par.ok());
    EXPECT_EQ(seq.value().embeddings, oracle.embeddings);
    EXPECT_EQ(par.value().stats.embeddings, oracle.embeddings);
    EXPECT_EQ(NormalizeEmbeddings(seq_sink.embeddings(), plan.value().Order()),
              expect);
    EXPECT_EQ(NormalizeEmbeddings(par_sink.embeddings(), plan.value().Order()),
              expect);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneEdgeTableTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace hgmatch
