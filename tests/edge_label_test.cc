// Tests of the edge-labelled hypergraph extension (paper footnote 2):
// hyperedge labels become part of the partition key, so every engine
// (HGMatch sequential/parallel, the oracles, the match-by-vertex baselines,
// the bipartite strawman) enforces hyperedge-label equality for free.

#include <gtest/gtest.h>

#include "baseline/backtracking.h"
#include "baseline/bipartite.h"
#include "core/hgmatch.h"
#include "core/reference.h"
#include "core/signature.h"
#include "io/binary_format.h"
#include "io/loader.h"
#include "io/writer.h"
#include "parallel/executor.h"
#include "tests/test_fixtures.h"

namespace hgmatch {
namespace {

// A tiny typed knowledge base where relation type lives on the hyperedge:
// the same entity triple appears under two different relations.
// Vertex labels: 0 = person, 1 = company.
// Edge labels: 1 = "works_at", 2 = "invested_in".
struct LabeledKb {
  Hypergraph data;
  VertexId alice, bob, carol, acme, globex;

  LabeledKb() {
    alice = data.AddVertex(0);
    bob = data.AddVertex(0);
    carol = data.AddVertex(0);
    acme = data.AddVertex(1);
    globex = data.AddVertex(1);
    EXPECT_TRUE(data.AddEdge({alice, acme}, 1).ok());      // works_at
    EXPECT_TRUE(data.AddEdge({alice, acme}, 2).ok());      // ALSO invested
    EXPECT_TRUE(data.AddEdge({bob, acme}, 1).ok());
    EXPECT_TRUE(data.AddEdge({carol, globex}, 2).ok());
    EXPECT_TRUE(data.AddEdge({bob, carol, globex}, 1).ok());
  }
};

TEST(EdgeLabelTest, SameVertexSetDifferentLabelsCoexist) {
  LabeledKb kb;
  EXPECT_EQ(kb.data.NumEdges(), 5u);
  EXPECT_EQ(kb.data.NumEdgeLabels(), 3u);  // labels 0..2 (0 unused here)
  EXPECT_EQ(kb.data.edge_label(0), 1u);
  EXPECT_EQ(kb.data.edge_label(1), 2u);
  // FindEdge is label-aware.
  EXPECT_EQ(kb.data.FindEdge({kb.alice, kb.acme}, 1), 0u);
  EXPECT_EQ(kb.data.FindEdge({kb.alice, kb.acme}, 2), 1u);
  EXPECT_EQ(kb.data.FindEdge({kb.alice, kb.acme}, 3), kInvalidEdge);
  EXPECT_EQ(kb.data.FindEdge({kb.alice, kb.acme}), kInvalidEdge);  // label 0
  // Adding the identical (set, label) pair is deduplicated.
  Result<EdgeId> dup = kb.data.AddEdge({kb.acme, kb.alice}, 1);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup.value(), 0u);
  EXPECT_EQ(kb.data.NumEdges(), 5u);
}

TEST(EdgeLabelTest, PartitionKeySeparatesLabels) {
  LabeledKb kb;
  // works_at{person,company} and invested_in{person,company} land in
  // different tables although the vertex-label signature is identical.
  EXPECT_EQ(SignatureOf(kb.data, 0), SignatureOf(kb.data, 1));
  EXPECT_NE(SignatureKeyOf(kb.data, 0), SignatureKeyOf(kb.data, 1));
  IndexedHypergraph idx = IndexedHypergraph::Build(kb.data.Clone());
  // works_at pairs: alice-acme, bob-acme. invested_in pairs: alice-acme,
  // carol-globex.
  EXPECT_EQ(idx.Cardinality(SignatureKeyOf(kb.data, 0)), 2u);
  EXPECT_EQ(idx.Cardinality(SignatureKeyOf(kb.data, 1)), 2u);
}

TEST(EdgeLabelTest, MatchRespectsRelationType) {
  LabeledKb kb;
  IndexedHypergraph idx = IndexedHypergraph::Build(kb.data.Clone());

  // Query: a person who works_at a company (edge label 1).
  Hypergraph works_query;
  const VertexId p = works_query.AddVertex(0);
  const VertexId c = works_query.AddVertex(1);
  ASSERT_TRUE(works_query.AddEdge({p, c}, 1).ok());
  Result<MatchStats> works = MatchSequential(idx, works_query);
  ASSERT_TRUE(works.ok());
  EXPECT_EQ(works.value().embeddings, 2u);  // alice@acme, bob@acme

  // Same structure, invested_in (label 2): different answers.
  Hypergraph invest_query;
  const VertexId p2 = invest_query.AddVertex(0);
  const VertexId c2 = invest_query.AddVertex(1);
  ASSERT_TRUE(invest_query.AddEdge({p2, c2}, 2).ok());
  Result<MatchStats> invest = MatchSequential(idx, invest_query);
  ASSERT_TRUE(invest.ok());
  EXPECT_EQ(invest.value().embeddings, 2u);  // alice->acme, carol->globex

  // Unlabelled query (label 0) matches nothing: no label-0 facts exist.
  Hypergraph untyped_query;
  const VertexId p3 = untyped_query.AddVertex(0);
  const VertexId c3 = untyped_query.AddVertex(1);
  ASSERT_TRUE(untyped_query.AddEdge({p3, c3}).ok());
  Result<MatchStats> untyped = MatchSequential(idx, untyped_query);
  ASSERT_TRUE(untyped.ok());
  EXPECT_EQ(untyped.value().embeddings, 0u);
}

TEST(EdgeLabelTest, JoinAcrossRelations) {
  LabeledKb kb;
  IndexedHypergraph idx = IndexedHypergraph::Build(kb.data.Clone());
  // A person who both works_at AND invested_in the same company.
  Hypergraph q;
  const VertexId p = q.AddVertex(0);
  const VertexId c = q.AddVertex(1);
  ASSERT_TRUE(q.AddEdge({p, c}, 1).ok());
  ASSERT_TRUE(q.AddEdge({p, c}, 2).ok());
  CollectSink sink;
  Result<MatchStats> r = MatchSequential(idx, q, MatchOptions{}, &sink);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().embeddings, 1u);  // only alice@acme
  // Matched data edges are the two alice-acme facts.
  Embedding m = sink.embeddings()[0];
  std::sort(m.begin(), m.end());
  EXPECT_EQ(m, (Embedding{0, 1}));
}

TEST(EdgeLabelTest, AllEnginesAgreeOnLabeledData) {
  LabeledKb kb;
  IndexedHypergraph idx = IndexedHypergraph::Build(kb.data.Clone());
  Hypergraph q;
  const VertexId p = q.AddVertex(0);
  const VertexId c = q.AddVertex(1);
  const VertexId p2 = q.AddVertex(0);
  ASSERT_TRUE(q.AddEdge({p, c}, 1).ok());
  ASSERT_TRUE(q.AddEdge({p2, c, p}, 1).ok());

  MatchStats oracle = ReferenceEdgeTupleMatch(idx, q);
  Result<MatchStats> seq = MatchSequential(idx, q);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value().embeddings, oracle.embeddings);

  ParallelOptions popts;
  popts.num_threads = 3;
  Result<ParallelResult> par = MatchParallel(idx, q, popts);
  ASSERT_TRUE(par.ok());
  EXPECT_EQ(par.value().stats.embeddings, oracle.embeddings);

  // Vertex-mapping semantics: baseline == vertex oracle == bipartite.
  const uint64_t vertex_oracle = ReferenceVertexMatchCount(kb.data, q);
  Result<BaselineResult> baseline = MatchByVertex(idx, q);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline.value().embeddings, vertex_oracle);
  Result<pairwise::PairwiseResult> bipartite = MatchViaBipartite(kb.data, q);
  ASSERT_TRUE(bipartite.ok());
  EXPECT_EQ(bipartite.value().embeddings, vertex_oracle);
}

TEST(EdgeLabelTest, BipartiteEncodingSeparatesLabelAndArity) {
  LabeledKb kb;
  pairwise::Graph g = ConvertToBipartite(kb.data, kb.data.NumLabels());
  // Edge-vertices of equal arity but different hyperedge labels must get
  // different pairwise labels.
  const VertexId ev_works = static_cast<VertexId>(kb.data.NumVertices() + 0);
  const VertexId ev_invest = static_cast<VertexId>(kb.data.NumVertices() + 1);
  EXPECT_NE(g.label(ev_works), g.label(ev_invest));
  // Same label + arity => same pairwise label.
  const VertexId ev_bob = static_cast<VertexId>(kb.data.NumVertices() + 2);
  EXPECT_EQ(g.label(ev_works), g.label(ev_bob));
}

TEST(EdgeLabelTest, TextFormatRoundTripsLabels) {
  LabeledKb kb;
  const std::string text = FormatHypergraph(kb.data);
  EXPECT_NE(text.find("el 1 "), std::string::npos);
  Result<Hypergraph> parsed = ParseHypergraph(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().NumEdges(), kb.data.NumEdges());
  for (EdgeId e = 0; e < kb.data.NumEdges(); ++e) {
    EXPECT_EQ(parsed.value().edge_label(e), kb.data.edge_label(e));
    EXPECT_TRUE(std::ranges::equal(parsed.value().edge(e), kb.data.edge(e)))
        << "edge " << e;
  }
  // Malformed labelled edges are rejected.
  EXPECT_FALSE(ParseHypergraph("v 0 0\nel x 0\n").ok());
  EXPECT_FALSE(ParseHypergraph("v 0 0\nel 1\n").ok());
}

TEST(EdgeLabelTest, BinaryFormatRoundTripsLabels) {
  LabeledKb kb;
  const std::string path = TempPath("hg_edge_label.hgb");
  ASSERT_TRUE(SaveHypergraphBinary(kb.data, path).ok());
  Result<Hypergraph> loaded = LoadHypergraphBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(FormatHypergraph(loaded.value()), FormatHypergraph(kb.data));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hgmatch
