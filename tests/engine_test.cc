#include "core/hgmatch.h"

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/reference.h"
#include "gen/dataset_profiles.h"
#include "gen/query_gen.h"
#include "parallel/executor.h"
#include "tests/test_fixtures.h"

namespace hgmatch {
namespace {

TEST(SequentialEngineTest, PaperExampleFindsBothEmbeddings) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  CollectSink sink;
  Result<MatchStats> stats = MatchSequential(idx, q, MatchOptions{}, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().embeddings, 2u);
  ASSERT_EQ(sink.embeddings().size(), 2u);
  // Matching order is (0,1,2), so tuples are already per query edge id:
  // (e1,e3,e5) = (0,2,4) and (e2,e4,e6) = (1,3,5).
  std::vector<Embedding> got = sink.embeddings();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got[0], (Embedding{0, 2, 4}));
  EXPECT_EQ(got[1], (Embedding{1, 3, 5}));
}

TEST(SequentialEngineTest, AgreesWithReferenceOnPaperExample) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  MatchStats ref = ReferenceEdgeTupleMatch(idx, q);
  Result<MatchStats> got = MatchSequential(idx, q);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().embeddings, ref.embeddings);
}

TEST(SequentialEngineTest, SingleEdgeQueryCountsSignatureTable) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  // Query = one {A,B} hyperedge: matches e1 and e2.
  Hypergraph q;
  const VertexId a = q.AddVertex(0);
  const VertexId b = q.AddVertex(1);
  (void)q.AddEdge({a, b});
  Result<MatchStats> stats = MatchSequential(idx, q);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().embeddings, 2u);
}

TEST(SequentialEngineTest, NoMatchWhenSignatureMissing) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q;
  const VertexId b = q.AddVertex(1);
  const VertexId c = q.AddVertex(2);
  (void)q.AddEdge({b, c});  // {B,C} table does not exist
  Result<MatchStats> stats = MatchSequential(idx, q);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().embeddings, 0u);
}

TEST(SequentialEngineTest, LimitStopsEnumeration) {
  // Data with many embeddings of a single-edge query.
  Hypergraph h;
  h.AddVertices(40, 0);
  for (VertexId v = 0; v + 1 < 40; ++v) (void)h.AddEdge({v, v + 1});
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(h));
  Hypergraph q;
  q.AddVertices(2, 0);
  (void)q.AddEdge({0, 1});
  MatchOptions options;
  options.limit = 5;
  Result<MatchStats> stats = MatchSequential(idx, q, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().embeddings, 5u);
  EXPECT_TRUE(stats.value().limit_hit);
}

TEST(SequentialEngineTest, StrictValidationChangesNothing) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Hypergraph data = GenerateHypergraph(SmallRandomConfig(seed));
    IndexedHypergraph idx = IndexedHypergraph::Build(std::move(data));
    GeneratorConfig qc = SmallRandomConfig(seed + 50);
    qc.num_edges = 3;
    qc.num_vertices = 8;
    Hypergraph q = GenerateHypergraph(qc);
    if (q.NumEdges() == 0) continue;
    MatchOptions strict;
    strict.strict_validation = true;
    Result<MatchStats> plain = MatchSequential(idx, q);
    Result<MatchStats> checked = MatchSequential(idx, q, strict);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(checked.ok());
    // Theorem V.2's incremental check must agree with the exact check.
    EXPECT_EQ(plain.value().embeddings, checked.value().embeddings)
        << "Algorithm 5 disagreed with exact validation at seed " << seed;
  }
}

TEST(SequentialEngineTest, StatsCountersAreCoherent) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  Result<MatchStats> stats = MatchSequential(idx, q);
  ASSERT_TRUE(stats.ok());
  // candidates >= filtered >= embeddings (Fig 9's three bars).
  EXPECT_GE(stats.value().candidates, stats.value().filtered);
  EXPECT_GE(stats.value().filtered, stats.value().embeddings);
  EXPECT_GT(stats.value().expansions, 0u);
  EXPECT_GE(stats.value().seconds, 0.0);
}

TEST(SequentialEngineTest, RejectsEmptyQuery) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q;
  q.AddVertex(0);
  EXPECT_FALSE(MatchSequential(idx, q).ok());
}

TEST(ReferenceTest, VertexSemanticsOnPaperExample) {
  // The paper example's two hyperedge-tuple embeddings each admit exactly
  // one vertex bijection, so both semantics agree here.
  Hypergraph data = PaperDataHypergraph();
  Hypergraph q = PaperQueryHypergraph();
  EXPECT_EQ(ReferenceVertexMatchCount(data, q), 2u);
}

TEST(ReferenceTest, VertexSemanticsCountsSymmetries) {
  // One data edge {A,A}; query edge {A,A}: a single hyperedge-tuple but two
  // vertex mappings (the two vertices are interchangeable).
  Hypergraph data;
  data.AddVertices(2, 0);
  (void)data.AddEdge({0, 1});
  Hypergraph q;
  q.AddVertices(2, 0);
  (void)q.AddEdge({0, 1});
  EXPECT_EQ(ReferenceVertexMatchCount(data, q), 2u);

  IndexedHypergraph idx = IndexedHypergraph::Build(data.Clone());
  MatchStats tuple = ReferenceEdgeTupleMatch(idx, q);
  EXPECT_EQ(tuple.embeddings, 1u);
  Result<MatchStats> hg = MatchSequential(idx, q);
  ASSERT_TRUE(hg.ok());
  EXPECT_EQ(hg.value().embeddings, 1u);
}


// Golden Fig 9 counters. The four counters are deterministic functions of
// (data, query, plan), so they pin every rewrite of the Expand kernel
// (Algorithms 4 and 5) to exactly the candidates and filter decisions of
// the reference implementation. The values below were recorded with the
// sorted-vector kernel (binary-searched vertex counts, heap-merge union).

// `a` and `b` side by side as two components of one query.
Hypergraph DisjointUnion(const Hypergraph& a, const Hypergraph& b) {
  Hypergraph q;
  for (VertexId v = 0; v < a.NumVertices(); ++v) q.AddVertex(a.label(v));
  for (VertexId v = 0; v < b.NumVertices(); ++v) q.AddVertex(b.label(v));
  for (EdgeId e = 0; e < a.NumEdges(); ++e) {
    EXPECT_TRUE(q.AddEdge(a.edge(e), a.edge_label(e)).ok());
  }
  const VertexId shift = static_cast<VertexId>(a.NumVertices());
  for (EdgeId e = 0; e < b.NumEdges(); ++e) {
    VertexSet vs(b.edge(e).begin(), b.edge(e).end());
    for (VertexId& v : vs) v += shift;
    EXPECT_TRUE(q.AddEdge(vs, b.edge_label(e)).ok());
  }
  return q;
}

// `q` with hyperedge i relabelled to i % 2.
Hypergraph AlternateEdgeLabels(const Hypergraph& q) {
  Hypergraph out;
  for (VertexId v = 0; v < q.NumVertices(); ++v) out.AddVertex(q.label(v));
  for (EdgeId e = 0; e < q.NumEdges(); ++e) {
    EXPECT_TRUE(out.AddEdge(q.edge(e), e % 2).ok());
  }
  return out;
}

// A random hypergraph whose hyperedges carry one of three labels.
Hypergraph EdgeLabelledData() {
  GeneratorConfig c = SmallRandomConfig(7);
  c.num_vertices = 150;
  c.num_edges = 800;
  c.num_labels = 3;
  c.label_locality = 0.8;
  Hypergraph plain = GenerateHypergraph(c);
  Hypergraph h;
  for (VertexId v = 0; v < plain.NumVertices(); ++v) {
    h.AddVertex(plain.label(v));
  }
  for (EdgeId e = 0; e < plain.NumEdges(); ++e) {
    EXPECT_TRUE(h.AddEdge(plain.edge(e), e % 3).ok());
  }
  return h;
}

struct GoldenCase {
  const char* name;
  // {candidates, filtered, embeddings, expansions}
  std::array<uint64_t, 4> sequential;
  std::array<uint64_t, 4> parallel;
};

struct GoldenCounters {
  MatchStats sequential;
  MatchStats parallel;
  // The sequential engine's per-embedding branch: once with a sink, once
  // with strict validation, so the count-only shortcut is pinned to it.
  MatchStats sequential_sink;
  uint64_t sink_count = 0;
  MatchStats sequential_strict;
};

// Runs every golden query through both engines, in the order of the table.
std::vector<std::pair<std::string, GoldenCounters>> RunGoldenQueries() {
  std::vector<std::pair<std::string, GoldenCounters>> out;
  auto run = [&](const std::string& name, const IndexedHypergraph& idx,
                 const Hypergraph& q) {
    Result<MatchStats> seq = MatchSequential(idx, q);
    ParallelOptions po;
    po.num_threads = 3;
    po.scan_grain = 4;
    Result<ParallelResult> par = MatchParallel(idx, q, po);
    Result<QueryPlan> plan = BuildQueryPlan(q, idx);
    EXPECT_TRUE(seq.ok() && par.ok() && plan.ok()) << name;
    if (!seq.ok() || !par.ok() || !plan.ok()) return;
    GoldenCounters c;
    c.sequential = seq.value();
    c.parallel = par.value().stats;
    CountSink sink;
    c.sequential_sink =
        ExecutePlanSequential(idx, plan.value(), MatchOptions{}, &sink);
    c.sink_count = sink.count();
    MatchOptions strict;
    strict.strict_validation = true;
    c.sequential_strict =
        ExecutePlanSequential(idx, plan.value(), strict, nullptr);
    out.push_back({name, c});
  };
  struct Source {
    const char* name;
    Hypergraph data;
  };
  std::vector<Source> sources;
  sources.push_back({"SB", FindDatasetProfile("SB")->Generate(0.05)});
  sources.push_back({"WT", FindDatasetProfile("WT")->Generate(0.3)});
  sources.push_back({"EL", EdgeLabelledData()});
  for (Source& src : sources) {
    IndexedHypergraph idx = IndexedHypergraph::Build(std::move(src.data));
    for (const QuerySettings& qs : {kQ2, kQ3, kQ4}) {
      std::vector<Hypergraph> qs_list =
          SampleQueries(idx.graph(), qs, 2, 0xF19 + qs.num_edges);
      for (size_t i = 0; i < qs_list.size(); ++i) {
        run(std::string(src.name) + "/" + qs.name + "#" + std::to_string(i),
            idx, qs_list[i]);
      }
    }
    if (idx.graph().NumEdgeLabels() > 1) {
      for (const QuerySettings& qs : {kQ2, kQ3, kQ4}) {
        std::vector<Hypergraph> qs_list =
            SampleQueries(idx.graph(), qs, 1, 0xE1 + qs.num_edges);
        if (qs_list.empty()) continue;
        run(std::string(src.name) + "/" + qs.name + "-labelled", idx,
            AlternateEdgeLabels(qs_list[0]));
      }
    }
    std::vector<Hypergraph> pair = SampleQueries(idx.graph(), kQ2, 2, 0xD15);
    if (pair.size() == 2) {
      run(std::string(src.name) + "/q2+q2", idx,
          DisjointUnion(pair[0], pair[1]));
    }
  }
  return out;
}

TEST(GoldenCountersTest, Fig9CountersMatchRecordedValues) {
  // {candidates, filtered, embeddings, expansions} through MatchSequential
  // and MatchParallel. The parallel engine scans the first table without an
  // Expand call, so its counters lack the step-0 SCAN's contribution.
  const GoldenCase kGolden[] = {
    {"SB/q2#0", {14566, 2175, 2067, 109}, {14458, 2067, 2067, 108}},
    {"SB/q2#1", {11301, 2449, 2371, 79}, {11223, 2371, 2371, 78}},
    {"SB/q3#0", {37346, 17282, 5048, 334}, {37331, 17267, 5048, 333}},
    {"SB/q3#1", {72269, 17564, 9890, 562}, {72254, 17549, 9890, 561}},
    {"SB/q4#0", {342823, 342591, 55719, 6354}, {342808, 342576, 55719, 6353}},
    {"SB/q4#1", {50513, 47718, 21799, 3955}, {50460, 47665, 21799, 3954}},
    {"SB/q2+q2", {58801, 1265, 0, 1266}, {58754, 1218, 0, 1265}},
    {"WT/q2#0", {7, 7, 4, 4}, {4, 4, 4, 3}},
    {"WT/q2#1", {9, 9, 8, 2}, {8, 8, 8, 1}},
    {"WT/q3#0", {7, 7, 1, 7}, {3, 3, 1, 6}},
    {"WT/q3#1", {6, 6, 3, 4}, {4, 4, 3, 3}},
    {"WT/q4#0", {7, 7, 1, 7}, {6, 6, 1, 6}},
    {"WT/q4#1", {13, 8, 3, 6}, {11, 6, 3, 5}},
    {"WT/q2+q2", {51, 51, 32, 20}, {43, 43, 32, 19}},
    {"EL/q2#0", {211, 185, 161, 25}, {187, 161, 161, 24}},
    {"EL/q2#1", {173, 162, 137, 26}, {148, 137, 137, 25}},
    {"EL/q3#0", {4, 4, 0, 5}, {0, 0, 0, 4}},
    {"EL/q3#1", {980, 822, 637, 186}, {956, 798, 637, 185}},
    {"EL/q4#0", {32, 30, 0, 31}, {18, 16, 0, 30}},
    {"EL/q4#1", {520, 448, 245, 204}, {504, 432, 245, 203}},
    {"EL/q2-labelled", {79, 73, 57, 17}, {63, 57, 57, 16}},
    {"EL/q3-labelled", {13, 13, 8, 6}, {11, 11, 8, 5}},
    {"EL/q4-labelled", {275, 242, 31, 212}, {251, 218, 31, 211}},
    {"EL/q2+q2", {10417, 8569, 6672, 1898}, {10393, 8545, 6672, 1897}},
  };
  const auto got = RunGoldenQueries();
  ASSERT_EQ(got.size(), std::size(kGolden));
  for (size_t i = 0; i < got.size(); ++i) {
    const GoldenCase& want = kGolden[i];
    const auto& [name, c] = got[i];
    ASSERT_EQ(name, want.name);
    for (const auto& [engine, stats, golden] :
         {std::tuple("sequential", c.sequential, want.sequential),
          std::tuple("parallel", c.parallel, want.parallel)}) {
      SCOPED_TRACE(name + " " + engine);
      EXPECT_EQ(stats.candidates, golden[0]);
      EXPECT_EQ(stats.filtered, golden[1]);
      EXPECT_EQ(stats.embeddings, golden[2]);
      EXPECT_EQ(stats.expansions, golden[3]);
    }
    for (const auto& [branch, stats] :
         {std::pair("sink", c.sequential_sink),
          std::pair("strict", c.sequential_strict)}) {
      SCOPED_TRACE(name + " sequential " + branch);
      EXPECT_EQ(stats.candidates, c.sequential.candidates);
      EXPECT_EQ(stats.filtered, c.sequential.filtered);
      EXPECT_EQ(stats.embeddings, c.sequential.embeddings);
      EXPECT_EQ(stats.expansions, c.sequential.expansions);
    }
    EXPECT_EQ(c.sink_count, c.sequential.embeddings) << name;
  }
}

TEST(SequentialEngineTest, CountOnlyQueryStillTimesOut) {
  // Count-only runs add the last step's embeddings in one go; the deadline
  // must still be polled. This q4 query on full SB runs for over 30 s.
  IndexedHypergraph idx =
      IndexedHypergraph::Build(FindDatasetProfile("SB")->Generate(1.0));
  std::vector<Hypergraph> queries = SampleQueries(idx.graph(), kQ4, 1, 0x71);
  ASSERT_EQ(queries.size(), 1u);
  MatchOptions options;
  options.timeout_seconds = 0.02;
  Result<MatchStats> r = MatchSequential(idx, queries[0], options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().timed_out);
  EXPECT_LT(r.value().seconds, 1.0);
}

}  // namespace
}  // namespace hgmatch
