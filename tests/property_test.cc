// Cross-engine property sweeps: on random hypergraphs and random-walk
// queries, every engine in the library must agree with the brute-force
// oracle of matching semantics (see DESIGN.md §1):
//   * HGMatch sequential == edge-tuple brute force (count AND set),
//   * HGMatch parallel (any thread count, stealing on/off) == sequential,
//   * BFS executor == sequential,
//   * plan order is irrelevant to the result set,
//   * the service (fresh runs, exact and isomorphic plan-cache hits,
//     mirrors) == edge-tuple brute force,
//   * catalog routing: queries submitted by graph name to two graphs on one
//     shared pool == edge-tuple brute force on the named graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "core/canonical.h"
#include "core/hgmatch.h"
#include "core/reference.h"
#include "gen/query_gen.h"
#include "parallel/bfs_executor.h"
#include "parallel/executor.h"
#include "parallel/service.h"
#include "serve/catalog.h"
#include "tests/test_fixtures.h"

namespace hgmatch {
namespace {

struct Scenario {
  uint64_t seed;
  uint32_t query_edges;
};

class CrossEngineTest : public ::testing::TestWithParam<Scenario> {
 protected:
  void SetUp() override {
    const Scenario& s = GetParam();
    data_ = IndexedHypergraph::Build(
        GenerateHypergraph(SmallRandomConfig(s.seed)));
    Rng rng(s.seed * 977 + 13);
    QuerySettings settings{"t", s.query_edges, 2,
                           100};  // wide vertex range: accept any walk
    Result<Hypergraph> q = SampleQuery(data_.graph(), settings, &rng);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    query_ = std::move(q.value());
  }

  IndexedHypergraph data_ = IndexedHypergraph::Build(Hypergraph());
  Hypergraph query_;
};

TEST_P(CrossEngineTest, SequentialMatchesEdgeTupleOracle) {
  CollectSink oracle_sink;
  MatchStats oracle = ReferenceEdgeTupleMatch(data_, query_, {}, &oracle_sink);

  Result<QueryPlan> plan = BuildQueryPlan(query_, data_);
  ASSERT_TRUE(plan.ok());
  CollectSink sink;
  MatchStats got =
      ExecutePlanSequential(data_, plan.value(), MatchOptions{}, &sink);

  EXPECT_EQ(got.embeddings, oracle.embeddings);
  // Sets must agree too (normalise both to query-edge-id indexed tuples;
  // the oracle emits in query-edge-id order already).
  std::vector<EdgeId> natural(query_.NumEdges());
  for (EdgeId e = 0; e < query_.NumEdges(); ++e) natural[e] = e;
  EXPECT_EQ(NormalizeEmbeddings(sink.embeddings(), plan.value().Order()),
            NormalizeEmbeddings(oracle_sink.embeddings(), natural));
  // Random-walk queries always have at least one embedding (themselves).
  EXPECT_GE(got.embeddings, 1u);
}

TEST_P(CrossEngineTest, EveryPlanOrderGivesTheSameResultSet) {
  Result<MatchStats> expected = MatchSequential(data_, query_);
  ASSERT_TRUE(expected.ok());
  // Try a few alternative (arbitrary) permutations.
  std::vector<EdgeId> order(query_.NumEdges());
  for (EdgeId e = 0; e < query_.NumEdges(); ++e) order[e] = e;
  for (int rot = 0; rot < 3; ++rot) {
    std::rotate(order.begin(), order.begin() + 1, order.end());
    Result<QueryPlan> plan = BuildQueryPlanWithOrder(query_, order);
    ASSERT_TRUE(plan.ok());
    MatchStats got =
        ExecutePlanSequential(data_, plan.value(), MatchOptions{}, nullptr);
    EXPECT_EQ(got.embeddings, expected.value().embeddings)
        << "order rotation " << rot;
  }
}

TEST_P(CrossEngineTest, ParallelMatchesSequential) {
  Result<MatchStats> expected = MatchSequential(data_, query_);
  ASSERT_TRUE(expected.ok());
  for (uint32_t threads : {1u, 2u, 4u}) {
    for (bool stealing : {true, false}) {
      ParallelOptions options;
      options.num_threads = threads;
      options.work_stealing = stealing;
      options.scan_grain = 4;  // force range splitting even on small data
      Result<ParallelResult> got = MatchParallel(data_, query_, options);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value().stats.embeddings, expected.value().embeddings)
          << threads << " threads, stealing=" << stealing;
    }
  }
}

TEST_P(CrossEngineTest, BfsExecutorMatchesSequential) {
  Result<MatchStats> expected = MatchSequential(data_, query_);
  ASSERT_TRUE(expected.ok());
  Result<QueryPlan> plan = BuildQueryPlan(query_, data_);
  ASSERT_TRUE(plan.ok());
  ParallelOptions options;
  options.num_threads = 2;
  BfsResult got = ExecutePlanBfs(data_, plan.value(), options);
  EXPECT_EQ(got.stats.embeddings, expected.value().embeddings);
  EXPECT_GT(got.peak_bytes, 0u);
}

// One service, four submissions of the scenario's query: a fresh run with
// a sink, an exact sink-less repeat (mirrored), a renamed, edge-reordered
// sink-less repeat (an isomorphic plan-cache hit, mirrored) and a renamed
// repeat with a sink (a private plan, whose tuples map back to the
// original's edges through the edge permutation). Counts and sets all
// equal the oracle's.
TEST_P(CrossEngineTest, ServiceMatchesOracle) {
  CollectSink oracle_sink;
  const MatchStats oracle =
      ReferenceEdgeTupleMatch(data_, query_, {}, &oracle_sink);
  std::vector<EdgeId> natural(query_.NumEdges());
  std::iota(natural.begin(), natural.end(), 0);
  const std::vector<Embedding> expected =
      NormalizeEmbeddings(oracle_sink.embeddings(), natural);

  // Reverse the vertex ids and rotate the hyperedges by one.
  std::vector<VertexId> perm(query_.NumVertices());
  for (VertexId v = 0; v < query_.NumVertices(); ++v) {
    perm[v] = query_.NumVertices() - 1 - v;
  }
  std::vector<EdgeId> edge_order = natural;
  std::rotate(edge_order.begin(), edge_order.begin() + 1, edge_order.end());
  const Hypergraph renamed = Permuted(query_, perm, edge_order);
  const bool invariant = CanonicalQueryKey(query_).isomorphism_invariant;

  ServiceOptions options;
  options.parallel.num_threads = 2;
  options.parallel.scan_grain = 4;
  MatchService service(data_, options);

  CollectSink fresh_sink;
  SubmitOptions fresh_options;
  fresh_options.sink = &fresh_sink;
  const QueryOutcome fresh =
      service.SubmitBorrowed(query_, fresh_options).Wait();
  ASSERT_EQ(fresh.status, QueryStatus::kOk);
  EXPECT_FALSE(fresh.mirrored);
  EXPECT_EQ(fresh.stats.embeddings, oracle.embeddings);
  Result<QueryPlan> plan = BuildQueryPlan(query_, data_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(NormalizeEmbeddings(fresh_sink.embeddings(), plan.value().Order()),
            expected);

  const QueryOutcome exact = service.SubmitBorrowed(query_).Wait();
  EXPECT_EQ(exact.status, QueryStatus::kOk);
  EXPECT_TRUE(exact.mirrored);
  EXPECT_EQ(exact.stats.embeddings, oracle.embeddings);

  const QueryOutcome iso = service.SubmitBorrowed(renamed).Wait();
  EXPECT_EQ(iso.status, QueryStatus::kOk);
  EXPECT_EQ(iso.mirrored, invariant);
  EXPECT_EQ(iso.stats.embeddings, oracle.embeddings);

  CollectSink renamed_sink;
  SubmitOptions renamed_options;
  renamed_options.sink = &renamed_sink;
  const QueryOutcome own =
      service.SubmitBorrowed(renamed, renamed_options).Wait();
  EXPECT_EQ(own.status, QueryStatus::kOk);
  EXPECT_FALSE(own.mirrored);
  EXPECT_EQ(own.stats.embeddings, oracle.embeddings);
  Result<QueryPlan> renamed_plan = BuildQueryPlan(renamed, data_);
  ASSERT_TRUE(renamed_plan.ok());
  // Renamed tuple slot j holds query edge renamed_plan.Order()[j], which is
  // edge edge_order[...] of the original query.
  std::vector<EdgeId> back;
  for (EdgeId e : renamed_plan.value().Order()) back.push_back(edge_order[e]);
  EXPECT_EQ(NormalizeEmbeddings(renamed_sink.embeddings(), back), expected);

  const ServiceReport report = service.Shutdown();
  EXPECT_EQ(report.submitted, 4u);
  // The fresh plan plus the renamed sink-ful repeat's private one (or,
  // when the key fell back to the exact one, its ordinary miss).
  EXPECT_EQ(report.unique_plans, 2u);
  EXPECT_EQ(report.plan_cache_isomorphic_hits, invariant ? 1u : 0u);
}

std::vector<Scenario> MakeScenarios() {
  std::vector<Scenario> out;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    out.push_back({seed, 2});
    out.push_back({seed, 3});
    out.push_back({seed, 4});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(RandomHypergraphs, CrossEngineTest,
                         ::testing::ValuesIn(MakeScenarios()));

// Two seeded random labelled hypergraphs served under two names by one
// GraphCatalog, so both graphs' services share one pool. Random-walk
// queries sampled from either graph go to both names: a fresh run with a
// sink, an exact sink-less repeat, a renamed, edge-reordered sink-less
// repeat and the renamed query with a sink. Every count and embedding set
// equals the oracle's on the named graph.
class CatalogRoutingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CatalogRoutingTest, RoutedQueriesMatchOracleOnTheNamedGraph) {
  const uint64_t seed = GetParam();
  const std::string names[2] = {"left", "right"};
  std::vector<IndexedHypergraph> graphs;
  graphs.push_back(
      IndexedHypergraph::Build(GenerateHypergraph(SmallRandomConfig(seed))));
  graphs.push_back(IndexedHypergraph::Build(
      GenerateHypergraph(SmallRandomConfig(seed + 100))));

  ServiceOptions options;
  options.parallel.num_threads = 2;
  options.parallel.scan_grain = 4;
  GraphCatalog catalog(options);
  for (size_t g = 0; g < 2; ++g) {
    ASSERT_TRUE(catalog.Load(names[g], graphs[g].graph().Clone()).ok());
  }
  auto run = [&](const std::string& name, const Hypergraph& query,
                 EmbeddingSink* sink) {
    std::vector<BatchSubmission> one;
    one.push_back({query.Clone(), {}});
    one.back().options.sink = sink;
    Result<std::vector<CatalogTicket>> t = catalog.Submit(name, std::move(one));
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? t.value().front().ticket.Wait() : QueryOutcome{};
  };

  Rng rng(seed * 131 + 5);
  for (uint32_t round = 0; round < 4; ++round) {
    const IndexedHypergraph& source = graphs[round % 2];
    QuerySettings settings{"t", 2 + round % 3, 2, 100};
    Result<Hypergraph> sampled = SampleQuery(source.graph(), settings, &rng);
    ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
    const Hypergraph& query = sampled.value();
    std::vector<EdgeId> natural(query.NumEdges());
    std::iota(natural.begin(), natural.end(), 0);
    std::vector<VertexId> perm(query.NumVertices());
    for (VertexId v = 0; v < query.NumVertices(); ++v) {
      perm[v] = query.NumVertices() - 1 - v;
    }
    std::vector<EdgeId> edge_order = natural;
    std::rotate(edge_order.begin(), edge_order.begin() + 1, edge_order.end());
    const Hypergraph renamed = Permuted(query, perm, edge_order);

    for (size_t g = 0; g < 2; ++g) {
      SCOPED_TRACE("round " + std::to_string(round) + " on " + names[g]);
      CollectSink oracle_sink;
      const MatchStats oracle =
          ReferenceEdgeTupleMatch(graphs[g], query, {}, &oracle_sink);
      const std::vector<Embedding> expected =
          NormalizeEmbeddings(oracle_sink.embeddings(), natural);

      CollectSink fresh_sink;
      const QueryOutcome fresh = run(names[g], query, &fresh_sink);
      EXPECT_EQ(fresh.status, QueryStatus::kOk);
      EXPECT_EQ(fresh.stats.embeddings, oracle.embeddings);
      Result<QueryPlan> plan = BuildQueryPlan(query, graphs[g]);
      ASSERT_TRUE(plan.ok());
      EXPECT_EQ(
          NormalizeEmbeddings(fresh_sink.embeddings(), plan.value().Order()),
          expected);

      const QueryOutcome repeat = run(names[g], query, nullptr);
      EXPECT_EQ(repeat.status, QueryStatus::kOk);
      EXPECT_EQ(repeat.stats.embeddings, oracle.embeddings);

      const QueryOutcome iso = run(names[g], renamed, nullptr);
      EXPECT_EQ(iso.status, QueryStatus::kOk);
      EXPECT_EQ(iso.stats.embeddings, oracle.embeddings);

      CollectSink renamed_sink;
      const QueryOutcome own = run(names[g], renamed, &renamed_sink);
      EXPECT_EQ(own.status, QueryStatus::kOk);
      EXPECT_EQ(own.stats.embeddings, oracle.embeddings);
      Result<QueryPlan> renamed_plan = BuildQueryPlan(renamed, graphs[g]);
      ASSERT_TRUE(renamed_plan.ok());
      std::vector<EdgeId> back;
      for (EdgeId e : renamed_plan.value().Order()) {
        back.push_back(edge_order[e]);
      }
      EXPECT_EQ(NormalizeEmbeddings(renamed_sink.embeddings(), back),
                expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CatalogRoutingTest,
                         ::testing::Range<uint64_t>(1, 7));

// Denser sweep of the validation path: strict mode (exact bijection check
// per embedding) must never disagree with Algorithm 5 across many random
// instances — this is the empirical verification of Theorem V.2.
class StrictValidationSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrictValidationSweep, AlgorithmFiveIsExact) {
  const uint64_t seed = GetParam();
  GeneratorConfig config = SmallRandomConfig(seed);
  config.num_labels = 1 + seed % 2;  // few labels => many symmetric vertices
  IndexedHypergraph data =
      IndexedHypergraph::Build(GenerateHypergraph(config));
  Rng rng(seed * 31 + 7);
  for (int i = 0; i < 5; ++i) {
    QuerySettings settings{"t", 3, 2, 100};
    Result<Hypergraph> q = SampleQuery(data.graph(), settings, &rng);
    if (!q.ok()) continue;
    MatchOptions strict;
    strict.strict_validation = true;
    Result<MatchStats> a = MatchSequential(data, q.value());
    Result<MatchStats> b = MatchSequential(data, q.value(), strict);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().embeddings, b.value().embeddings);
    MatchStats oracle = ReferenceEdgeTupleMatch(data, q.value());
    EXPECT_EQ(a.value().embeddings, oracle.embeddings);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrictValidationSweep,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace hgmatch
