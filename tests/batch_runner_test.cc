// Coverage of batch runs through RunBatch (parallel/service.h): per-query
// counts equal MatchSequential at every thread count, plan-cache hits on
// repeated queries (and none when the cache is off or the queries only look
// alike), per-query sinks that see exact embedding streams, isolation of a
// planning failure, the per-query embedding limit, no-steal scheduling and
// the empty batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/hgmatch.h"
#include "gen/generator.h"
#include "gen/query_gen.h"
#include "parallel/service.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"

namespace hgmatch {
namespace {

// Path query of `k` edges over label-0 vertices: {0,1}, {1,2}, ...
Hypergraph PathQuery(uint32_t k) {
  Hypergraph q;
  q.AddVertices(k + 1, 0);
  for (VertexId v = 0; v < k; ++v) (void)q.AddEdge({v, v + 1});
  return q;
}

// Deterministic small workload: a mix of sampled (guaranteed non-empty
// result) and generated queries against one random data hypergraph.
std::vector<Hypergraph> MixedQueries(const Hypergraph& data, size_t count) {
  std::vector<Hypergraph> queries;
  Rng rng(91);
  for (size_t i = 0; i < count; ++i) {
    const uint32_t k = 2 + static_cast<uint32_t>(i % 3);
    Result<Hypergraph> sampled =
        SampleQuery(data, QuerySettings{"batch", k, 2, 200}, &rng);
    if (sampled.ok()) {
      queries.push_back(std::move(sampled.value()));
    } else {
      GeneratorConfig qc = SmallRandomConfig(40 + i);
      qc.num_edges = k;
      queries.push_back(GenerateHypergraph(qc));
    }
  }
  return queries;
}

uint64_t TotalEmbeddings(const BatchRun& run) {
  uint64_t total = 0;
  for (const Ticket& t : run.tickets) total += t.Wait().stats.embeddings;
  return total;
}

TEST(RunBatchTest, CountsMatchSequentialPerQuery) {
  Hypergraph data = GenerateHypergraph(SmallRandomConfig(9));
  std::vector<Hypergraph> queries = MixedQueries(data, 8);
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(data));

  std::vector<uint64_t> expected;
  for (const Hypergraph& q : queries) {
    Result<MatchStats> seq = MatchSequential(idx, q);
    ASSERT_TRUE(seq.ok());
    expected.push_back(seq.value().embeddings);
  }

  for (uint32_t threads : {1u, 2u, 4u}) {
    ServiceOptions options;
    options.parallel.num_threads = threads;
    options.parallel.scan_grain = 2;
    const BatchRun r = RunBatch(idx, queries, options);
    ASSERT_EQ(r.tickets.size(), queries.size());
    uint64_t total = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(r.tickets[i].status().ok());
      EXPECT_EQ(r.tickets[i].Wait().stats.embeddings, expected[i])
          << "query " << i << ", " << threads << " threads";
      total += expected[i];
    }
    EXPECT_EQ(TotalEmbeddings(r), total);
    EXPECT_EQ(Completed(r), queries.size());
    EXPECT_EQ(r.report.workers.size(), threads);
  }
}

TEST(RunBatchTest, PaperExampleRepeatedQueries) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  std::vector<Hypergraph> queries;
  for (int i = 0; i < 5; ++i) queries.push_back(PaperQueryHypergraph());

  ServiceOptions options;
  options.parallel.num_threads = 3;
  options.parallel.scan_grain = 1;
  const BatchRun r = RunBatch(idx, queries, options);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(r.tickets[i].Wait().stats.embeddings, 2u) << "query " << i;
  }
  EXPECT_EQ(TotalEmbeddings(r), 10u);
  EXPECT_EQ(Completed(r), 5u);
  EXPECT_GT(r.report.peak_task_bytes, 0u);
  // The four repeats are plan-cache hits onto the first copy's plan.
  EXPECT_EQ(r.report.plan_cache_hits, 4u);
  EXPECT_EQ(r.report.unique_plans, 1u);
}

TEST(RunBatchTest, PlanCacheDisabledPlansEveryCopy) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  std::vector<Hypergraph> queries;
  for (int i = 0; i < 5; ++i) queries.push_back(PaperQueryHypergraph());

  ServiceOptions options;
  options.parallel.num_threads = 3;
  options.plan_cache = false;
  const BatchRun r = RunBatch(idx, queries, options);
  EXPECT_EQ(r.report.plan_cache_hits, 0u);
  EXPECT_EQ(r.report.unique_plans, 5u);
  EXPECT_EQ(TotalEmbeddings(r), 10u);
  EXPECT_EQ(Completed(r), 5u);
}

TEST(RunBatchTest, PlanCacheDistinguishesNearDuplicates) {
  // Same edge-signature multisets but different structure must not share a
  // plan or counts.
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  std::vector<Hypergraph> queries;
  queries.push_back(PaperQueryHypergraph());
  {
    // Same vertices, but the {A,B} edge uses u3 (also label A) instead of
    // u2 — structurally different, signature multiset identical.
    Hypergraph q;
    const Label A = 0, B = 1, C = 2;
    for (Label l : {A, C, A, A, B}) q.AddVertex(l);
    (void)q.AddEdge({3, 4});
    (void)q.AddEdge({0, 1, 2});
    (void)q.AddEdge({0, 1, 3, 4});
    queries.push_back(std::move(q));
  }

  const BatchRun r = RunBatch(idx, queries, ServiceOptions{});
  EXPECT_EQ(r.report.plan_cache_hits, 0u);
  EXPECT_EQ(r.report.unique_plans, 2u);
  Result<MatchStats> seq0 = MatchSequential(idx, queries[0]);
  Result<MatchStats> seq1 = MatchSequential(idx, queries[1]);
  ASSERT_TRUE(seq0.ok());
  ASSERT_TRUE(seq1.ok());
  EXPECT_EQ(r.tickets[0].Wait().stats.embeddings, seq0.value().embeddings);
  EXPECT_EQ(r.tickets[1].Wait().stats.embeddings, seq1.value().embeddings);
}

TEST(RunBatchTest, PlanCacheWithSinksStillEmitsPerCopy) {
  // Repeated queries that carry sinks share the compiled plan but execute
  // individually, so every sink observes its own exact embedding stream.
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  std::vector<Hypergraph> queries;
  for (int i = 0; i < 3; ++i) queries.push_back(PaperQueryHypergraph());

  std::vector<CollectSink> collect(queries.size());
  std::vector<SubmitOptions> submit(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) submit[i].sink = &collect[i];

  ServiceOptions options;
  options.parallel.num_threads = 3;
  const BatchRun r = RunBatch(idx, queries, options, &submit);
  EXPECT_EQ(r.report.plan_cache_hits, 2u);
  EXPECT_EQ(r.report.unique_plans, 1u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(collect[i].count(), 2u) << "query " << i;
    EXPECT_EQ(r.tickets[i].Wait().stats.embeddings, 2u) << "query " << i;
  }
}

TEST(RunBatchTest, SinksReceiveExactEmbeddings) {
  Hypergraph data = GenerateHypergraph(SmallRandomConfig(11));
  std::vector<Hypergraph> queries = MixedQueries(data, 4);
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(data));

  std::vector<CollectSink> collect(queries.size());
  std::vector<SubmitOptions> submit(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) submit[i].sink = &collect[i];

  ServiceOptions options;
  options.parallel.num_threads = 4;
  options.parallel.scan_grain = 2;
  const BatchRun r = RunBatch(idx, queries, options, &submit);

  for (size_t i = 0; i < queries.size(); ++i) {
    Result<QueryPlan> plan = BuildQueryPlan(queries[i], idx);
    ASSERT_TRUE(plan.ok());
    CollectSink seq;
    ExecutePlanSequential(idx, plan.value(), MatchOptions{}, &seq);
    auto a = seq.embeddings();
    auto b = collect[i].embeddings();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "query " << i;
    EXPECT_EQ(r.tickets[i].Wait().stats.embeddings, collect[i].count());
  }
}

TEST(RunBatchTest, PlanningFailureIsIsolated) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  std::vector<Hypergraph> queries;
  queries.push_back(PaperQueryHypergraph());
  queries.emplace_back();  // empty query: planning fails
  queries.push_back(PaperQueryHypergraph());

  const BatchRun r = RunBatch(idx, queries, ServiceOptions{});
  ASSERT_EQ(r.tickets.size(), 3u);
  EXPECT_TRUE(r.tickets[0].status().ok());
  EXPECT_FALSE(r.tickets[1].status().ok());
  EXPECT_TRUE(r.tickets[2].status().ok());
  EXPECT_EQ(r.tickets[0].Wait().stats.embeddings, 2u);
  EXPECT_EQ(r.tickets[1].Wait().stats.embeddings, 0u);
  EXPECT_EQ(r.tickets[2].Wait().stats.embeddings, 2u);
  EXPECT_EQ(Completed(r), 2u);
}

TEST(RunBatchTest, PerQueryLimitStopsEachQuery) {
  Hypergraph h;
  h.AddVertices(100, 0);
  for (VertexId v = 0; v + 1 < 100; ++v) (void)h.AddEdge({v, v + 1});
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(h));
  std::vector<Hypergraph> queries;
  queries.push_back(PathQuery(2));
  queries.push_back(PathQuery(2));

  ServiceOptions options;
  options.parallel.num_threads = 2;
  options.parallel.limit = 3;
  const BatchRun r = RunBatch(idx, queries, options);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(r.tickets[i].Wait().stats.limit_hit) << "query " << i;
    EXPECT_GE(r.tickets[i].Wait().stats.embeddings, 3u) << "query " << i;
  }
  EXPECT_EQ(Completed(r), 0u);
}

TEST(RunBatchTest, NoStealMeansZeroSteals) {
  Hypergraph data = GenerateHypergraph(SmallRandomConfig(7));
  std::vector<Hypergraph> queries = MixedQueries(data, 4);
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(data));

  ServiceOptions options;
  options.parallel.num_threads = 4;
  options.parallel.work_stealing = false;
  const BatchRun r = RunBatch(idx, queries, options);
  for (const WorkerReport& w : r.report.workers) EXPECT_EQ(w.steals, 0u);
  EXPECT_EQ(Completed(r), queries.size());
}

TEST(RunBatchTest, EmptyBatchIsOk) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  const BatchRun r = RunBatch(idx, {}, ServiceOptions{});
  EXPECT_TRUE(r.tickets.empty());
  EXPECT_EQ(r.report.submitted, 0u);
  EXPECT_EQ(TotalEmbeddings(r), 0u);
  EXPECT_EQ(Completed(r), 0u);
}

}  // namespace
}  // namespace hgmatch
