#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "core/hgmatch.h"
#include "parallel/bfs_executor.h"
#include "gen/query_gen.h"
#include "parallel/dataflow.h"
#include "parallel/executor.h"
#include "parallel/task.h"
#include "parallel/ws_deque.h"
#include "tests/test_fixtures.h"

namespace hgmatch {
namespace {

TEST(WsDequeTest, LifoForOwner) {
  WorkStealingDeque<int64_t> d;
  for (int64_t i = 0; i < 10; ++i) d.Push(i);
  EXPECT_EQ(d.SizeApprox(), 10);
  int64_t out;
  for (int64_t i = 9; i >= 0; --i) {
    ASSERT_TRUE(d.Pop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(d.Pop(&out));
  EXPECT_TRUE(d.EmptyApprox());
}

TEST(WsDequeTest, StealsOldestFirst) {
  WorkStealingDeque<int64_t> d;
  for (int64_t i = 0; i < 5; ++i) d.Push(i);
  int64_t out;
  ASSERT_TRUE(d.Steal(&out));
  EXPECT_EQ(out, 0);
  ASSERT_TRUE(d.Steal(&out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(d.Pop(&out));
  EXPECT_EQ(out, 4);
}

TEST(WsDequeTest, GrowsPastInitialCapacity) {
  WorkStealingDeque<int64_t> d(4);
  for (int64_t i = 0; i < 1000; ++i) d.Push(i);
  EXPECT_EQ(d.SizeApprox(), 1000);
  int64_t out;
  ASSERT_TRUE(d.Pop(&out));
  EXPECT_EQ(out, 999);
  ASSERT_TRUE(d.Steal(&out));
  EXPECT_EQ(out, 0);
}

// Concurrency stress: one owner pushes/pops while thieves steal; every
// element must be consumed exactly once.
TEST(WsDequeTest, ConcurrentStealLosesNothing) {
  constexpr int64_t kItems = 200000;
  constexpr int kThieves = 3;
  WorkStealingDeque<int64_t> deque;
  std::atomic<int64_t> consumed_sum{0};
  std::atomic<int64_t> consumed_count{0};
  std::atomic<bool> done{false};

  auto thief = [&] {
    int64_t v;
    while (!done.load(std::memory_order_acquire)) {
      if (deque.Steal(&v)) {
        consumed_sum.fetch_add(v, std::memory_order_relaxed);
        consumed_count.fetch_add(1, std::memory_order_relaxed);
      }
    }
    while (deque.Steal(&v)) {
      consumed_sum.fetch_add(v, std::memory_order_relaxed);
      consumed_count.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> thieves;
  for (int i = 0; i < kThieves; ++i) thieves.emplace_back(thief);

  int64_t local_sum = 0, local_count = 0;
  for (int64_t i = 0; i < kItems; ++i) {
    deque.Push(i);
    if (i % 3 == 0) {
      int64_t v;
      if (deque.Pop(&v)) {
        local_sum += v;
        ++local_count;
      }
    }
  }
  int64_t v;
  while (deque.Pop(&v)) {
    local_sum += v;
    ++local_count;
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();

  EXPECT_EQ(local_count + consumed_count.load(), kItems);
  EXPECT_EQ(local_sum + consumed_sum.load(), kItems * (kItems - 1) / 2);
}

TEST(TaskTest, LayoutAndAccounting) {
  int owner_tag = 0;  // any context pointer; the scheduler passes its own
  Task* scan = Task::NewScan(&owner_tag, 3, 17);
  EXPECT_EQ(scan->kind, Task::Kind::kScan);
  EXPECT_EQ(scan->owner, &owner_tag);
  EXPECT_EQ(scan->scan_lo(), 3u);
  EXPECT_EQ(scan->scan_hi(), 17u);
  EXPECT_EQ(scan->SizeBytes(), sizeof(Task) + 2 * sizeof(EdgeId));
  Task::Free(scan);

  const EdgeId prefix[] = {7, 9};
  Task* expand = Task::NewExpand(&owner_tag, prefix, 2, 11);
  EXPECT_EQ(expand->kind, Task::Kind::kExpand);
  EXPECT_EQ(expand->depth, 3u);
  EXPECT_EQ(expand->edges[0], 7u);
  EXPECT_EQ(expand->edges[1], 9u);
  EXPECT_EQ(expand->edges[2], 11u);
  EXPECT_EQ(expand->SizeBytes(), sizeof(Task) + 3 * sizeof(EdgeId));
  Task::Free(expand);
}

TEST(TaskMemoryTrackerTest, TracksPeak) {
  TaskMemoryTracker t;
  t.OnAlloc(100);
  t.OnAlloc(50);
  EXPECT_EQ(t.current_bytes(), 150u);
  EXPECT_EQ(t.peak_bytes(), 150u);
  t.OnFree(100);
  t.OnAlloc(20);
  EXPECT_EQ(t.current_bytes(), 70u);
  EXPECT_EQ(t.peak_bytes(), 150u);
  t.Reset();
  EXPECT_EQ(t.peak_bytes(), 0u);
}

TEST(TaskMemoryTrackerTest, TakePeakRestartsAtLiveBytes) {
  TaskMemoryTracker t;
  t.OnAlloc(100);
  t.OnFree(60);
  EXPECT_EQ(t.TakePeak(), 100u);
  EXPECT_EQ(t.peak_bytes(), 40u);  // live bytes carry into the next window
  t.OnAlloc(10);
  EXPECT_EQ(t.TakePeak(), 50u);
}

TEST(ParallelExecutorTest, PaperExampleAllThreadCounts) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  for (uint32_t threads : {1u, 2u, 3u, 8u}) {
    ParallelOptions options;
    options.num_threads = threads;
    options.scan_grain = 1;
    Result<ParallelResult> r = MatchParallel(idx, q, options);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().stats.embeddings, 2u) << threads << " threads";
    EXPECT_EQ(r.value().workers.size(), threads);
  }
}

TEST(ParallelExecutorTest, SinkReceivesAllEmbeddingsExactlyOnce) {
  Hypergraph data = GenerateHypergraph(SmallRandomConfig(5));
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(data));
  GeneratorConfig qc = SmallRandomConfig(55);
  qc.num_edges = 3;
  Hypergraph q = GenerateHypergraph(qc);
  ASSERT_GT(q.NumEdges(), 0u);

  Result<QueryPlan> plan = BuildQueryPlan(q, idx);
  ASSERT_TRUE(plan.ok());
  CollectSink seq_sink;
  ExecutePlanSequential(idx, plan.value(), MatchOptions{}, &seq_sink);

  ParallelOptions options;
  options.num_threads = 4;
  CollectSink par_sink;
  ExecutePlanParallel(idx, plan.value(), options, &par_sink);

  auto a = seq_sink.embeddings();
  auto b = par_sink.embeddings();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(ParallelExecutorTest, WorkerReportsAccount) {
  Hypergraph data = GenerateHypergraph(SmallRandomConfig(3));
  Rng rng(33);
  Result<Hypergraph> sampled =
      SampleQuery(data, QuerySettings{"t", 2, 2, 100}, &rng);
  ASSERT_TRUE(sampled.ok());
  Hypergraph q = std::move(sampled.value());
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(data));
  ParallelOptions options;
  options.num_threads = 2;
  Result<ParallelResult> r = MatchParallel(idx, q, options);
  ASSERT_TRUE(r.ok());
  uint64_t executed = 0, spawned = 0;
  for (const WorkerReport& w : r.value().workers) {
    executed += w.tasks_executed;
    spawned += w.tasks_spawned;
  }
  // Every spawned task is executed (or drained, but nothing stops early
  // here).
  EXPECT_EQ(executed, spawned);
  EXPECT_GT(executed, 0u);
  EXPECT_GT(r.value().peak_task_bytes, 0u);
}

TEST(ParallelExecutorTest, LimitStops) {
  Hypergraph h;
  h.AddVertices(100, 0);
  for (VertexId v = 0; v + 1 < 100; ++v) (void)h.AddEdge({v, v + 1});
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(h));
  Hypergraph q;
  q.AddVertices(3, 0);
  (void)q.AddEdge({0, 1});
  (void)q.AddEdge({1, 2});
  ParallelOptions options;
  options.num_threads = 2;
  options.limit = 3;
  Result<ParallelResult> r = MatchParallel(idx, q, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().stats.limit_hit);
  EXPECT_GE(r.value().stats.embeddings, 3u);
}

TEST(ParallelExecutorTest, NoStealMeansZeroSteals) {
  Hypergraph data = GenerateHypergraph(SmallRandomConfig(7));
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(data));
  GeneratorConfig qc = SmallRandomConfig(77);
  qc.num_edges = 2;
  Hypergraph q = GenerateHypergraph(qc);
  ParallelOptions options;
  options.num_threads = 4;
  options.work_stealing = false;
  Result<ParallelResult> r = MatchParallel(idx, q, options);
  ASSERT_TRUE(r.ok());
  for (const WorkerReport& w : r.value().workers) {
    EXPECT_EQ(w.steals, 0u);
  }
}

// A data graph with a sampled 2-edge query over it, for the cached-pool
// tests.
struct SampledCase {
  IndexedHypergraph index;
  Hypergraph query;
  uint64_t expected = 0;  // MatchSequential's count
};

SampledCase MakeSampledCase(uint64_t seed) {
  Hypergraph data = GenerateHypergraph(SmallRandomConfig(seed));
  Rng rng(seed * 11);
  Result<Hypergraph> sampled =
      SampleQuery(data, QuerySettings{"t", 2, 2, 100}, &rng);
  EXPECT_TRUE(sampled.ok());
  SampledCase c{IndexedHypergraph::Build(std::move(data)),
                std::move(sampled.value()), 0};
  c.expected = MatchSequential(c.index, c.query).value().embeddings;
  return c;
}

// One thread's pool is reused across calls and rebuilt when the shape
// changes; every call's result covers that call alone.
TEST(ParallelExecutorTest, BackToBackCallsReportEachCallAlone) {
  const SampledCase cases[] = {MakeSampledCase(3), MakeSampledCase(8)};
  for (uint32_t threads : {1u, 3u, 1u}) {
    for (int rep = 0; rep < 3; ++rep) {
      for (const SampledCase& c : cases) {
        ParallelOptions options;
        options.num_threads = threads;
        options.scan_grain = 2;
        Result<ParallelResult> r = MatchParallel(c.index, c.query, options);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value().stats.embeddings, c.expected)
            << threads << " threads";
        ASSERT_EQ(r.value().workers.size(), threads);
        uint64_t executed = 0, spawned = 0, embeddings = 0;
        for (const WorkerReport& w : r.value().workers) {
          executed += w.tasks_executed;
          spawned += w.tasks_spawned;
          embeddings += w.stats.embeddings;
        }
        EXPECT_EQ(executed, spawned) << threads << " threads";
        EXPECT_GT(executed, 0u);
        EXPECT_EQ(embeddings, c.expected);
        EXPECT_GT(r.value().peak_task_bytes, 0u);
      }
    }
  }
}

// Each caller thread has its own pool, so concurrent callers neither share
// workers nor mix their counts.
TEST(ParallelExecutorTest, ConcurrentCallersAgreeWithSequential) {
  const SampledCase c = MakeSampledCase(5);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int rep = 0; rep < 20; ++rep) {
        ParallelOptions options;
        options.num_threads = 2;
        Result<ParallelResult> r = MatchParallel(c.index, c.query, options);
        if (!r.ok() || r.value().stats.embeddings != c.expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         double(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

// The pool a call leaves behind parks its workers instead of spinning.
TEST(ParallelExecutorTest, IdleCachedPoolCostsNoCpu) {
  const SampledCase c = MakeSampledCase(3);
  ParallelOptions options;
  options.num_threads = 3;
  ASSERT_TRUE(MatchParallel(c.index, c.query, options).ok());
  const double cpu0 = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(ProcessCpuSeconds() - cpu0, 0.015);
}

TEST(BfsExecutorTest, MaterialisesMoreThanTaskScheduler) {
  // A query with a large intermediate blow-up: BFS must report peak bytes
  // at least as large as the number of level-1 results, while the task
  // scheduler's peak stays near the deque bound.
  Hypergraph h;
  h.AddVertices(200, 0);
  for (VertexId v = 0; v + 1 < 200; ++v) (void)h.AddEdge({v, v + 1});
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(h));
  Hypergraph q;
  q.AddVertices(4, 0);
  (void)q.AddEdge({0, 1});
  (void)q.AddEdge({1, 2});
  (void)q.AddEdge({2, 3});

  Result<QueryPlan> plan = BuildQueryPlan(q, idx);
  ASSERT_TRUE(plan.ok());
  ParallelOptions options;
  options.num_threads = 2;
  BfsResult bfs = ExecutePlanBfs(idx, plan.value(), options);
  ParallelResult task = ExecutePlanParallel(idx, plan.value(), options);
  EXPECT_EQ(bfs.stats.embeddings, task.stats.embeddings);
  EXPECT_GT(bfs.peak_bytes, 0u);
}

TEST(DataflowTest, GraphShapeAndPrinting) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  Result<QueryPlan> plan = BuildQueryPlan(q, idx);
  ASSERT_TRUE(plan.ok());
  DataflowGraph g = DataflowGraph::FromPlan(plan.value());
  ASSERT_EQ(g.operators().size(), 4u);  // SCAN, EXPAND, EXPAND, SINK
  EXPECT_EQ(g.operators()[0].kind, DataflowGraph::OperatorKind::kScan);
  EXPECT_EQ(g.operators()[1].kind, DataflowGraph::OperatorKind::kExpand);
  EXPECT_EQ(g.operators()[3].kind, DataflowGraph::OperatorKind::kSink);
  const std::string s = g.ToString(&idx);
  EXPECT_NE(s.find("SCAN{A,B} [card=2]"), std::string::npos);
  EXPECT_NE(s.find("SINK"), std::string::npos);
}

TEST(DataflowTest, FilterSinkDropsAndCounts) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  CountSink count;
  // Keep only embeddings whose first matched hyperedge is e1 (id 0).
  FilterSink filter([](const EdgeId* edges, uint32_t) { return edges[0] == 0; },
                    &count);
  Result<MatchStats> stats = MatchSequential(idx, q, MatchOptions{}, &filter);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(filter.seen(), 2u);
  EXPECT_EQ(filter.passed(), 1u);
  EXPECT_EQ(count.count(), 1u);
}

TEST(DataflowTest, GroupCountSinkAggregates) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  GroupCountSink groups(
      [](const EdgeId* edges, uint32_t) { return uint64_t{edges[0]}; });
  ASSERT_TRUE(MatchSequential(idx, q, MatchOptions{}, &groups).ok());
  ASSERT_EQ(groups.counts().size(), 2u);
  EXPECT_EQ(groups.counts().at(0), 1u);  // group of e1
  EXPECT_EQ(groups.counts().at(1), 1u);  // group of e2
}

}  // namespace
}  // namespace hgmatch
