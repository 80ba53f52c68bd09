// Edge-path coverage of the shared scheduler core (parallel/scheduler.h)
// through its two facades: admission window, timeouts measured from
// admission, limit overshoot bounds, the live task memory bound, degenerate
// pool sizes, fairness under an expensive query, and input-order
// determinism.

#include "parallel/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/hgmatch.h"
#include "parallel/service.h"
#include "parallel/task.h"
#include "tests/test_fixtures.h"
#include "util/timer.h"

namespace hgmatch {
namespace {

// Complete "co-occurrence" data hypergraph: every pair {i, j} of m label-0
// vertices is a hyperedge, so path queries blow up combinatorially — the
// expensive-query stressor of these tests.
Hypergraph PairCliqueData(uint32_t m) {
  Hypergraph h;
  h.AddVertices(m, 0);
  for (VertexId i = 0; i < m; ++i) {
    for (VertexId j = i + 1; j < m; ++j) (void)h.AddEdge({i, j});
  }
  return h;
}

// Path query of `k` edges over label-0 vertices: {0,1}, {1,2}, ...
Hypergraph PathQuery(uint32_t k) {
  Hypergraph q;
  q.AddVertices(k + 1, 0);
  for (VertexId v = 0; v < k; ++v) (void)q.AddEdge({v, v + 1});
  return q;
}

// Three structurally distinct query shapes, for pool-degeneracy checks.
std::vector<Hypergraph> DistinctQueries() {
  std::vector<Hypergraph> queries;
  queries.push_back(PaperQueryHypergraph());
  {
    Hypergraph q;  // single {A,B} edge
    const Label A = 0, B = 1;
    q.AddVertex(A);
    q.AddVertex(B);
    (void)q.AddEdge({0, 1});
    queries.push_back(std::move(q));
  }
  {
    Hypergraph q;  // single {A,A,B,C} edge
    const Label A = 0, B = 1, C = 2;
    q.AddVertex(A);
    q.AddVertex(A);
    q.AddVertex(B);
    q.AddVertex(C);
    (void)q.AddEdge({0, 1, 2, 3});
    queries.push_back(std::move(q));
  }
  return queries;
}

// Records the outcome of every query submitted through it, from the
// completion hook: the scheduler's only outcome channel. Every submission
// to the scheduler must go through Submit(), because indices are handed out
// 0, 1, 2, ... in submission order and a hook can fire before Submit()
// returns (a rejection fires it inside the call). Declare the log before
// the scheduler: the scheduler's destructor can still fire hooks.
class OutcomeLog {
 public:
  // Submits with `so`; its own hook, if any, runs after the outcome is
  // recorded.
  uint32_t Submit(Scheduler& scheduler, const QueryPlan* plan,
                  const IndexedHypergraph& data, SubmitOptions so = {}) {
    const uint32_t expected = next_++;
    so.completion = [this, expected, hook = std::move(so.completion)](
                        const QueryOutcome& out) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        outcomes_.emplace(expected, out);
      }
      if (hook) hook(out);
    };
    const uint32_t index = scheduler.Submit(plan, data, so);
    EXPECT_EQ(index, expected);
    return index;
  }

  // The recorded outcome; null until the query's hook has run.
  const QueryOutcome* Get(uint32_t query) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = outcomes_.find(query);
    return it == outcomes_.end() ? nullptr : &it->second;
  }

 private:
  uint32_t next_ = 0;
  std::mutex mutex_;
  std::map<uint32_t, QueryOutcome> outcomes_;  // node-stable
};

std::vector<uint64_t> SequentialCounts(const IndexedHypergraph& idx,
                                       const std::vector<Hypergraph>& queries) {
  std::vector<uint64_t> expected;
  for (const Hypergraph& q : queries) {
    Result<MatchStats> r = MatchSequential(idx, q);
    expected.push_back(r.ok() ? r.value().embeddings : 0);
  }
  return expected;
}

TEST(SchedulerTest, DeterministicInputOrderAcrossConfigurations) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(8));
  std::vector<Hypergraph> queries;
  for (uint32_t k : {1u, 2u, 3u}) queries.push_back(PathQuery(k));
  const std::vector<uint64_t> expected = SequentialCounts(idx, queries);
  // Pairwise-distinct counts, so any cross-query mix-up is visible.
  ASSERT_NE(expected[0], expected[1]);
  ASSERT_NE(expected[1], expected[2]);
  ASSERT_NE(expected[0], expected[2]);

  for (uint32_t threads : {1u, 4u}) {
    for (uint32_t window : {0u, 1u, 2u}) {
      ServiceOptions options;
      options.parallel.num_threads = threads;
      options.parallel.scan_grain = 1;
      options.max_inflight_queries = window;
      const BatchRun r = RunBatch(idx, queries, options);
      ASSERT_EQ(r.tickets.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(r.tickets[i].Wait().stats.embeddings, expected[i])
            << "query " << i << " threads=" << threads
            << " window=" << window;
      }
      EXPECT_EQ(Completed(r), queries.size());
    }
  }
}

TEST(SchedulerTest, ZeroAndSingleThreadPools) {
  Hypergraph data = GenerateHypergraph(SmallRandomConfig(13));
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(data));
  std::vector<Hypergraph> queries = DistinctQueries();
  const std::vector<uint64_t> expected = SequentialCounts(idx, queries);

  // num_threads = 0 resolves to hardware_concurrency (>= 1 worker).
  ServiceOptions defaults;
  const BatchRun auto_pool = RunBatch(idx, queries, defaults);
  EXPECT_GE(auto_pool.report.workers.size(), 1u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(auto_pool.tickets[i].Wait().stats.embeddings, expected[i]);
  }

  // A single worker still honours admission windows.
  ServiceOptions one;
  one.parallel.num_threads = 1;
  one.max_inflight_queries = 1;
  const BatchRun single = RunBatch(idx, queries, one);
  EXPECT_EQ(single.report.workers.size(), 1u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(single.tickets[i].Wait().stats.embeddings, expected[i]);
  }
}

// Workers of a pool with no live task sleep untimed; a submission and the
// destructor must each wake them. A lost wakeup hangs here, so both must
// finish far inside their bounds.
TEST(SchedulerTest, IdlePoolWakesForSubmissionAndDestruction) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Result<QueryPlan> plan = BuildQueryPlan(PaperQueryHypergraph(), idx);
  ASSERT_TRUE(plan.ok());
  SchedulerOptions options;
  options.parallel.num_threads = 3;
  OutcomeLog log;
  auto scheduler = std::make_unique<Scheduler>(options);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Timer run;
  const uint32_t query = log.Submit(*scheduler, &plan.value(), idx);
  scheduler->WaitIdle();
  EXPECT_LT(run.ElapsedSeconds(), 0.25);
  ASSERT_NE(log.Get(query), nullptr);
  EXPECT_EQ(log.Get(query)->stats.embeddings, 2u);
  EXPECT_EQ(scheduler->WorkerReports().size(), 3u);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Timer stop;
  scheduler.reset();
  EXPECT_LT(stop.ElapsedSeconds(), 0.25);
}

// Star data for the mid-query park: one root edge {h, r}, n spokes
// {h, s_i} and one leaf {s_i, t_i} per spoke, with labels h=0, s=1, r=2,
// t=3. Matched by StarQuery() from the root, it has one task at depth 1
// whose Expand walks all n spokes before it spawns anything, then n
// independent leaf tasks of one embedding each.
Hypergraph StarData(uint32_t n) {
  Hypergraph h;
  const VertexId hub = h.AddVertex(0);
  const VertexId root = h.AddVertex(2);
  (void)h.AddEdge({hub, root});
  for (uint32_t i = 0; i < n; ++i) {
    const VertexId spoke = h.AddVertex(1);
    const VertexId leaf = h.AddVertex(3);
    (void)h.AddEdge({hub, spoke});
    (void)h.AddEdge({spoke, leaf});
  }
  return h;
}

Hypergraph StarQuery() {
  Hypergraph q;
  for (Label l : {0u, 2u, 1u, 3u}) q.AddVertex(l);
  (void)q.AddEdge({0, 1});
  (void)q.AddEdge({0, 2});
  (void)q.AddEdge({2, 3});
  return q;
}

// Mid-query, every worker but one parks untimed: the only live task is
// the depth-1 expansion, whose Expand over all spokes (a few ms) outlasts
// the spin rounds of idle workers that have cores of their own. A sink
// callback cannot be the hold, since a task that emits spawns nothing.
// Only spawns can then wake the parked workers, so a lost wake leaves
// every leaf task to one worker and shows as a single emitting thread.
// The query must still finish, exactly.
TEST(SchedulerTest, SpawnsWakeWorkersParkedMidQuery) {
  static const IndexedHypergraph idx =
      IndexedHypergraph::Build(StarData(100000));
  Result<QueryPlan> plan = BuildQueryPlan(StarQuery(), idx);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(idx.Cardinality(plan.value().steps[0].signature), 1u);
  Result<MatchStats> expected = MatchSequential(idx, StarQuery());
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected.value().embeddings, 100000u);

  std::mutex mutex;
  std::set<std::thread::id> emitters;
  CallbackSink sink([&](const EdgeId*, uint32_t) {
    std::lock_guard<std::mutex> lock(mutex);
    emitters.insert(std::this_thread::get_id());
  });
  SchedulerOptions options;
  options.parallel.num_threads = 4;
  OutcomeLog log;
  Scheduler scheduler(options);
  SubmitOptions so;
  so.sink = &sink;
  Timer run;
  const uint32_t query = log.Submit(scheduler, &plan.value(), idx, so);
  scheduler.WaitIdle();
  EXPECT_LT(run.ElapsedSeconds(), 10.0);
  ASSERT_NE(log.Get(query), nullptr);
  EXPECT_EQ(log.Get(query)->status, QueryStatus::kOk);
  EXPECT_EQ(log.Get(query)->stats.embeddings, expected.value().embeddings);
  EXPECT_GT(emitters.size(), 1u);
}

TEST(SchedulerTest, AdmissionWindowOfOneSerialisesQueries) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(12));
  std::vector<Hypergraph> queries;
  queries.push_back(PathQuery(2));
  queries.push_back(PathQuery(3));
  queries.push_back(PathQuery(2).Clone());  // identical to queries[0]

  ServiceOptions options;
  options.parallel.num_threads = 4;
  options.max_inflight_queries = 1;
  options.plan_cache = false;  // every copy runs, so admission is observable
  const BatchRun r = RunBatch(idx, queries, options);

  const std::vector<uint64_t> expected = SequentialCounts(idx, queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(r.tickets[i].Wait().stats.embeddings, expected[i])
        << "query " << i;
  }
  // With a window of one, query i is only admitted once query i-1 retired
  // its last task.
  for (size_t i = 1; i < queries.size(); ++i) {
    const QueryOutcome& prev = r.tickets[i - 1].Wait();
    const double prev_finish = prev.admit_seconds + prev.stats.seconds;
    EXPECT_GE(r.tickets[i].Wait().admit_seconds, prev_finish) << "query " << i;
  }
}

TEST(SchedulerTest, MidRunAdmissionsDoNotRequireWorkStealing) {
  // Queries admitted mid-run are seeded through the shared injection queue
  // that idle workers drain directly, so an admission window composes with
  // work stealing disabled: every query still spreads and completes exactly.
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(10));
  std::vector<Hypergraph> queries;
  for (uint32_t k : {1u, 2u, 3u, 1u, 2u, 3u}) queries.push_back(PathQuery(k));
  const std::vector<uint64_t> expected = SequentialCounts(idx, queries);

  ServiceOptions options;
  options.parallel.num_threads = 4;
  options.parallel.scan_grain = 1;
  options.parallel.work_stealing = false;
  options.max_inflight_queries = 2;
  options.plan_cache = false;  // every copy is admitted and executed
  const BatchRun r = RunBatch(idx, queries, options);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(r.tickets[i].Wait().stats.embeddings, expected[i])
        << "query " << i;
  }
  EXPECT_EQ(Completed(r), queries.size());
}

TEST(SchedulerTest, AdmissionChurnStressKeepsCountsExact) {
  // Regression: mid-run admission used to push its SCAN ranges one Spawn at
  // a time into a live deque, so a thief could retire the first range —
  // ctx->pending transiently zero — before the next was pushed, running the
  // last-task path in Finish() twice: the admission slot was double-freed
  // and the unsigned inflight counter wrapped, hanging the run. Many tiny
  // queries through a window of 1 maximise mid-run admissions; the batch
  // must terminate with exact per-query counts.
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(8));
  std::vector<Hypergraph> queries;
  for (int i = 0; i < 32; ++i) queries.push_back(PathQuery(1 + i % 2));
  const std::vector<uint64_t> expected = SequentialCounts(idx, queries);

  ServiceOptions options;
  options.parallel.num_threads = 4;
  options.parallel.scan_grain = 1;  // one hyperedge per task: maximum churn
  options.max_inflight_queries = 1;
  options.plan_cache = false;
  const BatchRun r = RunBatch(idx, queries, options);
  ASSERT_EQ(r.tickets.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(r.tickets[i].Wait().stats.embeddings, expected[i])
        << "query " << i;
  }
  EXPECT_EQ(Completed(r), queries.size());
}

TEST(SchedulerTest, FairnessCheapQueryCompletesUnderExpensiveLoad) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  std::vector<Hypergraph> queries;
  queries.push_back(PathQuery(4));  // expensive: burns its whole budget
  queries.push_back(PathQuery(1));  // cheap: one SCAN pass

  const uint64_t cheap_expected =
      MatchSequential(idx, queries[1]).value().embeddings;

  ServiceOptions options;
  options.parallel.num_threads = 4;
  options.parallel.timeout_seconds = 0.25;  // only the expensive one hits it
  options.max_inflight_queries = 2;
  const BatchRun r = RunBatch(idx, queries, options);

  // The cheap query is admitted alongside the expensive one and completes
  // exactly, milliseconds into the run, while the expensive query is still
  // saturating the pool (it runs its full 0.25s budget).
  EXPECT_TRUE(r.tickets[0].Wait().stats.timed_out);
  EXPECT_FALSE(r.tickets[1].Wait().stats.timed_out);
  EXPECT_EQ(r.tickets[1].Wait().stats.embeddings, cheap_expected);
  const QueryOutcome& cheap = r.tickets[1].Wait();
  const QueryOutcome& expensive = r.tickets[0].Wait();
  const double cheap_finish = cheap.admit_seconds + cheap.stats.seconds;
  const double expensive_finish =
      expensive.admit_seconds + expensive.stats.seconds;
  EXPECT_LT(cheap_finish, expensive_finish);
  EXPECT_EQ(Completed(r), 1u);
}

TEST(SchedulerTest, TaskMemoryStaysBoundedUnderAdmissionStream) {
  // No per-query cap bounds an expensive query's tasks: each worker expands
  // depth-first (LIFO) and spawns only the children of the task it runs,
  // so live task memory stays within the P*S1 form of the work-stealing
  // space bound (threads x plan steps x largest Expand output x largest
  // task), even while a steady stream of admissions (a serving load) keeps
  // seeding new queries next to it.
  constexpr uint32_t kVertices = 40;
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(kVertices));
  const Hypergraph expensive = PathQuery(4);
  const Hypergraph cheap = PathQuery(1);
  Result<QueryPlan> expensive_plan = BuildQueryPlan(expensive, idx);
  Result<QueryPlan> cheap_plan = BuildQueryPlan(cheap, idx);
  ASSERT_TRUE(expensive_plan.ok());
  ASSERT_TRUE(cheap_plan.ok());
  const uint64_t cheap_expected =
      MatchSequential(idx, cheap).value().embeddings;

  SchedulerOptions options;
  options.parallel.num_threads = 4;
  OutcomeLog log;
  Scheduler scheduler(options);
  SubmitOptions expensive_options;
  expensive_options.timeout_seconds = 0.3;
  const uint32_t monster = log.Submit(scheduler, &expensive_plan.value(), idx,
                                      expensive_options);
  // One cheap query at a time, so the stream's own tasks stay negligible
  // next to the monster's.
  std::vector<uint32_t> cheap_ids;
  while (log.Get(monster) == nullptr) {
    cheap_ids.push_back(log.Submit(scheduler, &cheap_plan.value(), idx));
    while (log.Get(cheap_ids.back()) == nullptr) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  scheduler.WaitIdle();

  EXPECT_TRUE(log.Get(monster)->stats.timed_out);
  for (uint32_t id : cheap_ids) {
    const QueryOutcome* out = log.Get(id);
    EXPECT_EQ(out->status, QueryStatus::kOk) << "query " << id;
    EXPECT_EQ(out->stats.embeddings, cheap_expected);
  }
  // A path step extends hyperedge {i, j} by a pair through i or j: at most
  // 2 * (kVertices - 2) children per Expand (the scan grain, 64, is below
  // that). The largest task this plan spawns is an EXPAND of three
  // hyperedges.
  const uint64_t max_children = 2 * (kVertices - 2);
  const uint64_t max_task_bytes = sizeof(Task) + 3 * sizeof(EdgeId);
  const uint64_t bound = uint64_t{options.parallel.num_threads} *
                         expensive_plan.value().NumSteps() * max_children *
                         max_task_bytes;
  EXPECT_LE(scheduler.TakePeakTaskBytes(), bound)
      << cheap_ids.size() << " admissions";
}

TEST(SchedulerTest, LimitOvershootIsBoundedByPoolSize) {
  const uint32_t threads = 4;
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(20));
  std::vector<Hypergraph> queries;
  queries.push_back(PathQuery(3));

  ServiceOptions options;
  options.parallel.num_threads = threads;
  options.parallel.limit = 10;
  const BatchRun r = RunBatch(idx, queries, options);
  EXPECT_TRUE(r.tickets[0].Wait().stats.limit_hit);
  // Every emission goes through one fetch_add on the per-query counter, and
  // the emitting worker that crosses the limit stops itself before its next
  // child — so each of the other workers can emit at most one straggler.
  EXPECT_GE(r.tickets[0].Wait().stats.embeddings, 10u);
  EXPECT_LE(r.tickets[0].Wait().stats.embeddings, 10u + threads);
}

TEST(SchedulerTest, PerQueryTimeoutFiresMidBatchAndIsolatesNeighbours) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  std::vector<Hypergraph> queries;
  queries.push_back(PathQuery(4));  // far more work than the budget allows
  queries.push_back(PathQuery(1));
  queries.push_back(PathQuery(1).Clone());

  const uint64_t cheap_expected =
      MatchSequential(idx, queries[1]).value().embeddings;

  ServiceOptions options;
  options.parallel.num_threads = 4;
  options.parallel.timeout_seconds = 0.05;
  options.plan_cache = false;
  const BatchRun r = RunBatch(idx, queries, options);

  EXPECT_TRUE(r.tickets[0].Wait().stats.timed_out);
  for (size_t i = 1; i < queries.size(); ++i) {
    EXPECT_FALSE(r.tickets[i].Wait().stats.timed_out) << "query " << i;
    EXPECT_EQ(r.tickets[i].Wait().stats.embeddings, cheap_expected)
        << "query " << i;
  }
  EXPECT_EQ(Completed(r), 2u);
}

TEST(SchedulerTest, PerQueryTimeoutMeasuredFromAdmission) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  std::vector<Hypergraph> queries;
  queries.push_back(PathQuery(4));  // burns its whole 0.15s budget
  queries.push_back(PathQuery(1));  // admitted after ~0.15s, finishes in ms

  const uint64_t cheap_expected =
      MatchSequential(idx, queries[1]).value().embeddings;

  ServiceOptions options;
  options.parallel.num_threads = 4;
  options.parallel.timeout_seconds = 0.15;
  options.max_inflight_queries = 1;
  const BatchRun r = RunBatch(idx, queries, options);

  EXPECT_TRUE(r.tickets[0].Wait().stats.timed_out);
  // The cheap query was admitted only after the expensive one exhausted its
  // budget; were timeouts measured from batch start it would be dead on
  // arrival. Measured from admission, it completes exactly.
  EXPECT_GE(r.tickets[1].Wait().admit_seconds, 0.05);
  EXPECT_FALSE(r.tickets[1].Wait().stats.timed_out);
  EXPECT_EQ(r.tickets[1].Wait().stats.embeddings, cheap_expected);
}

TEST(SchedulerTest, CompletedCountsAreNeverMarkedTimedOut) {
  // A deadline that has long expired before the query runs still yields exact,
  // un-flagged results when every task completes its counts (the scheduler
  // only reports timed_out when work was actually dropped).
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  std::vector<Hypergraph> queries;
  queries.push_back(PaperQueryHypergraph());

  ServiceOptions options;
  options.parallel.num_threads = 2;
  options.parallel.timeout_seconds = 1e-9;
  const BatchRun r = RunBatch(idx, queries, options);
  EXPECT_EQ(r.tickets[0].Wait().stats.embeddings, 2u);
  EXPECT_FALSE(r.tickets[0].Wait().stats.timed_out);
  EXPECT_EQ(Completed(r), 1u);
}

TEST(SchedulerTest, BatchTimeoutStopsStragglersAndKeepsFinishedExact) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  std::vector<Hypergraph> queries;
  queries.push_back(PathQuery(4));  // straggler, stopped by the batch budget
  queries.push_back(PathQuery(1));  // finishes long before the batch budget

  const uint64_t cheap_expected =
      MatchSequential(idx, queries[1]).value().embeddings;

  ServiceOptions options;
  options.parallel.num_threads = 4;
  options.run_timeout_seconds = 0.08;
  const BatchRun r = RunBatch(idx, queries, options);

  EXPECT_TRUE(r.tickets[0].Wait().stats.timed_out);
  EXPECT_EQ(r.tickets[1].Wait().stats.embeddings, cheap_expected);
  EXPECT_FALSE(r.tickets[1].Wait().stats.timed_out);
  EXPECT_EQ(Completed(r), 1u);
}

TEST(SchedulerTest, BatchTimeoutStopsQueriesSubmittedAfterItFired) {
  // The whole-run budget starts at construction. A query submitted after it
  // ran out, and after a running query already triggered the one sweep over
  // the queries of that moment, must still be stopped, not run unbounded.
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  const Hypergraph query = PathQuery(4);
  Result<QueryPlan> plan = BuildQueryPlan(query, idx);
  ASSERT_TRUE(plan.ok());

  SchedulerOptions options;
  options.parallel.num_threads = 4;
  options.batch_timeout_seconds = 0.05;
  OutcomeLog log;
  Scheduler scheduler(options);
  const uint32_t first = log.Submit(scheduler, &plan.value(), idx);
  scheduler.WaitIdle();  // stopped by the sweep its own workers ran
  ASSERT_EQ(log.Get(first)->status, QueryStatus::kTimeout);

  const uint32_t late = log.Submit(scheduler, &plan.value(), idx);
  scheduler.WaitIdle();
  const QueryOutcome* out = log.Get(late);
  EXPECT_EQ(out->status, QueryStatus::kTimeout);
  EXPECT_TRUE(out->stats.timed_out);
  EXPECT_EQ(out->stats.embeddings, 0u);
}

TEST(SchedulerTest, DirectCoreBatchOfOneMatchesExecutor) {
  // The Scheduler class is also usable directly: a batch of one must agree
  // with the executor facade bit-for-bit on counts.
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  Result<QueryPlan> plan = BuildQueryPlan(q, idx);
  ASSERT_TRUE(plan.ok());

  SchedulerOptions options;
  options.parallel.num_threads = 3;
  options.parallel.scan_grain = 1;
  OutcomeLog log;
  Scheduler scheduler(options);
  EXPECT_EQ(log.Submit(scheduler, &plan.value(), idx), 0u);
  scheduler.WaitIdle();
  const QueryOutcome* out = log.Get(0);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->stats.embeddings, 2u);
  EXPECT_EQ(scheduler.WorkerReports().size(), 3u);

  ParallelOptions popts;
  popts.num_threads = 3;
  popts.scan_grain = 1;
  const ParallelResult via_facade =
      ExecutePlanParallel(idx, plan.value(), popts);
  EXPECT_EQ(via_facade.stats.embeddings, out->stats.embeddings);
}

// Star query: `k` label-0 edges {0, i} sharing vertex 0.
Hypergraph StarQuery(uint32_t k) {
  Hypergraph q;
  q.AddVertices(k + 1, 0);
  for (VertexId v = 1; v <= k; ++v) (void)q.AddEdge({0, v});
  return q;
}

// Cycle query of `k` label-0 edges {0,1}, {1,2}, ..., {k-1,0}.
Hypergraph CycleQuery(uint32_t k) {
  Hypergraph q;
  q.AddVertices(k, 0);
  for (VertexId v = 0; v < k; ++v) (void)q.AddEdge({v, (v + 1) % k});
  return q;
}

// Band graph: label-0 vertices 0..m-1 with a hyperedge {i, j} whenever
// 0 < j - i <= width. Unlike a clique, it gives queries with the same
// number of vertices different counts.
Hypergraph BandData(uint32_t m, uint32_t width) {
  Hypergraph h;
  h.AddVertices(m, 0);
  for (VertexId i = 0; i < m; ++i) {
    for (VertexId j = i + 1; j < m && j - i <= width; ++j) {
      (void)h.AddEdge({i, j});
    }
  }
  return h;
}

// Each worker adds its tasks' counters to its own slot of the query, and
// the slots are summed when the last task retires. Many queries with
// distinct counts running at once on one stealing pool, one hyperedge per
// SCAN task, mix every query's tasks over every worker, so a slot that is
// not summed or a count added to another query's slots shows as a wrong
// Fig 9 counter.
TEST(SchedulerTest, ConcurrentQueriesKeepExactFig9Counters) {
  IndexedHypergraph idx = IndexedHypergraph::Build(BandData(16, 4));
  std::vector<Hypergraph> queries;
  for (uint32_t k : {1u, 2u, 3u, 4u}) queries.push_back(PathQuery(k));
  queries.push_back(StarQuery(3));
  queries.push_back(StarQuery(4));
  queries.push_back(CycleQuery(3));
  queries.push_back(CycleQuery(4));
  std::vector<QueryPlan> plans;
  std::vector<MatchStats> expected;
  for (const Hypergraph& q : queries) {
    Result<QueryPlan> plan = BuildQueryPlan(q, idx);
    Result<MatchStats> seq = MatchSequential(idx, q);
    ASSERT_TRUE(plan.ok() && seq.ok());
    // The parallel engine scans the first table without an Expand call, so
    // its counters lack the step-0 call's: one expansion, and every
    // hyperedge of the table as a candidate that passes the filter.
    MatchStats want = seq.value();
    const uint64_t scanned =
        idx.FindPartition(plan.value().steps[0].signature)->size();
    want.candidates -= scanned;
    want.filtered -= scanned;
    want.expansions -= 1;
    expected.push_back(want);
    plans.push_back(std::move(plan).value());
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      ASSERT_NE(expected[i].embeddings, expected[j].embeddings)
          << "queries " << i << " and " << j;
    }
  }

  for (uint32_t window : {0u, 2u}) {
    SchedulerOptions options;
    options.parallel.num_threads = 4;
    options.parallel.work_stealing = true;
    options.parallel.scan_grain = 1;
    options.max_inflight_queries = window;
    OutcomeLog log;
    Scheduler scheduler(options);
    for (const QueryPlan& plan : plans) log.Submit(scheduler, &plan, idx);
    scheduler.WaitIdle();
    const std::string config = "window=" + std::to_string(window);
    for (uint32_t i = 0; i < plans.size(); ++i) {
      SCOPED_TRACE(config + " query " + std::to_string(i));
      const QueryOutcome* out = log.Get(i);
      ASSERT_NE(out, nullptr);
      EXPECT_EQ(out->status, QueryStatus::kOk);
      EXPECT_EQ(out->stats.embeddings, expected[i].embeddings);
      EXPECT_EQ(out->stats.candidates, expected[i].candidates);
      EXPECT_EQ(out->stats.filtered, expected[i].filtered);
      EXPECT_EQ(out->stats.expansions, expected[i].expansions);
    }
  }
}

// A sink whose first Emit blocks until Release(): with an admission window
// of 1 the owning "plug" query deterministically holds the window while a
// test stages queries behind it.
class GateSink : public EmbeddingSink {
 public:
  void Emit(const EdgeId*, uint32_t) override {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }

  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return entered_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(SchedulerTest, ContextTableStaysBoundedUnderStreamingChurn) {
  // Bounded retention: thousands of queries stream through a tiny window;
  // the context table must track in-flight work and keep nothing of a
  // finished query, so it never grows with the total ever submitted (the
  // months-long-service guarantee).
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(6));
  const Hypergraph query = PathQuery(1);
  Result<QueryPlan> plan = BuildQueryPlan(query, idx);
  ASSERT_TRUE(plan.ok());

  SchedulerOptions options;
  options.parallel.num_threads = 2;
  options.max_inflight_queries = 2;
  OutcomeLog log;
  Scheduler scheduler(options);

  constexpr int kWaves = 40;
  constexpr int kPerWave = 50;  // 2000 submissions in total
  size_t max_live = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<uint32_t> ids;
    for (int i = 0; i < kPerWave; ++i) {
      ids.push_back(log.Submit(scheduler, &plan.value(), idx));
    }
    max_live = std::max(max_live, scheduler.LiveContexts());
    scheduler.WaitIdle();
    // A context is freed before its query's hook runs, and WaitIdle
    // returns only after every hook: nothing of the wave is left.
    EXPECT_EQ(scheduler.LiveContexts(), 0u) << "wave " << wave;
    for (uint32_t id : ids) {
      const QueryOutcome* out = log.Get(id);
      ASSERT_NE(out, nullptr);
      EXPECT_EQ(out->status, QueryStatus::kOk);
    }
  }
  // Bounded by one wave (what was genuinely outstanding), never by the
  // 2000 submissions that passed through.
  EXPECT_LE(max_live, static_cast<size_t>(kPerWave));
}

// ----------------------------------------------- completion-hook contract --
//
// The contract of SubmitOptions::completion: exactly once per query, for
// every terminal status, never under a scheduler lock, and before WaitIdle
// returns. The lock clause is asserted by re-entering the scheduler from
// inside the hook (LiveContexts takes the admission lock): a hook invoked
// with that non-recursive mutex held deadlocks on the spot and fails the
// suite through its CTest TIMEOUT — the try-lock assertion, in structural
// form.

// Hook bookkeeping shared by the contract tests.
struct HookProbe {
  std::atomic<int> fires{0};
  std::atomic<QueryStatus> status{QueryStatus::kOk};
  std::atomic<uint64_t> embeddings{0};
};

TEST(SchedulerCallbackTest, WaitIdleReturnsAfterEveryHook) {
  // A query counts as finished for WaitIdle only once its hook returned,
  // so whatever a hook wrote (the executor copies the outcome there) is
  // visible right after WaitIdle, with no further wait. The hook sleeps,
  // so a count taken before it ran would let WaitIdle return early.
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Result<QueryPlan> plan = BuildQueryPlan(PaperQueryHypergraph(), idx);
  ASSERT_TRUE(plan.ok());

  std::atomic<bool> hook_done{false};
  SchedulerOptions options;
  options.parallel.num_threads = 2;
  Scheduler scheduler(options);
  SubmitOptions so;
  so.completion = [&hook_done](const QueryOutcome&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    hook_done.store(true);
  };
  scheduler.Submit(&plan.value(), idx, so);
  scheduler.WaitIdle();
  EXPECT_TRUE(hook_done.load());

  // A query without a hook counts too, and leaves nothing behind.
  scheduler.Submit(&plan.value(), idx, {});
  scheduler.WaitIdle();
  EXPECT_EQ(scheduler.LiveContexts(), 0u);
}

TEST(SchedulerCallbackTest, OkLimitAndTimeoutFireOnceFromThePool) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(20));
  const uint64_t cheap_expected =
      MatchSequential(idx, PathQuery(1)).value().embeddings;

  struct Case {
    uint32_t path_len;
    double timeout = 0;
    uint64_t limit = 0;
    QueryStatus expected;
  };
  // The timeout case needs a query that outlasts its 0.05 s budget by a
  // wide margin: a 4-edge path (1.86M embeddings) can finish inside it on
  // two threads, a 5-edge path (27.9M) takes 0.6-1.0 s.
  const std::vector<Case> cases = {
      {1, 0, 0, QueryStatus::kOk},
      {3, 0, 10, QueryStatus::kLimit},
      {5, 0.05, 0, QueryStatus::kTimeout},
  };
  for (const Case& c : cases) {
    Hypergraph q = PathQuery(c.path_len);
    Result<QueryPlan> plan = BuildQueryPlan(q, idx);
    ASSERT_TRUE(plan.ok());

    SchedulerOptions options;
    options.parallel.num_threads = 2;
    options.parallel.scan_grain = 4;
    HookProbe probe;
    OutcomeLog log;
    {
      Scheduler scheduler(options);
      SubmitOptions so;
      so.timeout_seconds = c.timeout > 0 ? c.timeout : -1;
      if (c.limit != 0) so.limit = c.limit;
      so.completion = [&](const QueryOutcome& out) {
        probe.status.store(out.status);
        probe.embeddings.store(out.stats.embeddings);
        // Recorded by the log's hook before this one ran, and no
        // scheduler lock held (LiveContexts takes the admission lock;
        // holding it here deadlocks).
        const QueryOutcome* got = log.Get(0);
        EXPECT_NE(got, nullptr);
        if (got != nullptr) {
          EXPECT_EQ(got->status, out.status);
        }
        (void)scheduler.LiveContexts();
        probe.fires.fetch_add(1);  // last: the hook is done with the pool
      };
      ASSERT_EQ(log.Submit(scheduler, &plan.value(), idx, so), 0u);
      scheduler.WaitIdle();
      EXPECT_EQ(probe.fires.load(), 1);
    }  // the destructor joins the workers: no second fire can follow
    EXPECT_EQ(probe.fires.load(), 1)
        << "path=" << c.path_len << " expected "
        << QueryStatusName(c.expected);
    EXPECT_EQ(probe.status.load(), c.expected);
    if (c.expected == QueryStatus::kOk) {
      EXPECT_EQ(probe.embeddings.load(), cheap_expected);
    }
  }
}

TEST(SchedulerCallbackTest, CancelledAndRejectedFireOnceSynchronously) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(6));
  const Hypergraph query = PathQuery(1);
  Result<QueryPlan> plan = BuildQueryPlan(query, idx);
  ASSERT_TRUE(plan.ok());

  SchedulerOptions options;
  options.parallel.num_threads = 2;
  options.parallel.scan_grain = 1;
  options.max_inflight_queries = 1;
  options.max_queued_queries = 1;
  OutcomeLog log;
  Scheduler scheduler(options);

  GateSink gate;
  SubmitOptions plug_options;
  plug_options.sink = &gate;
  const uint32_t plug =
      log.Submit(scheduler, &plan.value(), idx, plug_options);
  gate.AwaitEntered();  // the plug owns the only admission slot

  // Cancelled while queued: the hook fires from inside Cancel(), on this
  // thread, before Cancel returns.
  HookProbe cancelled;
  SubmitOptions queued_options;
  queued_options.completion = [&](const QueryOutcome& out) {
    cancelled.fires.fetch_add(1);
    cancelled.status.store(out.status);
    (void)scheduler.LiveContexts();  // deadlocks if a lock were held
  };
  const uint32_t queued =
      log.Submit(scheduler, &plan.value(), idx, queued_options);
  EXPECT_EQ(cancelled.fires.load(), 0);  // still waiting: nothing final yet
  EXPECT_TRUE(scheduler.Cancel(queued));
  EXPECT_EQ(cancelled.fires.load(), 1);
  EXPECT_EQ(cancelled.status.load(), QueryStatus::kCancelled);
  ASSERT_NE(log.Get(queued), nullptr);

  // Shed by the queue bound: the hook fires from inside Submit(), before
  // the caller even learns the index.
  const uint32_t waiting = log.Submit(scheduler, &plan.value(), idx);
  HookProbe rejected;
  SubmitOptions shed_options;
  shed_options.completion = [&](const QueryOutcome& out) {
    rejected.fires.fetch_add(1);
    rejected.status.store(out.status);
    (void)scheduler.LiveContexts();
  };
  const uint32_t shed =
      log.Submit(scheduler, &plan.value(), idx, shed_options);
  EXPECT_EQ(rejected.fires.load(), 1);
  EXPECT_EQ(rejected.status.load(), QueryStatus::kRejected);
  ASSERT_NE(log.Get(shed), nullptr);

  gate.Release();
  scheduler.WaitIdle();
  EXPECT_EQ(log.Get(plug)->status, QueryStatus::kOk);
  EXPECT_EQ(log.Get(waiting)->status, QueryStatus::kOk);
  // Nothing fired twice, and the plug/waiting queries (no hook) changed
  // nothing.
  EXPECT_EQ(cancelled.fires.load(), 1);
  EXPECT_EQ(rejected.fires.load(), 1);
}

TEST(SchedulerCallbackTest, ExactlyOnceUnderChurnWithCancels) {
  // Many tiny queries through a window of 1 with a cancel sprinkled over
  // every third submission: the hook must fire exactly once per query no
  // matter which path resolved it (worker finish, cancel-while-queued, or
  // admission of an already-stopped query).
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(8));
  const Hypergraph query = PathQuery(1);
  Result<QueryPlan> plan = BuildQueryPlan(query, idx);
  ASSERT_TRUE(plan.ok());

  SchedulerOptions options;
  options.parallel.num_threads = 4;
  options.parallel.scan_grain = 1;
  options.max_inflight_queries = 1;
  OutcomeLog log;
  auto scheduler = std::make_unique<Scheduler>(options);

  constexpr int kQueries = 48;
  std::vector<std::atomic<int>> fires(kQueries);
  std::vector<uint32_t> ids;
  for (int i = 0; i < kQueries; ++i) {
    SubmitOptions so;
    so.completion = [&fires, i](const QueryOutcome&) {
      fires[i].fetch_add(1);
    };
    ids.push_back(log.Submit(*scheduler, &plan.value(), idx, so));
    if (i % 3 == 0) scheduler->Cancel(ids.back());
  }
  scheduler->WaitIdle();
  for (int i = 0; i < kQueries; ++i) {
    const QueryOutcome* out = log.Get(ids[i]);
    ASSERT_NE(out, nullptr) << "query " << i;
    EXPECT_TRUE(out->status == QueryStatus::kOk ||
                out->status == QueryStatus::kCancelled)
        << "query " << i << ": " << QueryStatusName(out->status);
  }
  scheduler.reset();  // joins the workers: every hook has returned
  for (int i = 0; i < kQueries; ++i) {
    EXPECT_EQ(fires[i].load(), 1) << "query " << i;
  }
}

TEST(SchedulerTest, QueueDepthBoundShedsOnlyTheOverflow) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(6));
  const Hypergraph query = PathQuery(1);
  Result<QueryPlan> plan = BuildQueryPlan(query, idx);
  ASSERT_TRUE(plan.ok());
  const uint64_t expected =
      MatchSequential(idx, query).value().embeddings;

  SchedulerOptions options;
  options.parallel.num_threads = 2;
  options.parallel.scan_grain = 1;
  options.max_inflight_queries = 1;
  options.max_queued_queries = 1;
  OutcomeLog log;
  Scheduler scheduler(options);

  GateSink gate;
  SubmitOptions plug_options;
  plug_options.sink = &gate;
  const uint32_t plug =
      log.Submit(scheduler, &plan.value(), idx, plug_options);
  gate.AwaitEntered();  // the plug now owns the only admission slot

  const uint32_t waiting = log.Submit(scheduler, &plan.value(), idx);
  EXPECT_EQ(log.Get(waiting), nullptr);  // queued, not shed

  // Queue at its bound: the next submission is rejected synchronously.
  const uint32_t shed = log.Submit(scheduler, &plan.value(), idx);
  const QueryOutcome* shed_out = log.Get(shed);
  ASSERT_NE(shed_out, nullptr);
  EXPECT_EQ(shed_out->status, QueryStatus::kRejected);
  EXPECT_EQ(shed_out->stats.embeddings, 0u);
  EXPECT_EQ(scheduler.RejectedCount(), 1u);
  EXPECT_FALSE(scheduler.Cancel(shed));  // already finished

  // Cancelling the waiting query leaves only a corpse entry in the policy
  // queue; the bound must count the *effective* backlog (now zero), so the
  // next submission queues instead of being shed.
  EXPECT_TRUE(scheduler.Cancel(waiting));
  const uint32_t after_cancel = log.Submit(scheduler, &plan.value(), idx);
  EXPECT_EQ(log.Get(after_cancel), nullptr);  // queued
  EXPECT_EQ(scheduler.RejectedCount(), 1u);

  gate.Release();
  scheduler.WaitIdle();
  // The admitted query and the one admitted after the cancel both finish
  // with exact counts: shedding affects the overflow only.
  EXPECT_EQ(log.Get(plug)->status, QueryStatus::kOk);
  EXPECT_EQ(log.Get(waiting)->status, QueryStatus::kCancelled);
  EXPECT_EQ(log.Get(after_cancel)->status, QueryStatus::kOk);
  EXPECT_EQ(log.Get(after_cancel)->stats.embeddings, expected);
}

// The one stop path: destroying a pool that still holds a running query
// and a query queued behind it cancels both and returns promptly, with
// each completion hook fired exactly once.
TEST(SchedulerCallbackTest, DestructionCancelsRunningAndQueuedQueries) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  const Hypergraph expensive = PathQuery(5);  // hours at test scale
  const Hypergraph cheap = PathQuery(1);
  Result<QueryPlan> expensive_plan = BuildQueryPlan(expensive, idx);
  Result<QueryPlan> cheap_plan = BuildQueryPlan(cheap, idx);
  ASSERT_TRUE(expensive_plan.ok());
  ASSERT_TRUE(cheap_plan.ok());

  SchedulerOptions options;
  options.parallel.num_threads = 2;
  options.max_inflight_queries = 1;
  OutcomeLog log;
  auto scheduler = std::make_unique<Scheduler>(options);

  HookProbe running;
  HookProbe queued;
  auto hook = [](HookProbe* probe) {
    return [probe](const QueryOutcome& out) {
      probe->status.store(out.status);
      probe->fires.fetch_add(1);
    };
  };
  SubmitOptions running_options;
  running_options.completion = hook(&running);
  const uint32_t first = log.Submit(*scheduler, &expensive_plan.value(), idx,
                                    running_options);
  SubmitOptions queued_options;
  queued_options.completion = hook(&queued);
  const uint32_t second =
      log.Submit(*scheduler, &cheap_plan.value(), idx, queued_options);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(log.Get(first), nullptr);   // still running
  ASSERT_EQ(log.Get(second), nullptr);  // still queued

  Timer stop;
  scheduler.reset();
  EXPECT_LT(stop.ElapsedSeconds(), 2.0);
  EXPECT_EQ(queued.fires.load(), 1);
  EXPECT_EQ(queued.status.load(), QueryStatus::kCancelled);
  EXPECT_EQ(running.fires.load(), 1);
  EXPECT_TRUE(running.status.load() == QueryStatus::kCancelled ||
              running.status.load() == QueryStatus::kOk)
      << QueryStatusName(running.status.load());
}

}  // namespace
}  // namespace hgmatch
