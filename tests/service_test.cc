// Coverage of the streaming query service (parallel/service.h): concurrent
// Submit while the pool runs, Cancel of queued vs in-flight queries, Wait
// after Shutdown, cross-submission plan-cache mirroring, deterministic
// strict-priority and weighted-fair admission order (including the 3:1
// weight-share guarantee), and the acceptance bar that a query submitted
// mid-run produces MatchStats identical to a standalone MatchSequential run
// under every admission policy with work stealing on and off. The RunBatch
// helper has its own suite in batch_runner_test.cc. All tests are TSan-clean
// by construction (no raw shared state outside the library).

#include "parallel/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "util/rng.h"

#include "core/hgmatch.h"
#include "gen/query_gen.h"
#include "io/loader.h"
#include "io/writer.h"
#include "tests/test_fixtures.h"

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

// A sink whose first Emit blocks until Release(): submitted with an
// admission window of 1, the owning "plug" query deterministically holds
// the window while a test stages the queries behind it.
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

ServiceOptions BaseOptions(uint32_t threads) {
  ServiceOptions o;
  o.parallel.num_threads = threads;
  o.parallel.scan_grain = 1;
  return o;
}

TEST(ServiceTest, MidRunSubmitMatchesSequentialAcrossPoliciesAndStealing) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(8));
  std::vector<Hypergraph> queries;
  for (uint32_t k : {1u, 2u, 3u, 2u, 1u, 3u}) queries.push_back(PathQuery(k));
  std::vector<MatchStats> expected;
  for (const Hypergraph& q : queries) {
    Result<MatchStats> r = MatchSequential(idx, q);
    ASSERT_TRUE(r.ok());
    expected.push_back(r.value());
  }

  for (AdmissionPolicy policy :
       {AdmissionPolicy::kFifo, AdmissionPolicy::kPriority,
        AdmissionPolicy::kWeightedFair}) {
    for (bool stealing : {true, false}) {
      ServiceOptions options = BaseOptions(4);
      options.admission = policy;
      options.parallel.work_stealing = stealing;
      options.max_inflight_queries = 2;
      options.plan_cache = false;  // every copy executes
      MatchService service(idx, options);

      // The pool is live from construction, so every one of these
      // submissions is a mid-run admission.
      std::vector<Ticket> tickets;
      for (size_t i = 0; i < queries.size(); ++i) {
        SubmitOptions so;
        so.tenant_id = static_cast<uint32_t>(i % 2);
        so.priority = static_cast<int32_t>(i);
        so.weight = 1.0 + static_cast<double>(i % 3);
        tickets.push_back(service.Submit(queries[i].Clone(), so));
      }
      for (size_t i = 0; i < tickets.size(); ++i) {
        const QueryOutcome& out = tickets[i].Wait();
        EXPECT_EQ(out.status, QueryStatus::kOk) << "query " << i;
        // Embedding counts are the cross-engine exactness contract (the
        // candidate/filtered counters differ by construction: the
        // sequential engine counts the SCAN step's table rows as
        // candidates, the task engine matches them for free per
        // Observation V.1).
        EXPECT_EQ(out.stats.embeddings, expected[i].embeddings)
            << "query " << i << " policy=" << static_cast<int>(policy)
            << " stealing=" << stealing;
      }
      service.Shutdown();
    }
  }
}

TEST(ServiceTest, ConcurrentSubmitFromManyThreadsDuringARun) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(8));
  const uint64_t expected1 =
      MatchSequential(idx, PathQuery(1)).value().embeddings;
  const uint64_t expected2 =
      MatchSequential(idx, PathQuery(2)).value().embeddings;
  ASSERT_NE(expected1, expected2);

  ServiceOptions options = BaseOptions(4);
  options.max_inflight_queries = 2;
  options.plan_cache = false;
  MatchService service(idx, options);

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> submitters;
  std::vector<std::vector<uint64_t>> got(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint32_t k = 1 + static_cast<uint32_t>((s + i) % 2);
        Ticket t = service.Submit(PathQuery(k));
        got[s].push_back(t.Wait().stats.embeddings == (k == 1 ? expected1
                                                              : expected2));
      }
    });
  }
  for (auto& t : submitters) t.join();
  service.Drain();
  const ServiceReport report = service.Shutdown();
  EXPECT_EQ(report.submitted, kSubmitters * kPerThread);
  EXPECT_EQ(report.executed, kSubmitters * kPerThread);
  for (int s = 0; s < kSubmitters; ++s) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_TRUE(got[s][i]) << "submitter " << s << " query " << i;
    }
  }
}

TEST(ServiceTest, CancelQueuedQueryResolvesImmediately) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());

  ServiceOptions options = BaseOptions(2);
  options.max_inflight_queries = 1;
  options.plan_cache = false;
  MatchService service(idx, options);

  GateSink gate;
  SubmitOptions plug_options;
  plug_options.sink = &gate;
  Ticket plug = service.Submit(PaperQueryHypergraph(), plug_options);
  gate.AwaitEntered();  // the plug now holds the only admission slot

  Ticket queued = service.Submit(PaperQueryHypergraph());
  EXPECT_EQ(queued.TryGet(), nullptr);
  EXPECT_TRUE(queued.Cancel());
  // Resolved right away, while the plug still blocks the window: a
  // cancelled queued query does not wait for a slot it will never use.
  const QueryOutcome* out = queued.TryGet();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->status, QueryStatus::kCancelled);
  EXPECT_EQ(out->stats.embeddings, 0u);
  EXPECT_FALSE(queued.Cancel());  // already finished

  gate.Release();
  EXPECT_EQ(plug.Wait().status, QueryStatus::kOk);
  EXPECT_EQ(plug.Wait().stats.embeddings, 2u);
  EXPECT_FALSE(plug.Cancel());  // finished queries cannot be cancelled
  service.Shutdown();
}

TEST(ServiceTest, CancelInFlightQueryStopsItAndSparesTheRest) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  const uint64_t cheap_expected =
      MatchSequential(idx, PathQuery(1)).value().embeddings;

  MatchService service(idx, BaseOptions(4));

  Ticket monster = service.Submit(PathQuery(4));  // far beyond test scale
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(monster.Cancel());
  const QueryOutcome& out = monster.Wait();
  EXPECT_EQ(out.status, QueryStatus::kCancelled);
  EXPECT_FALSE(out.stats.timed_out);  // cancelled, not timed out

  // The service stays healthy: a fresh query completes exactly.
  Ticket cheap = service.Submit(PathQuery(1));
  EXPECT_EQ(cheap.Wait().status, QueryStatus::kOk);
  EXPECT_EQ(cheap.Wait().stats.embeddings, cheap_expected);
  service.Shutdown();
}

TEST(ServiceTest, WaitAfterShutdownReturnsStoredOutcomes) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchService service(idx, BaseOptions(2));
  Ticket a = service.Submit(PaperQueryHypergraph());
  Ticket b = service.Submit(PaperQueryHypergraph());
  service.Shutdown();

  EXPECT_EQ(a.Wait().stats.embeddings, 2u);
  EXPECT_EQ(b.Wait().stats.embeddings, 2u);
  EXPECT_EQ(b.Wait().mirrored, true);  // sink-less structural repeat

  // Submissions after Shutdown are rejected, not lost in limbo.
  Ticket late = service.Submit(PaperQueryHypergraph());
  EXPECT_FALSE(late.status().ok());
  EXPECT_EQ(late.Wait().status, QueryStatus::kPlanError);
}

TEST(ServiceTest, PlanCacheMirrorsRepeatsAcrossSubmissions) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchService service(idx, BaseOptions(2));

  Ticket first = service.Submit(PaperQueryHypergraph());
  EXPECT_EQ(first.Wait().stats.embeddings, 2u);
  EXPECT_FALSE(first.Wait().mirrored);

  // A structurally identical sink-less repeat, submitted long after the
  // canonical finished, mirrors its exact counts instead of executing.
  Ticket repeat = service.Submit(PaperQueryHypergraph());
  EXPECT_EQ(repeat.Wait().stats.embeddings, 2u);
  EXPECT_TRUE(repeat.Wait().mirrored);

  // A repeat that carries a sink must execute (the sink needs its own
  // embedding stream), still reusing the cached plan.
  CollectSink collect;
  SubmitOptions with_sink;
  with_sink.sink = &collect;
  Ticket sinked = service.Submit(PaperQueryHypergraph(), with_sink);
  EXPECT_EQ(sinked.Wait().stats.embeddings, 2u);
  EXPECT_FALSE(sinked.Wait().mirrored);
  EXPECT_EQ(collect.count(), 2u);

  const ServiceReport report = service.Shutdown();
  EXPECT_EQ(report.submitted, 3u);
  EXPECT_EQ(report.executed, 2u);
  EXPECT_EQ(report.mirrored, 1u);
  EXPECT_EQ(report.plan_cache_hits, 2u);
  EXPECT_EQ(report.unique_plans, 1u);
}

TEST(ServiceTest, StrictPriorityOrdersWaitingQueries) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(6));

  ServiceOptions options = BaseOptions(2);
  options.admission = AdmissionPolicy::kPriority;
  options.max_inflight_queries = 1;
  options.plan_cache = false;
  MatchService service(idx, options);

  GateSink gate;
  SubmitOptions plug_options;
  plug_options.sink = &gate;
  plug_options.priority = 1000;
  Ticket plug = service.Submit(PathQuery(1), plug_options);
  gate.AwaitEntered();

  // Staged while the plug holds the window; admitted strictly by priority.
  std::vector<int32_t> priorities = {0, 5, 1, 5, -3};
  std::vector<Ticket> staged;
  for (int32_t p : priorities) {
    SubmitOptions so;
    so.priority = p;
    staged.push_back(service.Submit(PathQuery(1), so));
  }
  gate.Release();
  service.Drain();

  std::vector<std::pair<uint64_t, int32_t>> order;  // (admit_index, priority)
  for (size_t i = 0; i < staged.size(); ++i) {
    order.emplace_back(staged[i].Wait().admit_index, priorities[i]);
  }
  std::sort(order.begin(), order.end());
  // 5, 5, 1, 0, -3 — equal priorities keep submission order.
  EXPECT_EQ(order[0].second, 5);
  EXPECT_EQ(order[1].second, 5);
  EXPECT_EQ(order[2].second, 1);
  EXPECT_EQ(order[3].second, 0);
  EXPECT_EQ(order[4].second, -3);
  service.Shutdown();
}

TEST(ServiceTest, WeightedFairAdmissionHonoursThreeToOneWeights) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(6));

  ServiceOptions options = BaseOptions(2);
  options.admission = AdmissionPolicy::kWeightedFair;
  options.max_inflight_queries = 1;
  options.plan_cache = false;
  MatchService service(idx, options);

  GateSink gate;
  SubmitOptions plug_options;
  plug_options.sink = &gate;
  plug_options.tenant_id = 99;
  Ticket plug = service.Submit(PathQuery(1), plug_options);
  gate.AwaitEntered();

  // Two tenants flood the service while the plug holds the window: A at
  // weight 3, B at weight 1.
  constexpr int kPerTenant = 24;
  std::vector<Ticket> tenant_a, tenant_b;
  std::thread flood_a([&] {
    SubmitOptions so;
    so.tenant_id = 1;
    so.weight = 3.0;
    for (int i = 0; i < kPerTenant; ++i) {
      tenant_a.push_back(service.Submit(PathQuery(1), so));
    }
  });
  std::thread flood_b([&] {
    SubmitOptions so;
    so.tenant_id = 2;
    so.weight = 1.0;
    for (int i = 0; i < kPerTenant; ++i) {
      tenant_b.push_back(service.Submit(PathQuery(1), so));
    }
  });
  flood_a.join();
  flood_b.join();
  gate.Release();
  service.Drain();

  // The plug consumed admission slot 0; the first 16 real admissions must
  // split 12:4 — the 3:1 weight ratio — independent of how the two flood
  // threads interleaved their submissions (virtual-time accounting, not
  // arrival order, decides).
  int a_in_first_16 = 0, b_in_first_16 = 0;
  for (const Ticket& t : tenant_a) {
    const uint64_t ai = t.Wait().admit_index;
    if (ai >= 1 && ai <= 16) ++a_in_first_16;
  }
  for (const Ticket& t : tenant_b) {
    const uint64_t ai = t.Wait().admit_index;
    if (ai >= 1 && ai <= 16) ++b_in_first_16;
  }
  EXPECT_EQ(a_in_first_16, 12);
  EXPECT_EQ(b_in_first_16, 4);

  // Everyone eventually completes — fairness shapes order, not outcomes.
  for (const Ticket& t : tenant_a) {
    EXPECT_EQ(t.Wait().status, QueryStatus::kOk);
  }
  for (const Ticket& t : tenant_b) {
    EXPECT_EQ(t.Wait().status, QueryStatus::kOk);
  }
  service.Shutdown();
}

TEST(ServiceTest, DrainWaitsForEverythingSubmittedSoFar) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(10));
  MatchService service(idx, BaseOptions(4));
  std::vector<Ticket> tickets;
  for (uint32_t k : {1u, 2u, 3u}) {
    tickets.push_back(service.Submit(PathQuery(k)));
  }
  service.Drain();
  for (const Ticket& t : tickets) {
    EXPECT_NE(t.TryGet(), nullptr);  // Drain returned => already finished
  }
  service.Shutdown();
}

TEST(ServiceTest, PlanErrorResolvesImmediately) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchService service(idx, BaseOptions(2));
  Ticket bad = service.Submit(Hypergraph());  // empty query: planning fails
  EXPECT_FALSE(bad.status().ok());
  const QueryOutcome* out = bad.TryGet();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->status, QueryStatus::kPlanError);
  EXPECT_FALSE(bad.Cancel());
  const ServiceReport report = service.Shutdown();
  EXPECT_EQ(report.plan_errors, 1u);
  EXPECT_EQ(report.executed, 0u);
}

TEST(ServiceTest, WaitWithTimeoutExpiresThenSucceeds) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());

  ServiceOptions options = BaseOptions(2);
  options.max_inflight_queries = 1;
  options.plan_cache = false;
  MatchService service(idx, options);

  GateSink gate;
  SubmitOptions plug_options;
  plug_options.sink = &gate;
  Ticket plug = service.Submit(PaperQueryHypergraph(), plug_options);
  gate.AwaitEntered();  // the plug holds the only admission slot

  // The queued query cannot finish while the plug blocks the window: a
  // bounded wait expires and returns null without cancelling anything.
  Ticket queued = service.Submit(PaperQueryHypergraph());
  EXPECT_EQ(queued.Wait(0.05), nullptr);
  EXPECT_EQ(queued.TryGet(), nullptr);  // expiry did not resolve it

  gate.Release();
  const QueryOutcome* out = queued.Wait(30.0);  // success before expiry
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->status, QueryStatus::kOk);
  EXPECT_EQ(out->stats.embeddings, 2u);
  // A resolved ticket answers a bounded wait immediately, even with a
  // zero budget, from the stored outcome.
  EXPECT_EQ(queued.Wait(0.0), out);
  service.Shutdown();
}

TEST(ServiceTest, QueueBoundRejectsOverflowAndSparesAdmittedQueries) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());

  ServiceOptions options = BaseOptions(2);
  options.max_inflight_queries = 1;
  options.max_queued_queries = 1;
  options.plan_cache = false;  // repeats must not mirror past the queue
  MatchService service(idx, options);

  GateSink gate;
  SubmitOptions plug_options;
  plug_options.sink = &gate;
  Ticket plug = service.Submit(PaperQueryHypergraph(), plug_options);
  gate.AwaitEntered();

  Ticket waiting = service.Submit(PaperQueryHypergraph());
  EXPECT_EQ(waiting.TryGet(), nullptr);  // queued within the bound

  // The queue is at its bound: this submission is shed synchronously.
  Ticket shed = service.Submit(PaperQueryHypergraph());
  const QueryOutcome* shed_out = shed.TryGet();
  ASSERT_NE(shed_out, nullptr);
  EXPECT_EQ(shed_out->status, QueryStatus::kRejected);
  EXPECT_EQ(shed_out->stats.embeddings, 0u);
  EXPECT_FALSE(shed.Cancel());  // already resolved

  gate.Release();
  EXPECT_EQ(plug.Wait().status, QueryStatus::kOk);
  EXPECT_EQ(waiting.Wait().status, QueryStatus::kOk);
  EXPECT_EQ(waiting.Wait().stats.embeddings, 2u);

  const ServiceReport report = service.Shutdown();
  EXPECT_EQ(report.submitted, 3u);
  EXPECT_EQ(report.executed, 2u);  // the shed query never ran
  EXPECT_EQ(report.rejected, 1u);
}

TEST(ServiceTest, RejectedSubmissionDoesNotPoisonThePlanCache) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());

  ServiceOptions options = BaseOptions(2);
  options.max_inflight_queries = 1;
  options.max_queued_queries = 1;  // plan_cache stays on (default)
  MatchService service(idx, options);

  // Structurally distinct single-edge queries: one cache entry per shape.
  auto edge_query = [](Label a, Label b) {
    Hypergraph q;
    q.AddVertex(a);
    q.AddVertex(b);
    (void)q.AddEdge({0, 1});
    return q;
  };

  GateSink gate;
  SubmitOptions plug_options;
  plug_options.sink = &gate;
  Ticket plug = service.Submit(PaperQueryHypergraph(), plug_options);
  gate.AwaitEntered();

  Ticket waiting = service.Submit(edge_query(0, 1));
  Ticket shed = service.Submit(edge_query(0, 2));  // first of its shape
  EXPECT_EQ(shed.Wait().status, QueryStatus::kRejected);

  gate.Release();
  service.Drain();

  // The shed first-of-its-shape submission must NOT have become the
  // shape's cache canonical: the next copy is a cache *miss* that
  // executes normally, and only then do repeats mirror it.
  Ticket again = service.Submit(edge_query(0, 2));
  EXPECT_EQ(again.Wait().status, QueryStatus::kOk);
  EXPECT_FALSE(again.Wait().mirrored);
  Ticket repeat = service.Submit(edge_query(0, 2));
  EXPECT_EQ(repeat.Wait().status, QueryStatus::kOk);
  EXPECT_TRUE(repeat.Wait().mirrored);
  EXPECT_EQ(repeat.Wait().stats.embeddings, again.Wait().stats.embeddings);

  const ServiceReport report = service.Shutdown();
  EXPECT_EQ(report.submitted, 5u);
  EXPECT_EQ(report.rejected, 1u);
  EXPECT_EQ(report.mirrored, 1u);
  // plug, waiting, shed and `again` each compiled a plan (the rejected
  // one was deliberately not cached); only `repeat` hit the cache.
  EXPECT_EQ(report.unique_plans, 4u);
  EXPECT_EQ(report.plan_cache_hits, 1u);
}

TEST(ServiceTest, AcceptedRunRestoresMirroringAfterCancelledCanonical) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());

  ServiceOptions options = BaseOptions(2);
  options.max_inflight_queries = 1;  // plan_cache stays on (default)
  MatchService service(idx, options);

  GateSink gate;
  SubmitOptions plug_options;
  plug_options.sink = &gate;
  Ticket plug = service.Submit(PaperQueryHypergraph(), plug_options);
  gate.AwaitEntered();

  // The first submission of this shape becomes its cache canonical, then
  // is cancelled while waiting — an unusable source of counts.
  auto shape = [] {
    Hypergraph q;
    q.AddVertex(0);
    q.AddVertex(1);
    (void)q.AddEdge({0, 1});
    return q;
  };
  Ticket cancelled = service.Submit(shape());
  EXPECT_TRUE(cancelled.Cancel());
  EXPECT_EQ(cancelled.Wait().status, QueryStatus::kCancelled);

  gate.Release();
  service.Drain();

  // The next same-budget copy cannot mirror the cancelled canonical, so
  // it executes — and takes over as canonical, restoring mirroring for
  // every copy after it.
  Ticket second = service.Submit(shape());
  EXPECT_EQ(second.Wait().status, QueryStatus::kOk);
  EXPECT_FALSE(second.Wait().mirrored);
  Ticket third = service.Submit(shape());
  EXPECT_EQ(third.Wait().status, QueryStatus::kOk);
  EXPECT_TRUE(third.Wait().mirrored);
  EXPECT_EQ(third.Wait().stats.embeddings, second.Wait().stats.embeddings);

  const ServiceReport report = service.Shutdown();
  EXPECT_EQ(report.mirrored, 1u);
  EXPECT_EQ(report.plan_cache_hits, 2u);  // `second` and `third`
  EXPECT_EQ(report.unique_plans, 2u);     // the plug's shape + this shape
}

// Single-edge query {0,1} over two distinct labels — the throwaway shape
// used by the mirror/re-dispatch tests so the plug's plan never collides.
Hypergraph TwoLabelEdgeQuery() {
  Hypergraph q;
  q.AddVertex(0);
  q.AddVertex(1);
  (void)q.AddEdge({0, 1});
  return q;
}

TEST(ServiceTest, CancelledCanonicalRedispatchesLiveMirrors) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  const uint64_t expected =
      MatchSequential(idx, TwoLabelEdgeQuery()).value().embeddings;

  ServiceOptions options = BaseOptions(2);
  options.max_inflight_queries = 1;
  MatchService service(idx, options);

  GateSink gate;
  SubmitOptions plug_options;
  plug_options.sink = &gate;
  Ticket plug = service.Submit(PaperQueryHypergraph(), plug_options);
  gate.AwaitEntered();  // the plug holds the only admission slot

  // Canonical + two live mirrors, all pending behind the plug.
  Ticket canonical = service.Submit(TwoLabelEdgeQuery());
  Ticket m1 = service.Submit(TwoLabelEdgeQuery());
  Ticket m2 = service.Submit(TwoLabelEdgeQuery());

  // Cancelling the canonical must not take the mirrors with it: they
  // re-dispatch as independent executions on the shared compiled plan.
  EXPECT_TRUE(canonical.Cancel());
  EXPECT_EQ(canonical.Wait().status, QueryStatus::kCancelled);

  gate.Release();
  service.Drain();
  for (Ticket* t : {&m1, &m2}) {
    const QueryOutcome& out = t->Wait();
    EXPECT_EQ(out.status, QueryStatus::kOk);
    EXPECT_FALSE(out.mirrored);  // executed for real, not copied
    EXPECT_EQ(out.stats.embeddings, expected);
  }
  EXPECT_EQ(plug.Wait().status, QueryStatus::kOk);

  const ServiceReport report = service.Shutdown();
  EXPECT_EQ(report.redispatched, 2u);
  EXPECT_EQ(report.mirrored, 0u);  // both re-dispatches moved out
  EXPECT_EQ(report.plan_cache_hits, 2u);
  EXPECT_EQ(report.unique_plans, 2u);
}

// Mirrors never fate-share, Shutdown() included: a canonical cancelled
// while Shutdown() waits still re-dispatches its mirror, which runs on the
// pool and resolves with its own exact count before Shutdown() returns.
TEST(ServiceTest, CanonicalCancelledDuringShutdownRedispatchesMirror) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  const uint64_t expected =
      MatchSequential(idx, TwoLabelEdgeQuery()).value().embeddings;

  ServiceOptions options = BaseOptions(2);
  options.max_inflight_queries = 1;
  MatchService service(idx, options);

  GateSink gate;
  SubmitOptions plug_options;
  plug_options.sink = &gate;
  Ticket plug = service.Submit(PaperQueryHypergraph(), plug_options);
  gate.AwaitEntered();  // the plug holds the only admission slot

  // A sink-less canonical pending behind the plug, and a mirror of it.
  Ticket canonical = service.Submit(TwoLabelEdgeQuery());
  Ticket mirror = service.Submit(TwoLabelEdgeQuery());
  ASSERT_EQ(mirror.TryGet(), nullptr);

  std::thread helper([&] {
    // Shutdown() has sealed the service and blocks on the three records
    // by the time this cancel lands.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_TRUE(canonical.Cancel());
    gate.Release();
  });
  const ServiceReport report = service.Shutdown();
  helper.join();

  EXPECT_EQ(canonical.Wait().status, QueryStatus::kCancelled);
  EXPECT_EQ(plug.Wait().status, QueryStatus::kOk);
  const QueryOutcome* out = mirror.TryGet();
  ASSERT_NE(out, nullptr);  // resolved before Shutdown() returned
  EXPECT_EQ(out->status, QueryStatus::kOk);
  EXPECT_FALSE(out->mirrored);  // executed for real, not copied
  EXPECT_EQ(out->stats.embeddings, expected);
  EXPECT_EQ(report.redispatched, 1u);
  EXPECT_EQ(report.mirrored, 0u);
  EXPECT_EQ(report.executed, 3u);
}

TEST(ServiceTest, TimedOutCanonicalRedispatchesMirror) {
  // Sized so the post-release remainder of the canonical's work crosses
  // the scheduler's 1024-call deadline-poll stride: the worker then sees
  // the expired budget and drops the rest — a real per-query timeout.
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(12));
  const uint64_t expected =
      MatchSequential(idx, PathQuery(3)).value().embeddings;

  // One worker: the canonical blocks it in the gated sink past its own
  // deadline, so everything after the release is over budget.
  MatchService service(idx, BaseOptions(1));

  GateSink gate;
  SubmitOptions canonical_options;
  canonical_options.sink = &gate;
  canonical_options.timeout_seconds = 1.0;
  Ticket canonical = service.Submit(PathQuery(3), canonical_options);
  gate.AwaitEntered();

  // Same budgets, no sink: attaches to the blocked canonical as a mirror.
  SubmitOptions mirror_options;
  mirror_options.timeout_seconds = 1.0;
  Ticket mirror = service.Submit(PathQuery(3), mirror_options);

  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  gate.Release();

  EXPECT_EQ(canonical.Wait().status, QueryStatus::kTimeout);
  // The mirror's timeout budget arms at its *own* re-admission, so the
  // re-dispatched run finishes comfortably and stays exact.
  const QueryOutcome& out = mirror.Wait();
  EXPECT_EQ(out.status, QueryStatus::kOk);
  EXPECT_FALSE(out.mirrored);
  EXPECT_EQ(out.stats.embeddings, expected);

  const ServiceReport report = service.Shutdown();
  EXPECT_EQ(report.redispatched, 1u);
  EXPECT_EQ(report.mirrored, 0u);
}

TEST(ServiceTest, CancelMirrorLeavesCanonicalUntouched) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  const uint64_t expected =
      MatchSequential(idx, TwoLabelEdgeQuery()).value().embeddings;

  ServiceOptions options = BaseOptions(2);
  options.max_inflight_queries = 1;
  MatchService service(idx, options);

  GateSink gate;
  SubmitOptions plug_options;
  plug_options.sink = &gate;
  Ticket plug = service.Submit(PaperQueryHypergraph(), plug_options);
  gate.AwaitEntered();

  Ticket canonical = service.Submit(TwoLabelEdgeQuery());
  Ticket mirror = service.Submit(TwoLabelEdgeQuery());

  // Cancelling a mirror detaches and resolves only that mirror …
  EXPECT_TRUE(mirror.Cancel());
  const QueryOutcome* out = mirror.TryGet();
  ASSERT_NE(out, nullptr);  // resolved immediately, no pool round-trip
  EXPECT_EQ(out->status, QueryStatus::kCancelled);
  // … while the canonical is still pending and completes untouched.
  EXPECT_EQ(canonical.TryGet(), nullptr);
  gate.Release();
  service.Drain();
  EXPECT_EQ(canonical.Wait().status, QueryStatus::kOk);
  EXPECT_EQ(canonical.Wait().stats.embeddings, expected);

  const ServiceReport report = service.Shutdown();
  EXPECT_EQ(report.redispatched, 0u);
}

TEST(ServiceTest, IsomorphicRepeatHitsPlanCacheAndMirrors) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchService service(idx, BaseOptions(2));

  Ticket first = service.Submit(PaperQueryHypergraph());
  EXPECT_EQ(first.Wait().stats.embeddings, 2u);

  // The paper query with vertices renamed u0<->u3 (both label A) and the
  // hyperedges reordered: structurally different bytes, isomorphic shape.
  Hypergraph renamed;
  const Label A = 0, B = 1, C = 2;
  for (Label l : {A, C, A, A, B}) renamed.AddVertex(l);
  (void)renamed.AddEdge({1, 3, 0, 4});  // was {0,1,3,4}
  (void)renamed.AddEdge({2, 4});
  (void)renamed.AddEdge({3, 1, 2});     // was {0,1,2}
  Ticket second = service.Submit(std::move(renamed));
  EXPECT_EQ(second.Wait().status, QueryStatus::kOk);
  EXPECT_TRUE(second.Wait().mirrored);  // counts are iso-invariant
  EXPECT_EQ(second.Wait().stats.embeddings, 2u);

  // Near-miss: one label changed (u4: B -> C) — must NOT hit the cache.
  Hypergraph near;
  for (Label l : {A, C, A, A, C}) near.AddVertex(l);
  (void)near.AddEdge({2, 4});
  (void)near.AddEdge({0, 1, 2});
  (void)near.AddEdge({0, 1, 3, 4});
  Ticket third = service.Submit(std::move(near));
  EXPECT_EQ(third.Wait().status, QueryStatus::kOk);
  EXPECT_FALSE(third.Wait().mirrored);

  const ServiceReport report = service.Shutdown();
  EXPECT_EQ(report.plan_cache_hits, 1u);
  EXPECT_EQ(report.plan_cache_isomorphic_hits, 1u);
  EXPECT_EQ(report.mirrored, 1u);
  EXPECT_EQ(report.unique_plans, 2u);  // paper shape + the near-miss
}

TEST(ServiceTest, CostAwareWfqHoldsSharesUnderHeterogeneousQuerySizes) {
  // The 3:1 guarantee, in *work* units: tenant A (weight 3) floods heavy
  // queries while tenant B (weight 1) floods cheap ones. With cost-aware
  // charging each admission advances a tenant's virtual time by the
  // measured task count of its plan's previous run over its weight, so the
  // admission sequence is exactly the weighted-fair schedule over costs —
  // verified against a replay of the virtual-time algorithm.
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(6));

  ServiceOptions options = BaseOptions(2);
  options.admission = AdmissionPolicy::kWeightedFair;
  options.max_inflight_queries = 1;
  // plan_cache stays at its default (on), which prices admissions.
  MatchService service(idx, options);

  // Teach the plan cache each plan's measured task count.
  const uint64_t heavy_cost = std::max<uint64_t>(
      1, service.Submit(PathQuery(3)).Wait().stats.expansions);
  const uint64_t cheap_cost = std::max<uint64_t>(
      1, service.Submit(PathQuery(1)).Wait().stats.expansions);
  ASSERT_GT(heavy_cost, cheap_cost);

  GateSink gate;
  SubmitOptions plug_options;
  plug_options.sink = &gate;
  plug_options.tenant_id = 99;
  Ticket plug = service.Submit(PathQuery(2), plug_options);
  gate.AwaitEntered();

  // Staged from one thread while the plug holds the window, interleaved
  // A,B,A,B,... so submission indices (the vtime tie-break) are known.
  constexpr int kPerTenant = 18;
  std::vector<CountSink> sinks(2 * kPerTenant);  // sinks force execution
  std::vector<Ticket> tenant_a, tenant_b;
  for (int i = 0; i < kPerTenant; ++i) {
    SubmitOptions a;
    a.tenant_id = 1;
    a.weight = 3.0;
    a.sink = &sinks[2 * i];
    tenant_a.push_back(service.Submit(PathQuery(3), a));
    SubmitOptions b;
    b.tenant_id = 2;
    b.weight = 1.0;
    b.sink = &sinks[2 * i + 1];
    tenant_b.push_back(service.Submit(PathQuery(1), b));
  }
  gate.Release();
  service.Drain();

  // Replay the algorithm: both tenants enter at the global virtual time
  // the plug left behind; least vtime admits next; ties go to the earlier
  // head submission (A's k-th precedes B's k-th, so ties pick A iff
  // admitted counts are level); each admission charges cost/weight.
  std::vector<int> expected_tenants;  // 1 = A, 2 = B
  double va = 1, vb = 1;
  int na = 0, nb = 0;
  while (na < kPerTenant || nb < kPerTenant) {
    bool pick_a;
    if (na == kPerTenant) {
      pick_a = false;
    } else if (nb == kPerTenant) {
      pick_a = true;
    } else if (va != vb) {
      pick_a = va < vb;
    } else {
      pick_a = na <= nb;
    }
    if (pick_a) {
      expected_tenants.push_back(1);
      va += static_cast<double>(heavy_cost) / 3.0;
      ++na;
    } else {
      expected_tenants.push_back(2);
      vb += static_cast<double>(cheap_cost) / 1.0;
      ++nb;
    }
  }

  // Admission indices 0..2 went to the priming queries and the plug; the
  // flood owns 3 onwards.
  std::vector<std::pair<uint64_t, int>> actual;  // (admit_index, tenant)
  for (const Ticket& t : tenant_a) {
    EXPECT_EQ(t.Wait().status, QueryStatus::kOk);
    actual.emplace_back(t.Wait().admit_index, 1);
  }
  for (const Ticket& t : tenant_b) {
    EXPECT_EQ(t.Wait().status, QueryStatus::kOk);
    actual.emplace_back(t.Wait().admit_index, 2);
  }
  std::sort(actual.begin(), actual.end());
  ASSERT_EQ(actual.size(), expected_tenants.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].second, expected_tenants[i])
        << "admission " << i << " (admit_index " << actual[i].first << ")";
  }

  // The plain-language consequence: per admitted query A pays ~heavy/3 and
  // B pays ~cheap, so with heavy > 3*cheap tenant B must land *more*
  // queries than A over the interval where both are backlogged — flat
  // 1-unit charging would have given A and B equal counts 3:1 apart.
  if (heavy_cost > 3 * cheap_cost) {
    const size_t first_half = actual.size() / 2;
    int a_count = 0, b_count = 0;
    for (size_t i = 0; i < first_half; ++i) {
      (actual[i].second == 1 ? a_count : b_count)++;
    }
    EXPECT_GT(b_count, a_count);
  }
  service.Shutdown();
}

// ------------------------------------------------------ completion hooks --

TEST(ServiceCallbackTest, HooksFireOnceForEveryResolutionPath) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());

  // Per-submit hooks: test key -> (fires, final status), recorded under a
  // test mutex (a hook may run on pool workers and submit threads alike).
  // Hooks that resolve inside Submit fire before the ticket exists, so
  // submissions are keyed by the test, not by ticket id.
  std::mutex seen_mutex;
  std::map<int, std::pair<int, QueryStatus>> seen;
  std::atomic<uint64_t> executed_embeddings{0};
  enum : int { kExecuted, kMirror, kBad, kPlug, kWaiting, kShed, kLate };
  auto hooked = [&](int key, SubmitOptions so = {}) {
    so.completion = [&, key](const QueryOutcome& out) {
      if (key == kExecuted) executed_embeddings.store(out.stats.embeddings);
      std::lock_guard<std::mutex> lock(seen_mutex);
      auto& entry = seen[key];
      ++entry.first;
      entry.second = out.status;
    };
    return so;
  };
  auto status_of = [&](int key) {
    std::lock_guard<std::mutex> lock(seen_mutex);
    auto it = seen.find(key);
    return it == seen.end()
               ? std::pair<int, QueryStatus>{0, QueryStatus::kOk}
               : it->second;
  };

  ServiceOptions options = BaseOptions(2);
  options.max_inflight_queries = 1;
  options.max_queued_queries = 1;
  MatchService service(idx, options);

  // Executed: the hook fires with the exact final outcome. Hooks fire on
  // the resolving pool thread just *after* Wait's condition variable is
  // armed, so their effects are asserted once Shutdown has joined the
  // pool, not right after Wait.
  Ticket executed = service.Submit(PaperQueryHypergraph(), hooked(kExecuted));
  EXPECT_EQ(executed.Wait().status, QueryStatus::kOk);

  // Mirrored: a sink-less repeat of the finished canonical resolves inside
  // Submit — its hook has fired by the time Submit returns. (The canonical
  // resolved on a pool worker; Wait above proves resolution, and the
  // repeat's cache hit below proves the canonical outcome is mirrorable.)
  Ticket mirror = service.Submit(PaperQueryHypergraph(), hooked(kMirror));
  EXPECT_EQ(status_of(kMirror), (std::pair<int, QueryStatus>{
                                    1, QueryStatus::kOk}));
  EXPECT_TRUE(mirror.Wait().mirrored);

  // Plan error: resolved (and reported) synchronously.
  Ticket bad = service.Submit(Hypergraph(), hooked(kBad));
  EXPECT_EQ(status_of(kBad), (std::pair<int, QueryStatus>{
                                 1, QueryStatus::kPlanError}));

  // Rejected by the queue bound: a plug holds the window, one query
  // waits, the overflow is shed — and its hook fires inside Submit.
  GateSink gate;
  SubmitOptions plug_options;
  plug_options.sink = &gate;
  Ticket plug =
      service.Submit(PaperQueryHypergraph(), hooked(kPlug, plug_options));
  gate.AwaitEntered();
  CountSink waiting_sink;  // distinct budgets not needed; sink skips mirror
  SubmitOptions waiting_options;
  waiting_options.sink = &waiting_sink;
  Ticket waiting = service.Submit(PaperQueryHypergraph(),
                                  hooked(kWaiting, waiting_options));
  CountSink shed_sink;
  SubmitOptions shed_options;
  shed_options.sink = &shed_sink;
  Ticket shed =
      service.Submit(PaperQueryHypergraph(), hooked(kShed, shed_options));
  EXPECT_EQ(status_of(kShed), (std::pair<int, QueryStatus>{
                                  1, QueryStatus::kRejected}));
  gate.Release();
  service.Shutdown();  // waits out every hook delivery: all have fired

  EXPECT_EQ(executed_embeddings.load(), 2u);
  EXPECT_EQ(status_of(kExecuted), (std::pair<int, QueryStatus>{
                                      1, QueryStatus::kOk}));
  EXPECT_EQ(status_of(kPlug), (std::pair<int, QueryStatus>{
                                  1, QueryStatus::kOk}));
  EXPECT_EQ(status_of(kWaiting), (std::pair<int, QueryStatus>{
                                     1, QueryStatus::kOk}));

  // Submission after Shutdown: rejected as a plan error, hook included.
  Ticket late = service.Submit(PaperQueryHypergraph(), hooked(kLate));
  EXPECT_EQ(status_of(kLate), (std::pair<int, QueryStatus>{
                                  1, QueryStatus::kPlanError}));

  // Exactly one firing per submission, full stop.
  std::lock_guard<std::mutex> lock(seen_mutex);
  EXPECT_EQ(seen.size(), 7u);
  for (const auto& [key, entry] : seen) {
    EXPECT_EQ(entry.first, 1) << "submission " << key;
  }
}

TEST(ServiceCallbackTest, MirrorHooksShareTheCanonicalFinish) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());

  ServiceOptions options = BaseOptions(2);
  options.max_inflight_queries = 1;
  MatchService service(idx, options);

  GateSink gate;
  SubmitOptions plug_options;
  plug_options.sink = &gate;
  Ticket plug = service.Submit(PaperQueryHypergraph(), plug_options);
  gate.AwaitEntered();  // the plug holds the only admission slot

  // A fresh structure queued behind the plug, plus two sink-less repeats
  // that attach to it as mirrors while it is still unresolved.
  auto shape = [] {
    Hypergraph q;
    q.AddVertex(0);
    q.AddVertex(1);
    (void)q.AddEdge({0, 1});
    return q;
  };
  std::atomic<int> canonical_fires{0}, mirror_fires{0}, cancel_fires{0};
  std::atomic<bool> canonical_was_first{false};
  SubmitOptions canonical_options;
  canonical_options.completion = [&](const QueryOutcome&) {
    canonical_fires.fetch_add(1);
  };
  Ticket canonical = service.Submit(shape(), canonical_options);
  SubmitOptions mirror_options;
  mirror_options.completion = [&](const QueryOutcome& out) {
    mirror_fires.fetch_add(1);
    EXPECT_TRUE(out.mirrored);
    // Mirrors resolve in the same step as their canonical, after it.
    canonical_was_first.store(canonical_fires.load() == 1);
  };
  Ticket mirror = service.Submit(shape(), mirror_options);
  SubmitOptions doomed_options;
  doomed_options.completion = [&](const QueryOutcome& out) {
    cancel_fires.fetch_add(1);
    EXPECT_EQ(out.status, QueryStatus::kCancelled);
  };
  Ticket doomed_mirror = service.Submit(shape(), doomed_options);

  // Cancelling a mirror resolves it (and fires its hooks) immediately,
  // while canonical and sibling stay pending.
  EXPECT_TRUE(doomed_mirror.Cancel());
  EXPECT_EQ(cancel_fires.load(), 1);
  EXPECT_EQ(canonical_fires.load(), 0);
  EXPECT_EQ(mirror_fires.load(), 0);

  gate.Release();
  const QueryOutcome& out = mirror.Wait();
  EXPECT_EQ(out.status, QueryStatus::kOk);
  EXPECT_TRUE(out.mirrored);
  EXPECT_EQ(canonical.Wait().status, QueryStatus::kOk);
  service.Shutdown();  // waits out every hook delivery: all have fired
  EXPECT_EQ(canonical_fires.load(), 1);
  EXPECT_EQ(mirror_fires.load(), 1);
  EXPECT_EQ(cancel_fires.load(), 1);
  EXPECT_TRUE(canonical_was_first.load());
}

// --------------------------------------------------- randomized soak test --

// N submitter threads churn a seeded mix of submit / wait / bounded-wait /
// cancel / tiny-timeout / mirrored-duplicate operations against one
// MatchService; every outcome that claims exact counts is cross-checked
// against MatchSequential, and the per-submit completion hook is counted
// for exactly-once delivery. The seed is deterministic (override with
// HGMATCH_SOAK_SEED) and logged so any failure replays bit-for-bit.
TEST(ServiceSoakTest, RandomizedChurnCrossChecksSequential) {
  uint64_t seed = 0x5eedc0ffee;
  if (const char* env = std::getenv("HGMATCH_SOAK_SEED")) {
    seed = std::strtoull(env, nullptr, 0);
  }
  SCOPED_TRACE("soak seed = " + std::to_string(seed) +
               " (re-run with HGMATCH_SOAK_SEED)");

  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(8));
  std::vector<Hypergraph> shapes;
  for (uint32_t k : {1u, 2u, 3u}) shapes.push_back(PathQuery(k));
  std::vector<uint64_t> expected;
  for (const Hypergraph& q : shapes) {
    expected.push_back(MatchSequential(idx, q).value().embeddings);
  }

  ServiceOptions options = BaseOptions(4);
  options.max_inflight_queries = 3;
  options.admission = AdmissionPolicy::kWeightedFair;
  MatchService service(idx, options);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 120;
  std::atomic<uint64_t> hook_fires{0};
  // The duplicate-op branch submits a second ticket per op; the ledger
  // below needs the true submission count.
  std::atomic<uint64_t> total_extra_submits{0};
  std::vector<std::vector<std::string>> failures(kThreads);
  // Per-submission hook counters, shared with the hooks themselves: a hook
  // fires just after Wait is released, so exactly-once is asserted only
  // after Shutdown has joined every firing thread.
  std::vector<std::vector<std::shared_ptr<std::atomic<int>>>> fired(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(Mix64(seed) + static_cast<uint64_t>(t));
      uint64_t extra_submits = 0;
      auto fail = [&](int op, const std::string& what) {
        failures[t].push_back("op " + std::to_string(op) + ": " + what);
      };
      for (int op = 0; op < kOpsPerThread; ++op) {
        const size_t shape = rng.NextBounded(shapes.size());
        SubmitOptions so;
        so.tenant_id = static_cast<uint32_t>(t);
        so.weight = 1.0 + static_cast<double>(rng.NextBounded(3));
        auto counter = std::make_shared<std::atomic<int>>(0);
        fired[t].push_back(counter);
        so.completion = [&hook_fires, counter](const QueryOutcome&) {
          hook_fires.fetch_add(1);
          counter->fetch_add(1);
        };
        const uint64_t roll = rng.NextBounded(100);
        if (roll < 40) {
          // Plain submit + wait: must be exact (a sink forces execution,
          // so no mirror can inherit a stranger's cancellation).
          CountSink sink;
          so.sink = &sink;
          Ticket ticket = service.Submit(shapes[shape].Clone(), so);
          const QueryOutcome& out = ticket.Wait();
          if (out.status != QueryStatus::kOk) {
            fail(op, std::string("expected ok, got ") +
                         QueryStatusName(out.status));
          } else if (out.stats.embeddings != expected[shape]) {
            fail(op, "embedding count mismatch");
          }
        } else if (roll < 60) {
          // Sink-less submit: may execute or mirror — either way the
          // outcome must be ok with exact counts. A mirror whose
          // canonical another thread cancels re-dispatches instead of
          // inheriting the cancellation, so no other status is legal.
          Ticket ticket = service.Submit(shapes[shape].Clone(), so);
          const QueryOutcome& out = ticket.Wait();
          if (out.status != QueryStatus::kOk) {
            fail(op, std::string("expected ok, got ") +
                         QueryStatusName(out.status));
          } else if (out.stats.embeddings != expected[shape]) {
            fail(op, "mirrored/executed count mismatch");
          }
        } else if (roll < 70) {
          // Submit + immediate cancel: cancelled (with partial counts) or
          // finished first — both legal, nothing else is.
          CountSink sink;
          so.sink = &sink;
          Ticket ticket = service.Submit(shapes[shape].Clone(), so);
          ticket.Cancel();
          const QueryOutcome& out = ticket.Wait();
          if (out.status != QueryStatus::kOk &&
              out.status != QueryStatus::kCancelled) {
            fail(op, std::string("expected ok/cancelled, got ") +
                         QueryStatusName(out.status));
          } else if (out.status == QueryStatus::kOk &&
                     out.stats.embeddings != expected[shape]) {
            fail(op, "cancel-race count mismatch");
          }
        } else if (roll < 80) {
          // Mirrored duplicate + cancelled canonical: a sink-ful copy (a
          // canonical candidate), a sink-less duplicate that may attach
          // to it as a mirror, then cancel the first. The duplicate must
          // never inherit the cancellation — it re-dispatches and stays
          // exact.
          CountSink sink;
          so.sink = &sink;
          Ticket victim = service.Submit(shapes[shape].Clone(), so);
          SubmitOptions dup;
          dup.tenant_id = so.tenant_id;
          dup.weight = so.weight;
          auto dup_counter = std::make_shared<std::atomic<int>>(0);
          fired[t].push_back(dup_counter);
          dup.completion = [&hook_fires, dup_counter](const QueryOutcome&) {
            hook_fires.fetch_add(1);
            dup_counter->fetch_add(1);
          };
          ++extra_submits;
          Ticket duplicate = service.Submit(shapes[shape].Clone(), dup);
          victim.Cancel();
          const QueryOutcome& vout = victim.Wait();
          if (vout.status != QueryStatus::kOk &&
              vout.status != QueryStatus::kCancelled) {
            fail(op, std::string("victim: expected ok/cancelled, got ") +
                         QueryStatusName(vout.status));
          }
          const QueryOutcome& dout = duplicate.Wait();
          if (dout.status != QueryStatus::kOk) {
            fail(op, std::string("duplicate: expected ok, got ") +
                         QueryStatusName(dout.status));
          } else if (dout.stats.embeddings != expected[shape]) {
            fail(op, "duplicate count mismatch");
          }
        } else if (roll < 90) {
          // Bounded waits loop until resolution: expiry must never resolve
          // or corrupt the ticket.
          CountSink sink;
          so.sink = &sink;
          Ticket ticket = service.Submit(shapes[shape].Clone(), so);
          const QueryOutcome* out = nullptr;
          while ((out = ticket.Wait(0.002)) == nullptr) {
          }
          if (out->status != QueryStatus::kOk ||
              out->stats.embeddings != expected[shape]) {
            fail(op, "bounded-wait outcome mismatch");
          }
        } else {
          // Tiny per-query timeout: ok (everything finished in time, exact
          // counts) or timeout (work dropped) — never anything else.
          CountSink sink;
          so.sink = &sink;
          so.timeout_seconds = rng.NextBounded(2) == 0 ? 1e-7 : 0.001;
          Ticket ticket = service.Submit(shapes[shape].Clone(), so);
          const QueryOutcome& out = ticket.Wait();
          if (out.status == QueryStatus::kOk) {
            if (out.stats.embeddings != expected[shape]) {
              fail(op, "timed submit count mismatch");
            }
          } else if (out.status != QueryStatus::kTimeout) {
            fail(op, std::string("expected ok/timeout, got ") +
                         QueryStatusName(out.status));
          }
        }
      }
      total_extra_submits.fetch_add(extra_submits);
    });
  }
  for (auto& t : submitters) t.join();
  for (int t = 0; t < kThreads; ++t) {
    for (const std::string& f : failures[t]) {
      ADD_FAILURE() << "thread " << t << " " << f;
    }
  }

  const ServiceReport report = service.Shutdown();
  const uint64_t total_submitted =
      static_cast<uint64_t>(kThreads) * kOpsPerThread +
      total_extra_submits.load();
  EXPECT_EQ(report.submitted, total_submitted);
  EXPECT_EQ(hook_fires.load(), total_submitted);
  for (int t = 0; t < kThreads; ++t) {
    for (size_t op = 0; op < fired[t].size(); ++op) {
      EXPECT_EQ(fired[t][op]->load(), 1)
          << "thread " << t << " op " << op << " hook fire count";
    }
  }
  EXPECT_EQ(report.executed + report.mirrored + report.rejected +
                report.plan_errors,
            report.submitted);
}

// ---------------------------------------------------- query-set headers --

TEST(QuerySetHeaderTest, HeadersSurfaceAsSubmitOptions) {
  const std::string one = FormatHypergraph(PaperQueryHypergraph());
  const std::string text = "# query 0\n# tenant=7\n# priority=-2\n" + one +
                           "---\n# weight=2.5\n# timeout=1.5\n" + one +
                           "# query 2\n" + one;
  Result<std::vector<QuerySetEntry>> set = ParseQuerySetEntries(text);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_EQ(set.value().size(), 3u);

  EXPECT_EQ(set.value()[0].submit.tenant_id, 7u);
  EXPECT_EQ(set.value()[0].submit.priority, -2);
  EXPECT_EQ(set.value()[0].submit.weight, 1.0);            // default
  EXPECT_LT(set.value()[0].submit.timeout_seconds, 0);     // inherit

  EXPECT_EQ(set.value()[1].submit.tenant_id, 0u);          // default
  EXPECT_EQ(set.value()[1].submit.weight, 2.5);
  EXPECT_EQ(set.value()[1].submit.timeout_seconds, 1.5);

  // Headers do not leak across separators.
  EXPECT_EQ(set.value()[2].submit.tenant_id, 0u);
  EXPECT_EQ(set.value()[2].submit.priority, 0);
}

TEST(QuerySetHeaderTest, MalformedHeaderIsAParseError) {
  const std::string one = FormatHypergraph(PaperQueryHypergraph());
  for (const char* header :
       {"# tenant=abc", "# tenant=-1", "# priority=high", "# weight=0",
        "# weight=-3", "# timeout=-1", "# timeout=soon"}) {
    Result<std::vector<QuerySetEntry>> set =
        ParseQuerySetEntries(std::string(header) + "\n" + one);
    EXPECT_FALSE(set.ok()) << header;
    EXPECT_NE(set.status().message().find("line 1"), std::string::npos)
        << set.status().ToString();
  }
}

TEST(QuerySetHeaderTest, UnknownCommentKeysStayComments) {
  const std::string one = FormatHypergraph(PaperQueryHypergraph());
  const std::string text =
      "# produced-by=sampler v2\n# note: tenant stuff\n# tenant 5\n" + one;
  Result<std::vector<QuerySetEntry>> set = ParseQuerySetEntries(text);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_EQ(set.value().size(), 1u);
  EXPECT_EQ(set.value()[0].submit.tenant_id, 0u);  // "# tenant 5" has no '='
}

}  // namespace
}  // namespace hgmatch
