// Coverage of the graph catalog (serve/catalog.h): load/unload/list
// lifecycle, submission routing by name, refcounted unload (an unload
// blocks on — or defers past — in-flight tickets and never loses an
// outcome), submit-after-unload rejection, per-submit completion hooks
// through the catalog's bookkeeping, and the headline race: concurrent LOAD/UNLOAD cycles against
// threads submitting to the same names, which must stay exact and
// TSan-clean. Also the plan-cache capacity bound (LRU eviction of idle
// canonicals) that the catalog's per-graph services inherit.

#include "serve/catalog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/hgmatch.h"
#include "gen/generator.h"
#include "tests/test_fixtures.h"

namespace hgmatch {
namespace {

ServiceOptions SmallPool(uint32_t threads = 2) {
  ServiceOptions o;
  o.parallel.num_threads = threads;
  o.parallel.scan_grain = 1;
  return o;
}

// Expensive data/query pair: a pair-clique keeps path queries busy long
// enough for unload/cancel races to observe in-flight work.
Hypergraph PairCliqueData(uint32_t m) {
  Hypergraph h;
  h.AddVertices(m, 0);
  for (VertexId i = 0; i < m; ++i) {
    for (VertexId j = i + 1; j < m; ++j) (void)h.AddEdge({i, j});
  }
  return h;
}

// One query through the catalog's one submit entry point.
Result<CatalogTicket> SubmitOne(GraphCatalog& catalog, const std::string& name,
                                Hypergraph query,
                                const SubmitOptions& options) {
  std::vector<BatchSubmission> batch;
  batch.push_back({std::move(query), options});
  Result<std::vector<CatalogTicket>> tickets =
      catalog.Submit(name, std::move(batch));
  if (!tickets.ok()) return tickets.status();
  return std::move(tickets.value().front());
}

Hypergraph PathQuery(uint32_t k) {
  Hypergraph q;
  q.AddVertices(k + 1, 0);
  for (VertexId v = 0; v < k; ++v) (void)q.AddEdge({v, v + 1});
  return q;
}

TEST(CatalogTest, LoadListUnloadLifecycle) {
  GraphCatalog catalog(SmallPool());
  EXPECT_EQ(catalog.NumGraphs(), 0u);
  EXPECT_EQ(catalog.DefaultGraph(), "");

  ASSERT_TRUE(catalog.Load("alpha", PaperDataHypergraph()).ok());
  ASSERT_TRUE(catalog.Load("beta", PairCliqueData(4)).ok());
  EXPECT_EQ(catalog.NumGraphs(), 2u);
  EXPECT_EQ(catalog.DefaultGraph(), "alpha");
  EXPECT_TRUE(catalog.Has("alpha"));
  EXPECT_TRUE(catalog.Has("beta"));
  EXPECT_FALSE(catalog.Has("gamma"));

  std::vector<CatalogGraphInfo> rows = catalog.List();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "alpha");  // default first
  EXPECT_TRUE(rows[0].is_default);
  EXPECT_FALSE(rows[1].is_default);
  EXPECT_GT(rows[0].index_bytes, 0u);

  // Duplicate and empty names are load-time errors.
  EXPECT_FALSE(catalog.Load("alpha", PaperDataHypergraph()).ok());
  EXPECT_FALSE(catalog.Load("", PaperDataHypergraph()).ok());

  ASSERT_TRUE(catalog.Unload("beta").ok());
  EXPECT_FALSE(catalog.Has("beta"));
  EXPECT_EQ(catalog.NumGraphs(), 1u);
  // Unknown (and already-unloaded) names are NotFound.
  EXPECT_FALSE(catalog.Unload("beta").ok());
  EXPECT_FALSE(catalog.Unload("gamma").ok());

  // A name can be reused after its unload completes.
  ASSERT_TRUE(catalog.Load("beta", PairCliqueData(3)).ok());
  EXPECT_TRUE(catalog.Has("beta"));
}

TEST(CatalogTest, SubmitRoutesByNameAndMatchesSequential) {
  GraphCatalog catalog(SmallPool());
  Hypergraph small = PaperDataHypergraph();
  Hypergraph big = PairCliqueData(6);
  IndexedHypergraph small_idx = IndexedHypergraph::Build(small.Clone());
  IndexedHypergraph big_idx = IndexedHypergraph::Build(big.Clone());
  ASSERT_TRUE(catalog.Load("small", std::move(small)).ok());
  ASSERT_TRUE(catalog.Load("big", std::move(big)).ok());

  const Hypergraph query = PathQuery(2);
  Result<MatchStats> want_small = MatchSequential(small_idx, query);
  Result<MatchStats> want_big = MatchSequential(big_idx, query);
  ASSERT_TRUE(want_small.ok());
  ASSERT_TRUE(want_big.ok());
  ASSERT_NE(want_small.value().embeddings, want_big.value().embeddings);

  // Named routes hit their graph; the empty name is the default.
  Result<CatalogTicket> to_small =
      SubmitOne(catalog, "small", query.Clone(), {});
  Result<CatalogTicket> to_big = SubmitOne(catalog, "big", query.Clone(), {});
  Result<CatalogTicket> to_default =
      SubmitOne(catalog, "", query.Clone(), {});
  ASSERT_TRUE(to_small.ok());
  ASSERT_TRUE(to_big.ok());
  ASSERT_TRUE(to_default.ok());
  EXPECT_EQ(to_small.value().ticket.Wait().stats.embeddings,
            want_small.value().embeddings);
  EXPECT_EQ(to_big.value().ticket.Wait().stats.embeddings,
            want_big.value().embeddings);
  EXPECT_EQ(to_default.value().ticket.Wait().stats.embeddings,
            want_small.value().embeddings);

  // Catalog-unique ids disambiguate graphs that each start at ticket 0.
  EXPECT_NE(to_small.value().unique_id, to_big.value().unique_id);

  // Unknown graphs fail the submit itself — no ticket, caller relays a
  // typed rejection.
  Result<CatalogTicket> unknown =
      SubmitOne(catalog, "nope", query.Clone(), {});
  EXPECT_FALSE(unknown.ok());

  std::vector<CatalogGraphInfo> rows = catalog.List();
  uint64_t total = 0;
  for (const CatalogGraphInfo& g : rows) total += g.queries;
  EXPECT_EQ(total, 3u);
}

TEST(CatalogTest, SubmitBatchRoutesWholeGroupAndRejectsUnknown) {
  GraphCatalog catalog(SmallPool());
  ASSERT_TRUE(catalog.Load("g", PairCliqueData(5)).ok());
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(5));

  std::vector<BatchSubmission> batch;
  for (uint32_t k : {1u, 2u}) batch.push_back({PathQuery(k), {}});
  Result<std::vector<CatalogTicket>> tickets =
      catalog.Submit("g", std::move(batch));
  ASSERT_TRUE(tickets.ok());
  ASSERT_EQ(tickets.value().size(), 2u);
  for (uint32_t i = 0; i < 2; ++i) {
    Result<MatchStats> want = MatchSequential(idx, PathQuery(i + 1));
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(tickets.value()[i].ticket.Wait().stats.embeddings,
              want.value().embeddings);
  }

  std::vector<BatchSubmission> missing;
  missing.push_back({PathQuery(1), {}});
  EXPECT_FALSE(catalog.Submit("nope", std::move(missing)).ok());
}

// The catalog wraps each entry's own SubmitOptions::completion with its
// bookkeeping: the user hook fires exactly once per accepted submission on
// every resolution path — executed, mirrored inside Submit, plan error,
// shed by the queue bound — and the finished gauge and per-graph live
// tickets follow it. Hooks that resolve inside Submit fire before the
// ticket exists, so submissions are keyed by the test, not by unique id.
TEST(CatalogTest, CompletionHookFiresOncePerUniqueId) {
  std::mutex mutex;
  std::map<int, int> fires;  // test key -> hook firings
  ServiceOptions options = SmallPool();
  options.max_inflight_queries = 1;
  options.max_queued_queries = 1;
  GraphCatalog catalog(options);
  ASSERT_TRUE(catalog.Load("a", PaperDataHypergraph()).ok());
  ASSERT_TRUE(catalog.Load("b", PairCliqueData(4)).ok());
  ASSERT_TRUE(catalog.Load("slow", PairCliqueData(40)).ok());

  int next_key = 0;
  std::set<uint64_t> unique_ids;
  auto submit = [&](const std::string& name, Hypergraph query) {
    SubmitOptions so;
    so.completion = [&, key = next_key++](const QueryOutcome&) {
      std::lock_guard<std::mutex> lock(mutex);
      ++fires[key];
    };
    Result<CatalogTicket> t = SubmitOne(catalog, name, std::move(query), so);
    if (t.ok()) unique_ids.insert(t.value().unique_id);
    return t;
  };

  // Executed, then mirrored: each round waits, so the repeats of a
  // finished canonical resolve inside Submit.
  for (int i = 0; i < 3; ++i) {
    Result<CatalogTicket> ta = submit("a", PathQuery(1));
    Result<CatalogTicket> tb = submit("b", PathQuery(1));
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(tb.ok());
    EXPECT_EQ(ta.value().ticket.Wait().status, QueryStatus::kOk);
    EXPECT_EQ(tb.value().ticket.Wait().mirrored, i > 0) << "round " << i;
  }

  // Plan error: resolved inside Submit.
  Result<CatalogTicket> bad = submit("a", Hypergraph());
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().ticket.Wait().status, QueryStatus::kPlanError);

  // Shed by the queue bound: the monster holds the one-query window, one
  // query waits, the third is rejected inside Submit. Distinct structures
  // keep the plan cache from mirroring them.
  Result<CatalogTicket> plug = submit("slow", PathQuery(4));
  Result<CatalogTicket> waiting = submit("slow", PathQuery(2));
  Result<CatalogTicket> shed = submit("slow", PathQuery(3));
  ASSERT_TRUE(plug.ok() && waiting.ok() && shed.ok());
  EXPECT_EQ(shed.value().ticket.Wait().status, QueryStatus::kRejected);
  EXPECT_TRUE(catalog.Cancel(plug.value()));
  EXPECT_EQ(plug.value().ticket.Wait().status, QueryStatus::kCancelled);
  EXPECT_EQ(waiting.value().ticket.Wait().status, QueryStatus::kOk);

  // The live-ticket decrement closes each hook, after the user hook and
  // the finished gauge; once every graph reads 0 live tickets, every hook
  // has fired and been counted.
  EXPECT_TRUE([&] {
    for (int i = 0; i < 1000; ++i) {
      bool drained = true;
      for (const CatalogGraphInfo& g : catalog.List()) {
        drained = drained && g.live_tickets == 0;
      }
      if (drained) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }());
  for (const CatalogGraphInfo& g : catalog.List()) {
    EXPECT_EQ(g.queries, g.name == "a" ? 4u : 3u) << g.name;
  }
  EXPECT_EQ(catalog.Gauges().finished, 10u);

  // Submitted after Shutdown: refused without a ticket, so no hook.
  catalog.Shutdown();
  EXPECT_FALSE(submit("a", PathQuery(1)).ok());

  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(unique_ids.size(), 10u);  // unique across graphs
  EXPECT_EQ(fires.size(), 10u);
  for (const auto& [key, count] : fires) {
    EXPECT_EQ(count, 1) << "submission " << key;  // exactly once each
  }
  EXPECT_EQ(catalog.Gauges().finished, 10u);
}

// A waiting unload must block until the graph's in-flight tickets
// resolve, and the outcome of a query racing its graph's unload is never
// lost or corrupted.
TEST(CatalogTest, UnloadWaitsForInflightTickets) {
  GraphCatalog catalog(SmallPool());
  ASSERT_TRUE(catalog.Load("g", PairCliqueData(9)).ok());
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(9));
  Result<MatchStats> want = MatchSequential(idx, PathQuery(4));
  ASSERT_TRUE(want.ok());

  Result<CatalogTicket> t = SubmitOne(catalog, "g", PathQuery(4), {});
  ASSERT_TRUE(t.ok());

  std::atomic<bool> unloaded{false};
  std::thread unloader([&] {
    EXPECT_TRUE(catalog.Unload("g", /*wait=*/true).ok());
    unloaded.store(true);
  });
  // From the unload call on, new submissions to the graph are rejected
  // even while the drain is still in progress.
  while (catalog.Has("g")) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(SubmitOne(catalog, "g", PathQuery(1), {}).ok());

  // The in-flight ticket still resolves exactly.
  EXPECT_EQ(t.value().ticket.Wait().stats.embeddings,
            want.value().embeddings);
  unloader.join();
  EXPECT_TRUE(unloaded.load());
  EXPECT_EQ(catalog.NumGraphs(), 0u);
}

TEST(CatalogTest, DeferredUnloadReapsAfterDrain) {
  GraphCatalog catalog(SmallPool());
  ASSERT_TRUE(catalog.Load("g", PairCliqueData(7)).ok());
  Result<CatalogTicket> t = SubmitOne(catalog, "g", PathQuery(3), {});
  ASSERT_TRUE(t.ok());

  // wait=false returns immediately; the graph is already unreachable.
  ASSERT_TRUE(catalog.Unload("g", /*wait=*/false).ok());
  EXPECT_FALSE(catalog.Has("g"));
  EXPECT_FALSE(SubmitOne(catalog, "g", PathQuery(1), {}).ok());

  const QueryOutcome& out = t.value().ticket.Wait();
  EXPECT_EQ(out.status, QueryStatus::kOk);
  // Shutdown (or any later catalog pass) reaps the drained entry.
  catalog.Shutdown();
}

// A ticket wait racing its service's destruction. The unload drain
// condition is satisfied by the completion hook, which fires before a
// woken Ticket::Wait waiter has necessarily left the condition wait — so
// the wait must park on storage the service's destruction cannot touch
// (the record's resolve-gate pin), never on the service itself. Looped:
// the window is a few instructions wide, and a single shot almost never
// lands in it. TSan runs this in CI.
TEST(CatalogTest, TicketWaitSurvivesUnloadDestroyingTheService) {
  for (int round = 0; round < 40; ++round) {
    GraphCatalog catalog(SmallPool());
    ASSERT_TRUE(catalog.Load("g", PairCliqueData(6)).ok());
    Result<CatalogTicket> t = SubmitOne(catalog, "g", PathQuery(2), {});
    ASSERT_TRUE(t.ok());

    // Two waiters widen the window: both park on the gate, and the unload
    // can only be safe if neither ever needs the service after waking.
    std::thread w1([&] {
      EXPECT_EQ(t.value().ticket.Wait().status, QueryStatus::kOk);
    });
    std::thread w2([&] {
      const QueryOutcome* out = t.value().ticket.Wait(30.0);
      ASSERT_NE(out, nullptr);
      EXPECT_EQ(out->status, QueryStatus::kOk);
    });
    // wait=true destroys the graph's service as soon as the hook-driven
    // drain condition holds — concurrently with the waiters waking.
    EXPECT_TRUE(catalog.Unload("g", /*wait=*/true).ok());
    w1.join();
    w2.join();
    // The outcome store is ticket-owned: still readable after teardown.
    EXPECT_EQ(t.value().ticket.TryGet()->status, QueryStatus::kOk);
    catalog.Shutdown();
  }
}

// The headline race: loader/unloader cycling a name while submitters hammer
// it. Every submit either fails cleanly (graph momentarily absent) or
// yields a ticket that resolves with an exact count. TSan runs this in CI.
TEST(CatalogTest, ConcurrentLoadUnloadRacingSubmitsStaysExact) {
  GraphCatalog catalog(SmallPool(4));
  ASSERT_TRUE(catalog.Load("stable", PaperDataHypergraph()).ok());
  IndexedHypergraph flappy_idx = IndexedHypergraph::Build(PairCliqueData(6));
  Result<MatchStats> want = MatchSequential(flappy_idx, PathQuery(2));
  ASSERT_TRUE(want.ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> refused{0};

  std::thread cycler([&] {
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(catalog.Load("flappy", PairCliqueData(6)).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      EXPECT_TRUE(catalog.Unload("flappy", (i % 2) == 0).ok());
    }
    stop.store(true);
  });

  std::vector<std::thread> submitters;
  for (int s = 0; s < 3; ++s) {
    submitters.emplace_back([&] {
      while (!stop.load()) {
        Result<CatalogTicket> t =
            SubmitOne(catalog, "flappy", PathQuery(2), {});
        if (!t.ok()) {
          refused.fetch_add(1);
          std::this_thread::yield();
          continue;
        }
        accepted.fetch_add(1);
        const QueryOutcome& out = t.value().ticket.Wait();
        EXPECT_EQ(out.status, QueryStatus::kOk);
        EXPECT_EQ(out.stats.embeddings, want.value().embeddings);
      }
    });
  }
  cycler.join();
  for (std::thread& t : submitters) t.join();

  // The stable graph was untouched throughout.
  EXPECT_TRUE(catalog.Has("stable"));
  EXPECT_FALSE(catalog.Has("flappy"));
  // The race must actually have exercised both outcomes to mean anything.
  EXPECT_GT(accepted.load() + refused.load(), 0u);
}

TEST(CatalogTest, CancelThroughCatalogResolvesTicket) {
  GraphCatalog catalog(SmallPool());
  ASSERT_TRUE(catalog.Load("g", PairCliqueData(10)).ok());
  Result<CatalogTicket> t = SubmitOne(catalog, "g", PathQuery(5), {});
  ASSERT_TRUE(t.ok());
  catalog.Cancel(t.value());  // false when it already finished — both fine
  const QueryOutcome& out = t.value().ticket.Wait();
  EXPECT_TRUE(out.status == QueryStatus::kCancelled ||
              out.status == QueryStatus::kOk);
}

TEST(CatalogTest, ShutdownSealsSubmissions) {
  GraphCatalog catalog(SmallPool());
  ASSERT_TRUE(catalog.Load("g", PaperDataHypergraph()).ok());
  catalog.Shutdown();
  EXPECT_FALSE(SubmitOne(catalog, "g", PathQuery(1), {}).ok());
  EXPECT_FALSE(catalog.Load("h", PaperDataHypergraph()).ok());
  catalog.Shutdown();  // idempotent
}

// The plan-cache capacity bound the catalog's services inherit: with a
// bound of 1, alternating structures evict each other (no cache hits);
// with room for both, the revisit hits.
TEST(CatalogTest, PlanCacheCapacityEvictsIdleLru) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(5));
  for (size_t capacity : {1u, 2u}) {
    ServiceOptions options;
    options.parallel.num_threads = 2;
    options.plan_cache_capacity = capacity;
    MatchService service(idx, options);
    service.Submit(PathQuery(1)).Wait();
    service.Submit(PathQuery(2)).Wait();
    service.Submit(PathQuery(1)).Wait();  // hit iff capacity >= 2
    ServiceReport report = service.Shutdown();
    if (capacity == 1) {
      EXPECT_EQ(report.plan_cache_hits, 0u);
    } else {
      EXPECT_EQ(report.plan_cache_hits, 1u);
    }
  }
}

}  // namespace
}  // namespace hgmatch
