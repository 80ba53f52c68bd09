// Coverage of per-query spans (obs/trace.h + SubmitOptions::trace): the
// span is finalised exactly once on every terminal path — ok, embedding
// limit, timeout, cancel-while-queued, cancel-while-running, shed by
// backpressure, plan-cache mirror — with monotonically ordered stamps for
// the stages that actually happened and zeros for the ones that did not.
// The suite runs in the TSan matrix: stamps cross from pool workers to the
// waiter.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/hgmatch.h"
#include "obs/trace.h"
#include "parallel/service.h"
#include "tests/test_fixtures.h"

namespace hgmatch {
namespace {

Hypergraph PairCliqueData(uint32_t m) {
  Hypergraph h;
  h.AddVertices(m, 0);
  for (VertexId i = 0; i < m; ++i) {
    for (VertexId j = i + 1; j < m; ++j) (void)h.AddEdge({i, j});
  }
  return h;
}

Hypergraph PathQuery(uint32_t k) {
  Hypergraph q;
  q.AddVertices(k + 1, 0);
  for (VertexId v = 0; v < k; ++v) (void)q.AddEdge({v, v + 1});
  return q;
}

ServiceOptions BaseOptions(uint32_t threads) {
  ServiceOptions o;
  o.parallel.num_threads = threads;
  o.parallel.scan_grain = 1;
  return o;
}

SubmitOptions Traced() {
  SubmitOptions so;
  so.trace = true;
  return so;
}

// The invariants every finalised span must satisfy, whatever the path:
// nonzero stamps are ordered, zero stamps mark stages that never ran.
void ExpectWellFormed(const QuerySpan& span) {
  EXPECT_TRUE(span.enabled);
  EXPECT_GT(span.submit_seconds, 0.0);
  double prev = span.submit_seconds;
  for (double stamp : {span.admit_seconds, span.first_task_seconds,
                       span.last_task_seconds, span.resolve_seconds}) {
    if (stamp == 0) continue;
    EXPECT_GE(stamp, prev);
    prev = stamp;
  }
  EXPECT_GE(span.TotalSeconds(), 0.0);
}

TEST(TraceTest, UntracedSubmissionCarriesNoSpan) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchService service(idx, BaseOptions(2));
  Ticket t = service.Submit(PaperQueryHypergraph());
  EXPECT_FALSE(t.Wait().span.enabled);
  EXPECT_EQ(t.Wait().span.submit_seconds, 0.0);
  service.Shutdown();
}

TEST(TraceTest, OkQueryHasEveryStageInOrder) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchService service(idx, BaseOptions(2));
  Ticket t = service.Submit(PaperQueryHypergraph(), Traced());
  const QueryOutcome& out = t.Wait();
  EXPECT_EQ(out.status, QueryStatus::kOk);
  ExpectWellFormed(out.span);
  // A completed query ran every stage.
  EXPECT_GT(out.span.admit_seconds, 0.0);
  EXPECT_GT(out.span.first_task_seconds, 0.0);
  EXPECT_GT(out.span.last_task_seconds, 0.0);
  EXPECT_GT(out.span.resolve_seconds, 0.0);
  service.Shutdown();
}

TEST(TraceTest, LimitAndTimeoutSpansFinalise) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(24));
  MatchService service(idx, BaseOptions(2));

  SubmitOptions limited = Traced();
  limited.limit = 1;
  Ticket lim = service.Submit(PathQuery(2), limited);
  EXPECT_EQ(lim.Wait().status, QueryStatus::kLimit);
  ExpectWellFormed(lim.Wait().span);

  SubmitOptions timed = Traced();
  timed.timeout_seconds = 1e-9;  // expires at the first task boundary
  Ticket to = service.Submit(PathQuery(4), timed);
  EXPECT_EQ(to.Wait().status, QueryStatus::kTimeout);
  ExpectWellFormed(to.Wait().span);
  service.Shutdown();
}

TEST(TraceTest, CancelledQueuedSpanHasNoAdmitStamp) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  ServiceOptions options = BaseOptions(2);
  options.max_inflight_queries = 1;
  options.plan_cache = false;
  MatchService service(idx, options);

  Ticket monster = service.Submit(PathQuery(4), Traced());  // holds the slot
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  Ticket queued = service.Submit(PathQuery(1), Traced());
  EXPECT_TRUE(queued.Cancel());
  const QueryOutcome* out = queued.TryGet();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->status, QueryStatus::kCancelled);
  ExpectWellFormed(out->span);
  // Never admitted, never ran: only submit and resolve are stamped.
  EXPECT_EQ(out->span.admit_seconds, 0.0);
  EXPECT_EQ(out->span.first_task_seconds, 0.0);
  EXPECT_GT(out->span.resolve_seconds, 0.0);

  EXPECT_TRUE(monster.Cancel());
  const QueryOutcome& mout = monster.Wait();
  EXPECT_EQ(mout.status, QueryStatus::kCancelled);
  // Cancelled mid-run: it was admitted and ran tasks before stopping.
  ExpectWellFormed(mout.span);
  EXPECT_GT(mout.span.admit_seconds, 0.0);
  service.Shutdown();
}

TEST(TraceTest, ShedSubmissionStillFinalisesItsSpan) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  ServiceOptions options = BaseOptions(2);
  options.max_inflight_queries = 1;
  options.max_queued_queries = 1;
  options.plan_cache = false;
  MatchService service(idx, options);

  Ticket plug = service.Submit(PathQuery(4), Traced());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Ticket waiting = service.Submit(PathQuery(1), Traced());
  Ticket shed = service.Submit(PathQuery(1), Traced());
  const QueryOutcome* out = shed.TryGet();
  ASSERT_NE(out, nullptr);  // backpressure resolves synchronously
  EXPECT_EQ(out->status, QueryStatus::kRejected);
  ExpectWellFormed(out->span);
  EXPECT_EQ(out->span.admit_seconds, 0.0);  // never admitted

  EXPECT_TRUE(plug.Cancel());
  (void)plug.Wait();
  (void)waiting.Wait();
  service.Shutdown();
}

TEST(TraceTest, MirrorCarriesCanonicalSpanWithOwnResolve) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchService service(idx, BaseOptions(2));

  Ticket canonical = service.Submit(PaperQueryHypergraph(), Traced());
  const QueryOutcome& cout_ = canonical.Wait();
  EXPECT_EQ(cout_.status, QueryStatus::kOk);
  ExpectWellFormed(cout_.span);

  // Identical sink-less repeat: resolved from the plan-cache record.
  Ticket mirror = service.Submit(PaperQueryHypergraph(), Traced());
  const QueryOutcome& mout = mirror.Wait();
  EXPECT_EQ(mout.status, QueryStatus::kOk);
  EXPECT_TRUE(mout.mirrored);
  ExpectWellFormed(mout.span);
  // The mirror shares the canonical's execution stamps but resolved at
  // its own (later or equal) instant.
  EXPECT_EQ(mout.span.first_task_seconds, cout_.span.first_task_seconds);
  EXPECT_GE(mout.span.resolve_seconds, cout_.span.resolve_seconds);
  service.Shutdown();
}

TEST(TraceTest, ConcurrentTracedQueriesFinaliseExactlyOnce) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchService service(idx, BaseOptions(4));
  std::vector<Ticket> tickets;
  for (int i = 0; i < 64; ++i) {
    tickets.push_back(service.Submit(PaperQueryHypergraph(), Traced()));
  }
  for (Ticket& t : tickets) {
    const QueryOutcome& out = t.Wait();
    ExpectWellFormed(out.span);
    // Wait() twice returns the same stored span, not a re-finalised one.
    EXPECT_EQ(t.Wait().span.resolve_seconds, out.span.resolve_seconds);
  }
  service.Shutdown();
}

TEST(TraceTest, TimelineRendersStagesAndDashes) {
  QuerySpan span;
  span.enabled = true;
  span.submit_seconds = 1.0;
  span.admit_seconds = 1.001;
  span.first_task_seconds = 0;  // never ran
  span.last_task_seconds = 0;
  span.resolve_seconds = 1.002;
  const std::string text = span.Timeline();
  EXPECT_NE(text.find("submit"), std::string::npos);
  EXPECT_NE(text.find("admit"), std::string::npos);
  EXPECT_NE(text.find("+1.000 ms"), std::string::npos);    // admit offset
  EXPECT_NE(text.find("first-task   -"), std::string::npos);  // skipped stage
}

TEST(TraceTest, MonotonicSecondsAdvances) {
  const double a = MonotonicSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double b = MonotonicSeconds();
  EXPECT_GT(b, a);
}

}  // namespace
}  // namespace hgmatch
