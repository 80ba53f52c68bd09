#ifndef HGMATCH_PARALLEL_SERVICE_H_
#define HGMATCH_PARALLEL_SERVICE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hypergraph.h"
#include "core/indexed_hypergraph.h"
#include "parallel/scheduler.h"
#include "util/status.h"

namespace hgmatch {

class MatchService;

namespace internal {
class ServiceImpl;
struct QueryRecord;
}  // namespace internal

/// Options of the streaming query service.
struct ServiceOptions {
  /// Pool configuration plus the per-query *default* timeout/limit
  /// (overridable per submission through SubmitOptions).
  ParallelOptions parallel;

  /// Order in which waiting queries are admitted when the admission window
  /// has a free slot (see AdmissionPolicy).
  AdmissionPolicy admission = AdmissionPolicy::kFifo;

  /// Admission window: at most this many queries in flight at once; the
  /// rest wait in admission-policy order. 0 = unlimited.
  uint32_t max_inflight_queries = 0;

  /// Queue-depth backpressure: upper bound on queries waiting for
  /// admission. When the window is full and this many queries already
  /// wait, Submit() resolves the new ticket immediately with
  /// QueryStatus::kRejected instead of queueing — the service's load
  /// shedding path (callers retry once the backlog drains). 0 = unbounded.
  uint32_t max_queued_queries = 0;

  /// Upper bound on distinct compiled plans retained by the plan cache;
  /// 0 = unbounded. When an insertion pushes the cache past the bound, the
  /// least-recently-used entries with no in-flight submissions are evicted
  /// (plan freed; the structure re-compiles on its next appearance).
  /// Entries with live submissions are never evicted, so the cache may
  /// transiently exceed the bound under heavy concurrency.
  size_t plan_cache_capacity = 0;

  /// Whole-service wall-clock budget in seconds, armed at construction;
  /// <= 0 disables. When it runs out, unfinished queries are stopped, and
  /// so is every later submission at admission. A query is only reported
  /// timed out if some of its work was actually dropped. This is the
  /// whole-batch timeout of RunBatch; a long-lived service normally leaves
  /// it off.
  double run_timeout_seconds = 0;

  /// Detect repeated queries across *all* submissions of this service's
  /// lifetime and reuse one compiled plan for all copies. A sink-less
  /// repeat under the same timeout/limit budgets additionally skips
  /// execution and mirrors the canonical copy's exact counts — unless the
  /// canonical is already known to have ended abnormally
  /// (timeout/cancelled), in which case the repeat executes on the shared
  /// plan (and, if accepted, becomes the structure's new canonical).
  ///
  /// Mirrors never fate-share: a mirror attached while its canonical is
  /// still running is *re-dispatched* as an independent execution on the
  /// shared compiled plan if the canonical ends cancelled or timed out —
  /// it keeps its own budgets, tenant WFQ charge, completion hook and
  /// trace span, and resolves with its own exact outcome; the first
  /// accepted re-dispatch takes over as canonical, so mirroring resumes
  /// for the structure. Cancelling a mirror resolves only that mirror
  /// (kCancelled) and never disturbs the canonical execution or sibling
  /// mirrors. This holds during Shutdown() too: the pool accepts the
  /// re-dispatch until every record has resolved.
  ///
  /// The cache is keyed by a canonical labelling of the query hypergraph
  /// (core/canonical.h), so isomorphic repeats — renamed vertices,
  /// reordered hyperedges — also hit it and skip planning. Counts are
  /// isomorphism-invariant, so such repeats mirror exactly like exact
  /// ones; sink-ful isomorphic repeats compile a private plan (the
  /// embedding tuples must follow the submitted query's own edge
  /// numbering). Queries above the canonicaliser's size cutoff (or
  /// exhausting its search budget) fall back to the exact key.
  ///
  /// Under AdmissionPolicy::kWeightedFair the cache also prices
  /// admissions: each one charges its tenant by the measured task count of
  /// the previous completed run of the same plan instead of a flat 1 unit,
  /// so tenant shares hold in *work* units when query sizes are
  /// heterogeneous. First-seen plans, and every query of a cache-off
  /// service, charge 1.
  bool plan_cache = true;
};

/// Live observability gauges of a running service, cheap enough to sample
/// on every stats request (a few atomic loads and one scheduler lock). The
/// wire front end folds these into its kStatsReply snapshot.
struct ServiceGauges {
  uint64_t finished = 0;       // outcomes finalised since construction
  uint64_t live_contexts = 0;  // queries whose execution state is live
  uint64_t rejected = 0;       // shed by the max_queued_queries bound
};

/// Aggregate accounting of one service lifetime, returned by Shutdown().
struct ServiceReport {
  // Private pool only (empty / 0 on a shared pool): one row per pool
  // thread, and the high-water mark of live task memory.
  std::vector<WorkerReport> workers;
  uint64_t peak_task_bytes = 0;
  double seconds = 0;  // construction -> Shutdown wall time

  uint64_t submitted = 0;        // every Submit() call
  uint64_t executed = 0;         // queries that actually ran on the pool
  uint64_t mirrored = 0;         // sink-less repeats resolved from the cache
  uint64_t redispatched = 0;     // mirrors re-executed after their canonical
                                 // ended cancelled/timed out (these moved
                                 // from mirrored to executed)
  uint64_t rejected = 0;         // shed by the max_queued_queries bound
  uint64_t plan_errors = 0;      // submissions that failed planning
  uint64_t plan_cache_hits = 0;  // submissions that reused a compiled plan
  uint64_t plan_cache_isomorphic_hits = 0;  // subset of plan_cache_hits from
                                            // renamed/reordered (non-exact)
                                            // repeats
  uint64_t unique_plans = 0;     // distinct plans compiled
};

/// Handle to one submitted query. Cheap to copy (shared state); the empty
/// (default-constructed) ticket is invalid. A ticket must not outlive its
/// MatchService unless the service was shut down first (Shutdown resolves
/// every outstanding ticket, after which Wait/TryGet only read stored
/// outcomes).
class Ticket {
 public:
  Ticket() = default;

  bool valid() const { return rec_ != nullptr; }

  /// Monotonic per-service submission id (0-based).
  uint64_t id() const;

  /// Planning/acceptance status: not-ok iff the query never executed
  /// because planning failed or the service was already shut down (the
  /// outcome then reports QueryStatus::kPlanError).
  const Status& status() const;

  /// Blocks until the query finishes (completion, timeout, limit,
  /// cancellation or rejection) and returns its outcome. The reference
  /// stays valid for the ticket's lifetime (the outcome store is
  /// shared-owned by the ticket itself). Thread-safe; may be called
  /// repeatedly. Completion-driven: the wait parks on a condition variable
  /// armed by the scheduler's completion hook, so it wakes the moment the
  /// outcome finalises — there is no polling anywhere on this path. The
  /// wait does not require the service to stay alive: a ticket whose
  /// service is torn down mid-wait (e.g. a catalog unload draining behind
  /// an in-flight query) still resolves and returns safely — only
  /// Cancel() needs the service itself.
  const QueryOutcome& Wait() const;

  /// Bounded Wait (request deadlines, e.g. the wire front end): blocks
  /// until the query finishes or `timeout_seconds` elapses, whichever is
  /// first. Returns the outcome, or null on expiry — expiry does NOT
  /// cancel the query; pair with Cancel() to give up on it. Thread-safe.
  const QueryOutcome* Wait(double timeout_seconds) const;

  /// Non-blocking Wait: null until the query has finished.
  const QueryOutcome* TryGet() const;

  /// Requests cancellation. A query waiting for admission (or a not yet
  /// resolved mirror) resolves immediately with QueryStatus::kCancelled; an
  /// in-flight query stops at the next task boundary, keeping the partial
  /// counts it completed. Cancelling a mirror detaches and resolves only
  /// that mirror — the canonical execution and sibling mirrors are
  /// untouched; cancelling a canonical re-dispatches its attached mirrors
  /// instead of dragging them down (see ServiceOptions::plan_cache).
  /// Returns false iff the query had already finished.
  bool Cancel() const;

 private:
  friend class MatchService;
  friend class internal::ServiceImpl;
  explicit Ticket(std::shared_ptr<internal::QueryRecord> rec)
      : rec_(std::move(rec)) {}

  std::shared_ptr<internal::QueryRecord> rec_;
};

/// One entry of MatchService::SubmitBatch(): a query plus its per-submit
/// options, owned by the batch (SubmitBatch moves the hypergraphs in, like
/// Submit()).
struct BatchSubmission {
  Hypergraph query;
  SubmitOptions options;
};

/// The SchedulerOptions a service's private pool, or the graph catalog's
/// shared pool, is built from: the `parallel` shape, admission policy,
/// window/queue bounds and run timeout of `options`.
SchedulerOptions ToSchedulerOptions(const ServiceOptions& options);

/// A long-lived match-query service bound to one indexed data hypergraph:
/// the streaming front end of the shared scheduler core
/// (parallel/scheduler.h). Construction starts the worker pool; Submit()
/// plans the query (deduplicating structurally identical queries through a
/// service-lifetime plan cache), hands it to the scheduler under the
/// configured admission policy, and returns a Ticket immediately — queries
/// may be submitted from any thread while earlier ones are running.
/// Ticket::Wait()/TryGet() observe per-query outcomes as they finish;
/// Ticket::Cancel() stops one query without disturbing the rest; Drain()
/// waits for everything submitted so far; Shutdown() seals the service,
/// drains and returns the aggregate report, stopping the pool when the
/// service owns it.
///
/// Outcome delivery is completion-driven: the service hangs a completion
/// hook on every pool submission (the scheduler's only outcome channel),
/// and the moment the scheduler finalises a query the hook copies the
/// outcome into the ticket record, resolves any mirrors attached to the
/// record, wakes every Ticket::Wait, and fires the submission's own
/// SubmitOptions::completion hook — exactly once per submission, whatever
/// path produced the outcome (executed on the pool, mirrored from a
/// canonical, cancelled while queued, shed by backpressure, a plan error,
/// rejected after Shutdown), on the thread that finalised it. The wire
/// front end (net/server.h) delivers every outcome through this hook.
///
/// Retention is bounded for a long-lived service: the scheduler keeps
/// nothing of a query once it finishes, the completion hook resolves the
/// record eagerly (outcomes need not be retrieved for memory to stay
/// bounded), and resolved ticket records are swept opportunistically, so
/// memory tracks in-flight work plus the plan cache (one plan + canonical
/// outcome per distinct query structure), not the total ever submitted.
class MatchService {
 public:
  /// Starts a private worker pool built from ToSchedulerOptions(options);
  /// Shutdown() stops it and reports its worker rows. `data` must outlive
  /// the service.
  MatchService(const IndexedHypergraph& data, const ServiceOptions& options);

  /// Binds the service to a pool it shares with other services (the graph
  /// catalog's): queries execute on `pool`'s workers, carrying `data` per
  /// submission. The pool's admission policy/window/queue bounds apply
  /// pool-wide; this service's `options` still govern its plan cache and
  /// default budgets (the `parallel` pool-shape fields and admission
  /// fields of `options` are ignored). `data` and
  /// `pool` must outlive the service; Shutdown() waits for this service's
  /// own queries only and leaves the pool running for its siblings (its
  /// report then carries service counters but no worker rows).
  MatchService(const IndexedHypergraph& data, Scheduler& pool,
               const ServiceOptions& options);

  /// Shuts down (cancelling nothing: outstanding queries finish first).
  ~MatchService();

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  /// Submits one query; the service takes ownership of the hypergraph (the
  /// compiled plan references it until the query finishes). Returns
  /// immediately. Thread-safe. After Shutdown(), submissions are rejected:
  /// the ticket resolves at once with kPlanError and a not-ok status().
  Ticket Submit(Hypergraph query, const SubmitOptions& options = {});

  /// Like Submit() but without taking ownership: `query` must stay alive
  /// until its ticket resolves. Used by RunBatch, whose caller owns the
  /// whole batch.
  Ticket SubmitBorrowed(const Hypergraph& query,
                        const SubmitOptions& options = {});

  /// Submits every entry under ONE admission pass: the internal lock is
  /// taken once for the whole batch, so N tiny queries (the entries of one
  /// wire kSubmit frame) cost one lock round-trip and one record sweep
  /// instead of N. Semantically identical to calling Submit() once
  /// per entry in order — same ids, same per-entry plan cache/mirror/
  /// rejection behaviour, same completion hooks. Returns one ticket per
  /// entry, in input order. Thread-safe.
  std::vector<Ticket> SubmitBatch(std::vector<BatchSubmission> batch);

  /// Blocks until every query submitted so far has finished. The service
  /// stays up for further submissions. Thread-safe.
  void Drain();

  /// Seals the service (further Submit calls are rejected), waits for all
  /// outstanding queries, stops a private pool and returns the aggregate
  /// report. Idempotent: later calls return the same report.
  ServiceReport Shutdown();

  /// Resolved pool size.
  uint32_t num_threads() const;

  /// Live observability snapshot (see ServiceGauges). Thread-safe. After
  /// Shutdown() the pool gauges read 0.
  ServiceGauges Gauges();

 private:
  std::unique_ptr<internal::ServiceImpl> impl_;
};

/// The tickets of one RunBatch call, in input order, and the report of the
/// service that ran them. Every ticket is resolved.
struct BatchRun {
  std::vector<Ticket> tickets;
  ServiceReport report;
};

/// Runs a set of queries as one batch: a private MatchService over `data`
/// (so plan-cache statistics are batch-scoped), every query submitted
/// borrowed in input order, then Shutdown(). `submit`, when non-null, holds
/// one SubmitOptions per query: admission parameters, budgets and sink.
/// Queries that fail to plan resolve with QueryStatus::kPlanError and a
/// not-ok Ticket::status() and do not affect the others. Per-query counts
/// equal a standalone MatchSequential run of the same query.
BatchRun RunBatch(const IndexedHypergraph& data,
                  const std::vector<Hypergraph>& queries,
                  const ServiceOptions& options,
                  const std::vector<SubmitOptions>* submit = nullptr);

}  // namespace hgmatch

#endif  // HGMATCH_PARALLEL_SERVICE_H_
