#ifndef HGMATCH_PARALLEL_SCHEDULER_H_
#define HGMATCH_PARALLEL_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/indexed_hypergraph.h"
#include "core/matching_order.h"
#include "core/result.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "parallel/submit_options.h"

namespace hgmatch {

/// Options of the shared scheduler core. `parallel` carries the pool shape
/// (threads, stealing, scan grain, seed) and the *per-query* default
/// timeout/limit; the remaining fields only matter for multi-query runs and
/// are no-ops when one query runs at a time.
struct SchedulerOptions {
  /// Pool configuration plus per-query default timeout/limit. The per-query
  /// timeout is measured from the query's *admission* (the instant its SCAN
  /// ranges are seeded), not from submission, so a query waiting in the
  /// admission queue does not burn its own budget.
  ParallelOptions parallel;

  /// Whole-run wall-clock timeout in seconds; <= 0 disables. Armed when the
  /// scheduler is constructed. When it fires, every unfinished query is
  /// stopped, and so is every query admitted afterwards; a query is
  /// reported `timed_out` only if any of its work was actually dropped (a
  /// query whose final mid-flight task completes its counts is not marked
  /// timed out).
  double batch_timeout_seconds = 0;

  /// Admission window: at most this many queries have live tasks at any
  /// instant; the rest wait in admission-policy order and are admitted as
  /// slots free up. 0 = unlimited (every query is admitted on submission).
  /// A window of 1 serialises the queries while keeping intra-query
  /// parallelism.
  uint32_t max_inflight_queries = 0;

  /// Order in which waiting queries are admitted (see AdmissionPolicy).
  AdmissionPolicy admission = AdmissionPolicy::kFifo;

  /// Queue-depth backpressure: upper bound on queries *waiting* for
  /// admission while the pool is running. A Submit() that arrives when the
  /// admission window is full and this many queries are already waiting
  /// resolves immediately with QueryStatus::kRejected instead of queueing
  /// (load shedding — the caller may retry once the backlog drains).
  /// 0 = unbounded.
  uint32_t max_queued_queries = 0;
};

/// Outcome of one submitted query. `stats` is exactly comparable to a
/// standalone sequential run of the same plan: `stats.seconds` measures
/// admission -> last task retired, `timed_out` is set only when work was
/// dropped.
struct QueryOutcome {
  /// Terminal state; see QueryStatus. The scheduler never reports
  /// kPlanError (it only sees compiled plans) — the service layer does.
  QueryStatus status = QueryStatus::kOk;

  /// Set by the service layer when this outcome was mirrored from a
  /// structurally identical earlier query instead of executing.
  bool mirrored = false;

  MatchStats stats;

  /// Seconds from pool start (construction) until this query was admitted.
  /// Always the wall clock at admission, so approximately — not exactly —
  /// 0 when the admission window is unlimited; do not test it with == 0.
  double admit_seconds = 0;

  /// Seconds from pool start until this query's last task retired (equals
  /// admit_seconds for queries resolved at admission, e.g. cancelled while
  /// queued or matching nothing at step 0).
  double finish_seconds = 0;

  /// 0-based position of this query in the global admission sequence —
  /// the observable order the admission policy produced. Queries resolved
  /// without ever reaching admission (cancelled while queued) also consume
  /// a slot in this sequence, at the moment they resolve.
  uint64_t admit_index = 0;

  /// End-to-end timeline (process-monotonic stamps), recorded only when
  /// the query was submitted with SubmitOptions::trace; span.enabled is
  /// false otherwise. The scheduler fills submit/admit/first_task/
  /// last_task; the service layer adds resolve; the wire server adds
  /// deliver.
  QuerySpan span;
};

/// The scheduler core shared by the single-query executor
/// (parallel/executor.h) and the streaming query service
/// (parallel/service.h): one worker pool where each worker owns a Chase-Lev
/// deque, schedules LIFO and steals up to half of a random victim's queue
/// when idle (Section VI.B/VI.C), generalised to many concurrent query
/// plans by tagging every task with its query context. It owns the worker
/// pool, the deques, the steal policy, per-query deadlines/limits, the
/// admission window and policy, and per-query stats accumulation; the
/// public engines are thin facades over it. Admitted queries are seeded
/// through a shared injection queue that workers drain before their own
/// deques, so a newly admitted query starts at the next task boundary and
/// spreads over the pool even with work stealing disabled.
///
/// One lifecycle: construction starts the pool and destruction stops it.
/// Submit() from any thread at any time while the pool lives; each
/// submission carries its own data graph and is admitted per the admission
/// policy. Cancel() stops one query; WaitIdle() waits for everything
/// submitted so far. The destructor cancels every
/// unfinished query, queued ones included, waits until the pool is idle,
/// then stops and joins the workers. The executor keeps one long-lived
/// pool per calling thread, the graph catalog one pool for all its graphs,
/// and a MatchService of its own one private pool.
///
/// One outcome channel: a query's outcome is reported only through its
/// completion hook (SubmitOptions::completion), exactly once. The
/// scheduler keeps nothing of a finished query, so a query costs it
/// nothing once its hook has run, whether or not anyone looks at the
/// outcome. A caller that wants the outcome copies it in the hook.
///
/// Idle workers park and cost no CPU, mid-query too. A worker that finds no
/// task yields 64 times, then counts itself parked and sleeps untimed
/// until a wake epoch, read before it looked for work, changes. Seeds
/// injected by Submit(), by admissions inside Cancel() or a retiring task,
/// and the destructor's stop wake every parked worker; a spawn that finds
/// the parked count non-zero wakes one, to steal the new task.
///
/// Plans must stay alive until the owning query finishes; submitting the
/// same plan pointer for several queries is allowed (the plan caches do
/// this) and shares per-worker expanders between them.
class Scheduler {
 public:
  /// Starts the pool. Every submission names its own data graph, so one
  /// pool can serve many graphs (the graph catalog, serve/catalog.h).
  explicit Scheduler(const SchedulerOptions& options);

  /// Cancels every unfinished query (each completion hook fires once,
  /// kCancelled unless the query finished first), waits for the pool to
  /// go idle, then stops and joins the workers. No Submit() may race it.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Registers one query against `data`, which must be the index the plan
  /// was built against and must outlive the query. `plan` must outlive the
  /// query and must come from BuildQueryPlan/BuildQueryPlanWithOrder (its
  /// uid stamps the per-worker expander cache; a hand-assembled plan with
  /// uid 0 is rejected by assertion). `options.sink` may be null (count
  /// only). Thread-safe. Returns the query's index.
  ///
  /// `options.completion`, when set, is invoked exactly once at the moment
  /// the query's outcome finalises — whatever the terminal status,
  /// including submissions resolved synchronously inside this call
  /// (queue-depth rejection) or inside Cancel() — with no scheduler lock
  /// held (see SubmitOptions::completion for the full contract). It is the
  /// only way to learn the outcome.
  uint32_t Submit(const QueryPlan* plan, const IndexedHypergraph& data,
                  const SubmitOptions& options);

  /// Requests cancellation of one query. A query still waiting for
  /// admission resolves immediately (status kCancelled, zero stats); an
  /// in-flight query stops at the next task boundary and resolves once its
  /// live tasks drain. Returns false iff the query had already finished.
  /// Thread-safe.
  bool Cancel(uint32_t query);

  /// Declares that no further queries will ever be submitted for the plan
  /// with this uid (QueryPlan::uid): workers lazily drop their cached
  /// per-plan expansion state. Call before freeing a plan whose queries all
  /// finished; without it, per-worker state grows with distinct plans. A
  /// plan that is submitted again after all is still matched correctly;
  /// the workers just rebuild its state.
  void RetirePlan(uint64_t plan_uid);

  /// Diagnostics: number of per-query contexts currently allocated
  /// (in-flight + waiting queries). Bounded by the admission window plus
  /// the waiting queue at any instant; 0 once WaitIdle() returned with no
  /// submission racing it.
  size_t LiveContexts();

  /// Total submissions shed by the max_queued_queries bound so far.
  uint64_t RejectedCount() const;

  /// Blocks until every query submitted so far has finished and its
  /// completion hook has returned (a query without a hook counts at the
  /// point its hook would have run), so everything a hook wrote is visible
  /// to the caller. The pool stays up for more submissions. Thread-safe;
  /// must not be called from inside a hook.
  void WaitIdle();

  /// Per-worker reports accumulated since the pool started, with SCAN
  /// seeds injected by non-pool threads counted on worker 0. Call only
  /// while no task is live, e.g. after WaitIdle() by the only thread that
  /// submits.
  std::vector<WorkerReport> WorkerReports();

  /// High-water mark of live task memory since the previous call (or pool
  /// start); restarts the mark at the bytes live now.
  uint64_t TakePeakTaskBytes();

  /// Resolved pool size (`parallel.num_threads`, with 0 mapped to
  /// std::thread::hardware_concurrency()).
  uint32_t num_threads() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hgmatch

#endif  // HGMATCH_PARALLEL_SCHEDULER_H_
