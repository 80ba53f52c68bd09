#ifndef HGMATCH_PARALLEL_BATCH_RUNNER_H_
#define HGMATCH_PARALLEL_BATCH_RUNNER_H_

#include <cstdint>
#include <vector>

#include "core/hypergraph.h"
#include "core/indexed_hypergraph.h"
#include "core/result.h"
#include "parallel/executor.h"
#include "parallel/scheduler.h"
#include "util/status.h"

namespace hgmatch {

/// Options of the batch execution engine.
struct BatchOptions {
  /// Pool configuration plus the *per-query* timeout/limit. Per-query
  /// timeouts are measured from each query's *admission* time (when its
  /// SCAN ranges are seeded into the pool), so a query waiting behind the
  /// admission window does not burn its own budget while queued.
  ParallelOptions parallel;

  /// Whole-batch wall-clock timeout in seconds; <= 0 disables. The clock
  /// starts when RunBatch starts its pool, before the first query is
  /// planned, so planning and submission count against it. When it fires,
  /// unfinished queries are stopped, and so is every query submitted
  /// after it fired; a query is only reported timed_out if some of its
  /// work was actually dropped — a query whose final mid-flight task
  /// completes its counts keeps exact stats and is not marked timed out.
  double batch_timeout_seconds = 0;

  /// Admission window: at most this many queries are in flight at once;
  /// the rest wait in admission-policy order and are admitted as earlier
  /// queries finish. 0 = unlimited (the whole batch is admitted up front).
  /// A window of 1 serialises the queries while keeping intra-query
  /// parallelism; a small window bounds per-batch memory and gives later
  /// queries predictable admission latency under multi-user load.
  uint32_t max_inflight_queries = 0;

  /// Order in which waiting queries are admitted: FIFO in input order (the
  /// historical behaviour), strict priority, or weighted-fair across
  /// tenants (see AdmissionPolicy); priorities/tenants/weights come from
  /// the per-query SubmitOptions passed to RunBatch.
  AdmissionPolicy admission = AdmissionPolicy::kFifo;

  /// Per-query fairness quota: when a query already has this many live
  /// tasks, further expansions of it run inline depth-first instead of
  /// being queued, so one expensive query cannot flood the shared deques
  /// and starve cheap queries of the batch. 0 = off.
  uint64_t task_quota = 0;

  /// Detect repeated queries and reuse one compiled plan for all copies;
  /// copies without a sink additionally skip execution entirely and mirror
  /// the first copy's exact counts. Repeats are found via an
  /// isomorphism-invariant canonical key (small queries) falling back to an
  /// exact structural key, so renamed/reordered duplicates share too.
  bool plan_cache = true;

  /// When false the plan cache keys on byte-exact structure only — the
  /// pre-canonicalisation behaviour. An ablation/debug switch.
  bool plan_cache_isomorphism = true;
};

/// Outcome of one query of a batch. Entries of BatchResult::queries appear
/// in input order regardless of completion order (deterministic ordering).
struct BatchQueryResult {
  /// Planning outcome; when not ok the query was never executed, stats are
  /// all-zero and `outcome` is QueryStatus::kPlanError.
  Status status;

  /// Terminal state: ok / timeout / limit / cancelled / plan-error.
  QueryStatus outcome = QueryStatus::kOk;

  /// True when this query's counts were mirrored from a structurally
  /// identical earlier query (plan cache, sink-less repeat) instead of
  /// executing.
  bool mirrored = false;

  /// Per-query counters, exactly comparable to a standalone run of the same
  /// query. `seconds` is the time from this query's admission until its
  /// last task finished.
  MatchStats stats;

  /// Seconds from batch start until this query was admitted into the pool.
  /// Always the wall clock at admission, so approximately — not exactly —
  /// 0 when the admission window is unlimited; do not test it with == 0.
  double admit_seconds = 0;
};

/// Aggregate outcome of a batch run.
struct BatchResult {
  std::vector<BatchQueryResult> queries;  // input order
  MatchStats total;                       // summed over queries
  std::vector<WorkerReport> workers;      // size = pool threads
  uint64_t peak_task_bytes = 0;           // across all concurrent queries
  double seconds = 0;                     // batch wall time

  /// Queries fully completed (planned, not timed out, no limit hit) —
  /// including mirrored repeats, whose canonical copy completed.
  uint64_t completed = 0;

  /// Queries that actually executed on the pool.
  uint64_t executed = 0;

  /// Sink-less repeats that skipped execution and mirrored the canonical
  /// copy's counts. Mirrored queries are finished *results* but zero-cost
  /// *work* — keep the two apart when reporting throughput.
  uint64_t mirrored = 0;

  /// Queries whose compiled plan came from the plan cache (i.e. they were
  /// isomorphic to an earlier query of the batch), whether they then
  /// executed or mirrored.
  uint64_t plan_cache_hits = 0;

  /// The subset of plan_cache_hits that matched via the canonical
  /// (isomorphism-invariant) key rather than byte-for-byte structural
  /// equality — i.e. renamed/reordered duplicates.
  uint64_t plan_cache_isomorphic_hits = 0;

  /// Mirrors whose canonical copy resolved non-mirrorably (cancel/timeout)
  /// and that were re-submitted as independent executions.
  uint64_t redispatched = 0;

  /// Distinct plans actually compiled for this batch.
  uint64_t unique_plans = 0;

  /// Batch throughput in *executed* queries per second. Mirrored repeats
  /// are deliberately excluded: they complete at zero execution cost, so
  /// counting them would inflate the number (combine with `mirrored` when
  /// the serving rate including cache hits is wanted).
  double QueriesPerSecond() const {
    return seconds > 0 ? static_cast<double>(executed) / seconds : 0;
  }
};

/// Runs a set of queries against one indexed data hypergraph. This is a
/// thin compatibility facade over the streaming query service
/// (parallel/service.h MatchService): it submits every query (the service
/// plans them, deduplicating repeats through the plan cache), waits for all
/// of them, and maps the outcomes back to input order. The service in turn
/// drives the shared scheduler core (parallel/scheduler.h): all queries run
/// on a single shared work-stealing pool (Section VI.C), layering
/// inter-query parallelism on the intra-query task model, and per-query
/// counts stay exact (each task is tagged with its query context), so
/// `queries[i].stats.embeddings` equals a standalone MatchSequential run of
/// queries[i] — including under the admission window and task quota.
///
/// `sinks`, when non-null, must have one entry per query (entries may be
/// null); Emit calls are serialised per sink. `submit`, when non-null, must
/// have one entry per query and carries the per-query admission parameters
/// (tenant/priority/weight/timeout/limit — the loader's per-query headers
/// land here); its sink field is overridden by `sinks` when both are given.
/// Queries that fail to plan (e.g. empty) get their error in
/// queries[i].status and do not affect the others.
BatchResult RunBatch(const IndexedHypergraph& data,
                     const std::vector<Hypergraph>& queries,
                     const BatchOptions& options = {},
                     const std::vector<EmbeddingSink*>* sinks = nullptr,
                     const std::vector<SubmitOptions>* submit = nullptr);

}  // namespace hgmatch

#endif  // HGMATCH_PARALLEL_BATCH_RUNNER_H_
