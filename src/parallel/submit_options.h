#ifndef HGMATCH_PARALLEL_SUBMIT_OPTIONS_H_
#define HGMATCH_PARALLEL_SUBMIT_OPTIONS_H_

#include <cstdint>
#include <functional>

// Plain-data submission vocabulary shared by the scheduler core
// (parallel/scheduler.h), the streaming service (parallel/service.h) and
// the query-set loader (io/loader.h). Deliberately free of
// scheduler/executor includes so that parsing a query-set file does not
// couple the io layer to the concurrency subsystem.

namespace hgmatch {

class EmbeddingSink;
struct QueryOutcome;

/// Order in which waiting queries are admitted into the pool when the
/// admission window has a free slot.
enum class AdmissionPolicy : uint8_t {
  /// Submission order.
  kFifo,
  /// Highest SubmitOptions::priority first; ties in submission order.
  kPriority,
  /// Weighted fair queueing across tenants: each tenant accrues virtual
  /// time 1/weight per admitted query, and the pending tenant with the
  /// smallest virtual time goes next, so over any busy interval tenant
  /// admission shares converge to the weight ratio. Within a tenant,
  /// submission order.
  kWeightedFair,
};

/// Terminal state of one submitted query. A query has exactly one status;
/// when several causes coincide the most user-actionable one wins
/// (plan-error > rejected > cancelled > timeout > limit > ok).
enum class QueryStatus : uint8_t {
  kOk,         // ran to completion with exact counts
  kTimeout,    // its deadline fired and some of its work was dropped
  kLimit,      // stopped at its embedding limit
  kCancelled,  // Cancel() reached it before completion
  kPlanError,  // never executed: planning failed (service layer only)
  kRejected,   // shed at submission: the waiting queue was at its
               // max_queued_queries bound (retry later)
};

/// Stable display name: "ok", "timeout", "limit", "cancelled", "plan-error",
/// "rejected".
const char* QueryStatusName(QueryStatus status);

/// Per-query submission parameters. Defaults inherit the engine-wide
/// configuration: a default-constructed SubmitOptions runs the query under
/// the pool's ParallelOptions timeout and limit, at tenant 0, priority 0,
/// weight 1 and cost 1, with no sink and no hook.
struct SubmitOptions {
  /// Inherit the engine-wide ParallelOptions::limit.
  static constexpr uint64_t kInheritLimit = ~uint64_t{0};

  /// Fairness group of the query under AdmissionPolicy::kWeightedFair.
  uint32_t tenant_id = 0;

  /// Admission priority under AdmissionPolicy::kPriority (higher = sooner).
  int32_t priority = 0;

  /// Relative share of this query's tenant under kWeightedFair; must be a
  /// finite value > 0 (anything else falls back to 1). A tenant with
  /// weight 3 is admitted ~3x as often as one with weight 1 while both
  /// have queries waiting.
  double weight = 1.0;

  /// Per-query timeout in seconds, measured from admission. Negative =
  /// inherit ParallelOptions::timeout_seconds; 0 = no timeout.
  double timeout_seconds = -1;

  /// Per-query embedding limit; kInheritLimit = inherit
  /// ParallelOptions::limit; 0 = unlimited.
  uint64_t limit = kInheritLimit;

  /// Admission charge of this query under AdmissionPolicy::kWeightedFair,
  /// in abstract work units: its tenant's virtual time advances by
  /// cost/weight when the query is admitted, so expensive queries consume
  /// proportionally more of their tenant's share. Must be finite and > 0
  /// (anything else falls back to 1). The service layer sets this to the
  /// measured task count of the previous run of the same plan (cost-aware
  /// WFQ), and to 1 for first-seen plans.
  double cost = 1.0;

  /// Record an end-to-end QuerySpan for this query: monotonic
  /// submit/admit/first-task/last-task/resolve timestamps surfaced through
  /// QueryOutcome::span (and, over the wire, the OUTCOME trace section
  /// when the peer negotiated kFeatureTrace). Untraced queries carry an
  /// empty span; the always-on latency histograms in the metrics registry
  /// are recorded either way.
  bool trace = false;

  /// Consumer of this query's embeddings; may be null (count only). Emit
  /// calls are serialised per query.
  EmbeddingSink* sink = nullptr;

  /// Completion hook: invoked exactly once when this query's outcome
  /// finalises, whatever the terminal status (ok, timeout, limit,
  /// cancelled, rejected — and, through the service layer, plan-error and
  /// mirrored resolutions). The scheduler reports outcomes through this
  /// hook only; the service additionally stores it in the ticket, where
  /// Ticket::TryGet from inside the hook observes it. Never fired while an
  /// engine lock is held, so the hook may call back into the engine's
  /// read-side API. It runs on whichever thread finalised the
  /// outcome: a pool worker for queries that execute, or the caller of
  /// Submit()/Cancel() for synchronously resolved ones (rejections,
  /// cancelled-while-queued, plan errors) — in the latter case before that
  /// call returns. Keep it fast and non-blocking (it runs on the hot
  /// completion path), and do not submit/cancel/wait from inside it.
  std::function<void(const QueryOutcome&)> completion;
};

}  // namespace hgmatch

#endif  // HGMATCH_PARALLEL_SUBMIT_OPTIONS_H_
