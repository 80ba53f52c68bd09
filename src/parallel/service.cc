#include "parallel/service.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <list>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/canonical.h"
#include "core/matching_order.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace hgmatch {

namespace {

constexpr uint32_t kNotScheduled = 0xffffffffu;

// Service-layer registry handles, resolved once per process (every
// MatchService instance shares them — the metrics describe the process,
// not one service).
struct ServiceMetrics {
  Counter* plan_cache_hits_exact;
  Counter* plan_cache_hits_isomorphic;
  Counter* plan_cache_misses;
  Counter* plan_cache_evictions;
  Counter* mirrored;
  Counter* redispatched;
};

const ServiceMetrics& Metrics() {
  static const ServiceMetrics m = [] {
    MetricsRegistry& reg = MetricsRegistry::Default();
    return ServiceMetrics{
        reg.GetCounter("hgmatch_plan_cache_hits_total", "kind=\"exact\""),
        reg.GetCounter("hgmatch_plan_cache_hits_total", "kind=\"isomorphic\""),
        reg.GetCounter("hgmatch_plan_cache_misses_total"),
        reg.GetCounter("hgmatch_plan_cache_evictions_total"),
        reg.GetCounter("hgmatch_queries_mirrored_total"),
        reg.GetCounter("hgmatch_queries_redispatched_total"),
    };
  }();
  return m;
}

// Whether a canonical outcome is a trustworthy source of mirrored counts:
// a complete run (kOk) or a limit stop at the same limit budget. Anything
// else (timeout, cancelled) carries partial counts that belong only to the
// execution that was interrupted — mirrors of such a canonical re-dispatch
// instead of copying them.
bool Mirrorable(QueryStatus s) {
  return s == QueryStatus::kOk || s == QueryStatus::kLimit;
}

}  // namespace

namespace internal {

// The mutex + condition variable every ticket wait and record resolution
// parks on. Shared-owned: the service holds one reference and every
// QueryRecord pins another, so a Ticket::Wait that is still inside the
// condition wait when its service is destroyed (a catalog unload drains on
// the completion hook, which fires before woken waiters have re-acquired
// the mutex) parks on storage that outlives the service.
struct ResolveGate {
  std::mutex m;
  std::condition_variable cv;
};

// Shared state behind one Ticket. Exactly one of three shapes:
//  * executed:  sched_index valid — the query ran (or runs) on the pool;
//  * mirror:    canonical set — a sink-less structural repeat that copies
//               the canonical execution's outcome instead of running. A
//               mirror whose canonical ends with a non-mirrorable outcome
//               (cancelled / timed out) is *re-dispatched*: it detaches,
//               clears `canonical` and becomes an executed record on the
//               shared compiled plan, with its own budgets and hooks;
//  * failed:    plan_status not-ok — failed planning or submitted after
//               Shutdown; resolved immediately.
// Resolution is eager and completion-driven: the scheduler's per-query
// completion hook, its only outcome channel, resolves an executed record
// the moment its query finalises (mirrors resolve in the same step as
// their canonical), after which the record is the slim, self-contained
// outcome store. The scheduler keeps nothing of a finished query, and a
// plan-cache-off submission's compiled plan is retired and freed at
// resolution, so a record costs the scheduler nothing once its query
// finished, whether or not anyone ever retrieves the outcome.
struct QueryRecord {
  ServiceImpl* service = nullptr;
  // Pin on the service's resolve gate; lets Ticket reads outlive the
  // service (see ResolveGate).
  std::shared_ptr<ResolveGate> gate;
  uint64_t id = 0;
  Status plan_status;
  uint32_t sched_index = kNotScheduled;
  std::shared_ptr<QueryRecord> canonical;
  Hypergraph owned_query;  // keeps the plan's query alive for owning submits
  // Plan-cache-off submissions own their plan; retired + freed at
  // resolution (cached plans instead live in ServiceImpl::plans_ for the
  // service lifetime, bounded by distinct query structures).
  std::unique_ptr<QueryPlan> owned_plan;
  // Cost tracker of this record's plan-cache entry: latest measured task
  // count of a completed run of the plan (0 = not yet measured). Written at
  // resolution, read at later submissions for the weighted-fair charge.
  std::shared_ptr<std::atomic<uint64_t>> plan_cost;
  // In-flight-submission refcount of this record's plan-cache entry (the
  // LRU eviction guard); decremented exactly once, at resolution. Null
  // for cache-off submissions.
  std::shared_ptr<std::atomic<uint32_t>> plan_live;

  // Mirror re-dispatch state, set at attachment (under mutex_ +
  // resolve_mutex_) and consumed by RedispatchMirrors when the canonical
  // ends with a non-mirrorable outcome: the user's own SubmitOptions
  // (budgets, tenant, priority, trace — the sink is null by the mirror
  // precondition, the completion hook lives in `completion` above), the
  // shared compiled plan (kept alive by the plan_live pin until this
  // record resolves), and the plan-cache key so the first accepted
  // re-dispatch can take over as the structure's canonical.
  SubmitOptions mirror_options;
  const QueryPlan* mirror_plan = nullptr;
  std::string cache_key;
  // True from the moment ResolveLocked hands this mirror to the
  // re-dispatch list until its pool submission attaches: a Cancel() in
  // that window has no scheduler index to target, so it latches
  // cancel_pending and the attachment cancels on the way out. Both
  // guarded by resolve_mutex_.
  bool redispatching = false;
  bool cancel_pending = false;

  // Per-submit completion hook (SubmitOptions::completion); moved into the
  // fire list when the record resolves, which is what makes exactly-once
  // structural — a record resolves once, and the hook can only be taken
  // once. Guarded by resolve_mutex_.
  std::function<void(const QueryOutcome&)> completion;
  // Unresolved sink-less repeats attached to this (canonical) record; they
  // resolve in the same step as the canonical, so mirror tickets and their
  // completion hooks never wait on anything but the one real execution.
  // Guarded by resolve_mutex_.
  std::vector<std::shared_ptr<QueryRecord>> mirrors;

  std::atomic<bool> resolved{false};
  QueryOutcome outcome;  // valid once `resolved`
};

class ServiceImpl {
 public:
  ServiceImpl(const IndexedHypergraph& data, const ServiceOptions& options)
      : data_(data),
        options_(options),
        private_pool_(std::make_unique<Scheduler>(ToSchedulerOptions(options))),
        sched_(private_pool_.get()),
        num_threads_(sched_->num_threads()) {}

  // Executes on `pool`'s (already running) workers, carrying data_ per
  // submission. The pool outlives this service.
  ServiceImpl(const IndexedHypergraph& data, Scheduler& pool,
              const ServiceOptions& options)
      : data_(data),
        options_(options),
        sched_(&pool),
        num_threads_(pool.num_threads()) {}

  ~ServiceImpl() { Shutdown(); }

  Ticket Submit(Hypergraph query, const SubmitOptions& so) {
    Admission one{std::make_shared<QueryRecord>(), nullptr, &so};
    one.rec->owned_query = std::move(query);
    Admit({&one, 1});
    return Ticket(std::move(one.rec));
  }

  Ticket SubmitBorrowed(const Hypergraph& query, const SubmitOptions& so) {
    Admission one{std::make_shared<QueryRecord>(), &query, &so};
    Admit({&one, 1});
    return Ticket(std::move(one.rec));
  }

  std::vector<Ticket> SubmitBatch(std::vector<BatchSubmission> batch) {
    std::vector<Admission> admissions;
    admissions.reserve(batch.size());
    for (BatchSubmission& b : batch) {
      admissions.push_back({std::make_shared<QueryRecord>(), nullptr,
                            &b.options});
      admissions.back().rec->owned_query = std::move(b.query);
    }
    Admit(admissions);
    std::vector<Ticket> tickets;
    tickets.reserve(admissions.size());
    for (Admission& a : admissions) tickets.push_back(Ticket(std::move(a.rec)));
    return tickets;
  }

  // Every record resolves through a completion hook, so waiting for the
  // records is enough; the pool may also run other services' queries.
  void Drain() { WaitRecordsResolved(); }

  // Blocks until every record submitted so far has resolved. The
  // completion hook of the very last query may still be mid-flight on a
  // worker when the pool goes idle; a drained service promises every
  // ticket *resolved*, so wait out the specific records still unresolved
  // at this point (a global count would not do: a submission racing in
  // behind us and resolving synchronously could stand in for the
  // straggler we are waiting for).
  void WaitRecordsResolved() {
    std::vector<std::shared_ptr<QueryRecord>> pending;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& rec : records_) {
        if (!rec->resolved.load(std::memory_order_acquire)) {
          pending.push_back(rec);
        }
      }
    }
    std::unique_lock<std::mutex> lock(resolve_mutex_);
    for (const auto& rec : pending) {
      resolve_cv_.wait(lock, [&rec] {
        return rec->resolved.load(std::memory_order_acquire);
      });
    }
  }

  ServiceReport Shutdown() {
    std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
    if (shut_down_.load(std::memory_order_acquire)) return report_;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sealed_ = true;
    }
    // Wait for this service's own records (every one resolves through a
    // completion hook, mirrors re-dispatched meanwhile included), then for
    // in-flight hook deliveries and cancels to leave the building, so the
    // pool can stop and the service be destroyed under none of them.
    WaitRecordsResolved();
    {
      std::unique_lock<std::mutex> lock(resolve_mutex_);
      resolve_cv_.wait(lock, [this] { return hook_busy_ == 0; });
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Cached plans die with this service while a shared pool's workers
      // live on; retire them so the per-worker expander state keyed by
      // their uids is dropped instead of accreting across service
      // lifetimes.
      for (auto& [key, entry] : cache_) sched_->RetirePlan(entry.plan->uid);
      report_.seconds = wall_.ElapsedSeconds();
      FillReportCountersLocked();
      if (private_pool_ != nullptr) {
        report_.workers = private_pool_->WorkerReports();
        report_.peak_task_bytes = private_pool_->TakePeakTaskBytes();
        private_pool_.reset();
      }
      sched_ = nullptr;  // Gauges() reads no pool from here on
    }
    shut_down_.store(true, std::memory_order_release);
    return report_;
  }

  uint32_t num_threads() const { return num_threads_; }

  ServiceGauges Gauges() {
    ServiceGauges g;
    g.finished = finished_.load(std::memory_order_acquire);
    g.rejected = rejected_.load(std::memory_order_acquire);
    std::lock_guard<std::mutex> lock(mutex_);
    if (sched_ != nullptr) g.live_contexts = sched_->LiveContexts();
    return g;
  }

  // ------------------------------------------------- ticket entry points --

  // Wait/WaitFor/TryGet live on Ticket itself: the read side parks on the
  // record's gate pin, never on the service, so a ticket held across its
  // service's destruction (catalog unload racing a waiter) stays safe.

  bool Cancel(const std::shared_ptr<QueryRecord>& rec) {
    if (rec->resolved.load(std::memory_order_acquire)) return false;
    std::vector<FiredCompletion> fire;
    {
      // Classify under resolve_mutex_: re-dispatch moves a record from
      // mirror to executed concurrently, so an unlocked canonical check
      // could route the cancel at a stale shape.
      std::lock_guard<std::mutex> lock(resolve_mutex_);
      if (rec->resolved.load(std::memory_order_acquire)) return false;
      if (rec->canonical != nullptr) {
        // Mirror: detach and resolve as cancelled, leaving the canonical
        // execution and any sibling mirrors untouched — a cancel aimed at
        // the mirror never propagates to the shared execution, and a
        // canonical that already ended abnormally cannot drag the mirror
        // with it (such a mirror was about to re-dispatch; this cancel
        // wins and the re-dispatch skips it).
        QueryOutcome out;
        out.status = QueryStatus::kCancelled;
        ResolveLocked(rec, out, &fire, nullptr);
      } else if (rec->redispatching) {
        // Detached from its canonical but its pool submission has not
        // attached yet — nothing to target; the attachment observes the
        // flag and cancels on the way out.
        rec->cancel_pending = true;
        return true;
      } else {
        // Claimed while the record is unresolved, so Shutdown cannot stop
        // the pool under the call below.
        ++hook_busy_;
      }
    }
    if (!fire.empty()) {  // a mirror, resolved above
      resolve_cv_.notify_all();
      FireCompletions(&fire);
      return true;
    }
    // Resolution arrives through the scheduler's completion hook —
    // synchronously inside this call for queries cancelled while queued,
    // at the next task boundary for in-flight ones. A query that already
    // finished reports false here.
    const bool cancelled = sched_->Cancel(rec->sched_index);
    std::lock_guard<std::mutex> lock(resolve_mutex_);
    --hook_busy_;
    resolve_cv_.notify_all();
    return cancelled;
  }

 private:
  // Callers hold mutex_.
  void FillReportCountersLocked() {
    report_.submitted = submitted_;
    report_.executed = executed_;
    report_.mirrored = mirrored_;
    report_.redispatched = redispatched_;
    report_.rejected = rejected_.load(std::memory_order_acquire);
    report_.plan_errors = plan_errors_;
    report_.plan_cache_hits = plan_cache_hits_;
    report_.plan_cache_isomorphic_hits = plan_cache_iso_hits_;
    report_.unique_plans = unique_plans_;
  }

  // One resolved record whose user-visible hooks are ready to fire once
  // every lock is released. The shared_ptr keeps the outcome alive
  // independent of the record registry.
  struct FiredCompletion {
    std::shared_ptr<QueryRecord> rec;
    std::function<void(const QueryOutcome&)> fn;
  };

  // Invokes the harvested per-submit hooks. Callers must hold no service
  // or scheduler lock — hooks may re-enter the read-side API
  // (Ticket::TryGet).
  void FireCompletions(std::vector<FiredCompletion>* fire) {
    for (FiredCompletion& f : *fire) {
      if (f.fn) f.fn(f.rec->outcome);
    }
    fire->clear();
  }

  // The scheduler-level completion hook attached to every pool submission,
  // and the heart of completion-driven delivery: the moment the scheduler
  // finalises the query, the record resolves (mirrors resolved along), the
  // submission counts in Gauges().finished, every Ticket::Wait is woken,
  // and the user hooks fire — all on the thread that finalised the
  // outcome.
  void OnSchedulerComplete(const std::shared_ptr<QueryRecord>& rec,
                           const QueryOutcome& out) {
    std::vector<FiredCompletion> fire;
    std::vector<std::shared_ptr<QueryRecord>> redispatch;
    {
      std::lock_guard<std::mutex> lock(resolve_mutex_);
      if (!rec->resolved.load(std::memory_order_acquire)) {
        ResolveLocked(rec, out, &fire, &redispatch);
      }
      finished_.fetch_add(1, std::memory_order_release);
      // Claimed in the same critical section that publishes the resolved
      // flag, so a Shutdown observing every record resolved
      // either sees this delivery finished or sees hook_busy_ > 0 — never
      // the gap where it could destroy the service under a live delivery.
      ++hook_busy_;
    }
    DeliverResolutions(&fire, &redispatch);
  }

  // The post-resolution delivery tail of a pool-worker completion hook:
  // wake waiters, fire user hooks, re-dispatch any mirrors the resolution
  // orphaned, then drop the delivery claim taken under resolve_mutex_.
  // Re-dispatch happens under the claim: the orphaned mirrors are
  // unresolved records, so Shutdown cannot pass
  // WaitRecordsResolved until they resolve, and holding the claim keeps
  // the service alive for the re-dispatch submissions themselves. The
  // final notify happens *under* the lock and is the thread's last touch
  // of the service, so a Shutdown waiter that wakes on it can safely let
  // the service be destroyed.
  void DeliverResolutions(std::vector<FiredCompletion>* fire,
                          std::vector<std::shared_ptr<QueryRecord>>*
                              redispatch) {
    resolve_cv_.notify_all();
    FireCompletions(fire);
    if (redispatch != nullptr) RedispatchMirrors(redispatch);
    std::lock_guard<std::mutex> lock(resolve_mutex_);
    --hook_busy_;
    resolve_cv_.notify_all();
  }

  // Stores `out` as the record's final outcome, retires and frees the
  // compiled plan of a plan-cache-off submission (it served exactly this
  // record), feeds the measured task count back into the plan-cache cost
  // tracker (the weighted-fair charge), settles attached
  // mirrors, and harvests the completion hooks into *fire for lock-free
  // delivery by the caller. Mirrors resolve from the same outcome when it
  // is mirrorable (ok / limit); otherwise they are handed to *redispatch
  // for independent re-execution once every lock is dropped. Only the
  // scheduler's completion hook resolves records that can carry mirrors
  // (pool executions), and it passes the list; every other caller passes
  // null. Callers hold resolve_mutex_, guarantee !rec->resolved, and
  // notify resolve_cv_ after releasing the lock. Recursion depth is one:
  // mirrors have no mirrors.
  void ResolveLocked(const std::shared_ptr<QueryRecord>& rec,
                     const QueryOutcome& out,
                     std::vector<FiredCompletion>* fire,
                     std::vector<std::shared_ptr<QueryRecord>>* redispatch) {
    rec->outcome = out;
    rec->outcome.mirrored = rec->canonical != nullptr;
    if (rec->outcome.span.enabled) {
      // The record resolves exactly once, so this stamp is exactly-once
      // per query — mirrors get their own stamp when they resolve off the
      // canonical's outcome a moment later.
      rec->outcome.span.resolve_seconds = MonotonicSeconds();
    }
    if (rec->plan_cost != nullptr && rec->canonical == nullptr &&
        out.status == QueryStatus::kOk) {
      // Only complete runs measure the plan's true cost; partial runs
      // (timeout/cancel/limit) undercount and would skew later charges.
      rec->plan_cost->store(std::max<uint64_t>(1, out.stats.expansions),
                            std::memory_order_relaxed);
    }
    if (rec->plan_live != nullptr) {
      // Unpins the plan-cache entry for LRU eviction; exactly once per
      // record (resolution is exactly-once).
      rec->plan_live->fetch_sub(1, std::memory_order_acq_rel);
      rec->plan_live.reset();
    }
    if (rec->outcome.status == QueryStatus::kRejected &&
        rec->canonical == nullptr) {
      rejected_.fetch_add(1, std::memory_order_acq_rel);
    }
    rec->resolved.store(true, std::memory_order_release);
    if (rec->owned_plan != nullptr) {
      sched_->RetirePlan(rec->owned_plan->uid);
      rec->owned_plan.reset();
      rec->owned_query = Hypergraph();
    }
    fire->push_back({rec, std::move(rec->completion)});
    const bool mirrorable = Mirrorable(rec->outcome.status);
    assert(rec->mirrors.empty() || redispatch != nullptr);
    for (std::shared_ptr<QueryRecord>& m : rec->mirrors) {
      if (m->resolved.load(std::memory_order_acquire)) continue;
      if (mirrorable) {
        ResolveLocked(m, rec->outcome, fire, nullptr);
      } else {
        m->redispatching = true;
        redispatch->push_back(m);
      }
    }
    rec->mirrors.clear();
  }

  // Publishes the scheduler index of a just-submitted record, the target
  // of Ticket::Cancel.
  void AttachSchedIndex(const std::shared_ptr<QueryRecord>& rec,
                        uint32_t index) {
    bool cancel = false;
    {
      std::lock_guard<std::mutex> lock(resolve_mutex_);
      rec->sched_index = index;
      // A re-dispatched mirror is targetable again from here on; honour a
      // Cancel() that arrived while it had no scheduler index.
      rec->redispatching = false;
      cancel = rec->cancel_pending;
    }
    if (cancel) sched_->Cancel(index);
  }

  // Resolves a record outside the scheduler path (plan errors, sealed
  // submissions, mirrors of already-finished canonicals). Callers hold no
  // lock beyond mutex_ and fire + notify after releasing it. Such records
  // are always freshly created in the same Submit call, so they carry no
  // mirrors and need no re-dispatch list.
  void ResolveNow(const std::shared_ptr<QueryRecord>& rec,
                  const QueryOutcome& out,
                  std::vector<FiredCompletion>* fire) {
    std::lock_guard<std::mutex> lock(resolve_mutex_);
    if (!rec->resolved.load(std::memory_order_acquire)) {
      ResolveLocked(rec, out, fire, nullptr);
    }
  }

  // Re-dispatches mirrors orphaned by a canonical that ended with a
  // non-mirrorable outcome (cancelled / timed out): each becomes an
  // independent execution on the shared compiled plan it pinned at
  // attachment, keeping its own budgets, tenant WFQ charge, completion
  // hook and trace options. The first accepted re-dispatch takes over as
  // the structure's canonical, so mirroring resumes without waiting for
  // an external repeat. Callers hold NO lock (this takes mutex_, and a
  // queue-shed submission fires completion hooks synchronously inside
  // SubmitToPool). A mirror cancelled in the hand-off window is skipped.
  // A sealed service re-dispatches too: the pool accepts submissions
  // until it is destroyed, and Shutdown waits for these records.
  void RedispatchMirrors(std::vector<std::shared_ptr<QueryRecord>>* list) {
    if (list->empty()) return;
    std::vector<FiredCompletion> fire;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::shared_ptr<QueryRecord>& m : *list) {
        {
          std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
          if (m->resolved.load(std::memory_order_acquire)) continue;
          m->canonical.reset();
        }
        // From here the record is an executed submission: move its count
        // from mirrored to executed/rejected (CountScheduledLocked and
        // the shed path below keep the submitted = executed + mirrored +
        // rejected + plan_errors ledger exact).
        --mirrored_;
        ++redispatched_;
        Metrics().redispatched->Add();
        SubmitToPool(m, m->mirror_plan, m->mirror_options, m->plan_cost);
        const bool accepted = CountScheduledLocked(m.get());
        auto cit = cache_.find(m->cache_key);
        if (accepted && cit != cache_.end()) {
          CacheEntry& entry = cit->second;
          const bool bad_canonical =
              entry.canonical->resolved.load(std::memory_order_acquire) &&
              !Mirrorable(entry.canonical->outcome.status);
          // A re-dispatch that was itself cancelled synchronously on the
          // way in (cancel_pending) is no better a canonical than the one
          // it replaces.
          const bool usable =
              !m->resolved.load(std::memory_order_acquire) ||
              Mirrorable(m->outcome.status);
          if (bad_canonical && usable) entry.canonical = m;
        }
      }
    }
    if (!fire.empty()) {
      resolve_cv_.notify_all();
      FireCompletions(&fire);
    }
    list->clear();
  }

  double EffectiveTimeout(const SubmitOptions& so) const {
    return so.timeout_seconds < 0 ? options_.parallel.timeout_seconds
                                  : so.timeout_seconds;
  }

  uint64_t EffectiveLimit(const SubmitOptions& so) const {
    return so.limit == SubmitOptions::kInheritLimit ? options_.parallel.limit
                                                    : so.limit;
  }

  struct CacheEntry {
    const QueryPlan* plan = nullptr;
    // The cached plan itself (the entry is its owner, so evicting the
    // entry frees it).
    std::unique_ptr<QueryPlan> owned;
    // Exact structural key of the query the plan was compiled from. A hit
    // whose own exact key differs is an *isomorphic* hit (renamed
    // vertices / reordered hyperedges): counts transfer unchanged, but
    // embedding tuples would follow this query's edge numbering, so
    // sink-ful isomorphic repeats compile their own plan.
    std::string exact_key;
    // Source of mirrored outcomes; replaced when the original ends
    // unusably and a later accepted run takes over.
    std::shared_ptr<QueryRecord> canonical;
    // The record whose owned_query the cached plan references. Never
    // replaced: it pins the query hypergraph for as long as the plan can
    // be submitted, even after `canonical` moves on.
    std::shared_ptr<QueryRecord> plan_owner;
    // Latest measured task count of a completed run of this plan (0 = not
    // yet measured); the weighted-fair charge of later submissions.
    std::shared_ptr<std::atomic<uint64_t>> cost;
    // In-flight submissions of this plan (eviction guard: only idle —
    // live == 0 — entries may be evicted). Atomic because records
    // decrement it at resolution under resolve_mutex_, while the cache
    // reads it under mutex_.
    std::shared_ptr<std::atomic<uint32_t>> live;
    // Position in lru_ (most-recent first); spliced to the front on every
    // hit. Guarded by mutex_.
    std::list<std::string>::iterator lru_it;
    double timeout_seconds = 0;  // the canonical's effective budgets: only
    uint64_t limit = 0;          // repeats under equal budgets may mirror
  };

  // The scheduler-bound SubmitOptions of one pool submission: the user's
  // parameters, the weighted-fair charge (this admission costs the plan's
  // last measured task count; first-seen plans keep the flat 1),
  // and the service's internal completion hook in place of the user's —
  // the user hooks fire at service-level resolution, inside that hook.
  SubmitOptions SchedulerSubmit(
      const SubmitOptions& so, const std::shared_ptr<QueryRecord>& rec,
      const std::shared_ptr<std::atomic<uint64_t>>& plan_cost) {
    SubmitOptions effective = so;
    // Resolve budget inheritance against *this service's* defaults: on a
    // shared pool the scheduler's own defaults belong to the pool, not to
    // this service.
    effective.timeout_seconds = EffectiveTimeout(so);
    effective.limit = EffectiveLimit(so);
    if (plan_cost != nullptr &&
        options_.admission == AdmissionPolicy::kWeightedFair) {
      const uint64_t measured = plan_cost->load(std::memory_order_relaxed);
      if (measured > 0) effective.cost = static_cast<double>(measured);
    }
    effective.completion = [this, rec](const QueryOutcome& out) {
      OnSchedulerComplete(rec, out);
    };
    return effective;
  }

  // Hands one record to the pool. Callers hold mutex_.
  void SubmitToPool(const std::shared_ptr<QueryRecord>& rec,
                    const QueryPlan* plan, const SubmitOptions& so,
                    const std::shared_ptr<std::atomic<uint64_t>>& plan_cost) {
    AttachSchedIndex(rec, sched_->Submit(plan, data_,
                                         SchedulerSubmit(so, rec, plan_cost)));
  }

  // One submission on its way in: its record, the query when borrowed
  // (null for owning submits, whose query lives in rec->owned_query) and
  // its options.
  struct Admission {
    std::shared_ptr<QueryRecord> rec;
    const Hypergraph* borrowed;
    const SubmitOptions* options;
  };

  // The one locked submission body, behind Submit, SubmitBorrowed and
  // SubmitBatch: one lock acquisition, one record sweep and one wake +
  // hook delivery for all of `batch`, with the per-entry body applied in
  // order — so ids, cache/mirror behaviour and hook ordering match one
  // Submit() per entry.
  void Admit(std::span<Admission> batch) {
    for (Admission& a : batch) {
      a.rec->service = this;
      a.rec->gate = gate_;
      a.rec->completion = a.options->completion;
    }
    std::vector<FiredCompletion> fire;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      SweepResolvedRecordsLocked();
      for (Admission& a : batch) {
        const std::shared_ptr<QueryRecord>& rec = a.rec;
        rec->id = submitted_++;
        if (sealed_) {
          rec->plan_status = Status::InvalidArgument("service is shut down");
          ++plan_errors_;
          QueryOutcome out;
          out.status = QueryStatus::kPlanError;
          ResolveNow(rec, out, &fire);
          records_.push_back(rec);
        } else {
          SubmitOpenLocked(
              rec, a.borrowed != nullptr ? *a.borrowed : rec->owned_query,
              *a.options, &fire);
        }
      }
    }
    // Synchronously resolved submissions (rejections, plan errors, mirrors
    // of finished canonicals) deliver their hooks before Submit returns;
    // hooks of executed queries fire from the pool when they finish.
    if (!fire.empty()) {
      resolve_cv_.notify_all();
      FireCompletions(&fire);
    }
  }

  // The not-sealed per-entry body of Admit. Callers hold mutex_.
  void SubmitOpenLocked(const std::shared_ptr<QueryRecord>& rec,
                        const Hypergraph& query, const SubmitOptions& so,
                        std::vector<FiredCompletion>* fire) {
    std::string key;
    std::string exact_key;
    // A sink-ful isomorphic (non-exact) hit: the cached plan's embedding
    // tuples follow its own query's edge numbering, so this submission
    // compiles a private plan below instead of reusing it — and must not
    // insert it, the key is already taken.
    bool uncacheable_hit = false;
    if (options_.plan_cache) {
      CanonicalKey ck = CanonicalQueryKey(query);
      key = std::move(ck.key);
      exact_key = std::move(ck.exact);
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        CacheEntry& entry = it->second;
        const bool exact_hit = entry.exact_key == exact_key;
        if (so.sink != nullptr && !exact_hit) {
          uncacheable_hit = true;
        } else {
          ++plan_cache_hits_;
          if (exact_hit) {
            Metrics().plan_cache_hits_exact->Add();
          } else {
            ++plan_cache_iso_hits_;
            Metrics().plan_cache_hits_isomorphic->Add();
          }
          if (options_.plan_cache_capacity > 0) {
            lru_.splice(lru_.begin(), lru_, entry.lru_it);
          }
          const bool same_budgets =
              EffectiveTimeout(so) == entry.timeout_seconds &&
              EffectiveLimit(so) == entry.limit;
          if (so.sink == nullptr && same_budgets) {
            // Mirror candidate: decided under resolve_mutex_ so the
            // canonical's resolution cannot slip between the check and the
            // attachment. Counts are isomorphism-invariant, so isomorphic
            // repeats mirror exactly like exact ones.
            bool handled = false;
            {
              std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
              if (!entry.canonical->resolved.load(
                      std::memory_order_acquire)) {
                // Attach to the running canonical. The mirror pins the
                // cache entry and remembers the shared plan plus its own
                // SubmitOptions: if the canonical ends cancelled or timed
                // out, the mirror re-dispatches as an independent
                // execution instead of inheriting that fate.
                rec->canonical = entry.canonical;
                rec->mirror_plan = entry.plan;
                rec->mirror_options = so;
                rec->mirror_options.completion = nullptr;
                rec->cache_key = key;
                rec->plan_cost = entry.cost;
                rec->plan_live = entry.live;
                entry.live->fetch_add(1, std::memory_order_acq_rel);
                entry.canonical->mirrors.push_back(rec);
                handled = true;
              } else if (Mirrorable(entry.canonical->outcome.status)) {
                // Already finished with trustworthy counts: resolve the
                // mirror right here, from the stored outcome.
                rec->canonical = entry.canonical;
                if (!rec->resolved.load(std::memory_order_acquire)) {
                  ResolveLocked(rec, entry.canonical->outcome, fire,
                                nullptr);
                }
                handled = true;
              }
              // else: the canonical ended abnormally — fall through and
              // re-execute on the shared plan.
            }
            if (handled) {
              ++mirrored_;
              Metrics().mirrored->Add();
              records_.push_back(rec);
              return;
            }
          }
          // Re-execute on the shared plan (sink-ful repeat, different
          // budgets, or a canonical that ended abnormally).
          rec->plan_cost = entry.cost;
          if (entry.live != nullptr) {
            // Pin before the pool can race an eviction pass; unpinned
            // once, at resolution.
            rec->plan_live = entry.live;
            entry.live->fetch_add(1, std::memory_order_acq_rel);
          }
          SubmitToPool(rec, entry.plan, so, entry.cost);
          const bool bad_canonical =
              entry.canonical->resolved.load(std::memory_order_acquire) &&
              !Mirrorable(entry.canonical->outcome.status);
          if (CountScheduledLocked(rec.get()) && bad_canonical &&
              same_budgets) {
            // The cached canonical ended unusably (rejected/cancelled/
            // timeout) so repeats stopped mirroring; this accepted,
            // same-budget execution becomes the new canonical, restoring
            // mirroring for the structure once it completes.
            entry.canonical = rec;
          }
          records_.push_back(rec);
          return;
        }
      }
    }

    if (options_.plan_cache) Metrics().plan_cache_misses->Add();
    Result<QueryPlan> plan = BuildQueryPlan(query, data_);
    if (!plan.ok()) {
      rec->plan_status = plan.status();
      ++plan_errors_;
      QueryOutcome out;
      out.status = QueryStatus::kPlanError;
      ResolveNow(rec, out, fire);
      records_.push_back(rec);
      return;
    }
    auto compiled_owner = std::make_unique<QueryPlan>(std::move(plan).value());
    const QueryPlan* compiled = compiled_owner.get();
    ++unique_plans_;
    const bool cacheable = options_.plan_cache && !uncacheable_hit;
    // Everything the completion hook's resolution path reads must be in
    // place before Submit hands the record to the pool — a fast query can
    // finalise before this thread regains control.
    auto cost =
        cacheable ? std::make_shared<std::atomic<uint64_t>>(0) : nullptr;
    auto live =
        cacheable ? std::make_shared<std::atomic<uint32_t>>(1) : nullptr;
    rec->plan_cost = cost;
    rec->plan_live = live;
    SubmitToPool(rec, compiled, so, nullptr);
    const bool accepted = CountScheduledLocked(rec.get());
    if (cacheable && accepted) {
      CacheEntry e;
      e.plan = compiled;
      e.owned = std::move(compiled_owner);
      e.exact_key = std::move(exact_key);
      e.canonical = rec;
      e.plan_owner = rec;
      e.cost = std::move(cost);
      e.live = std::move(live);
      e.timeout_seconds = EffectiveTimeout(so);
      e.limit = EffectiveLimit(so);
      if (options_.plan_cache_capacity > 0) {
        lru_.push_front(key);
        e.lru_it = lru_.begin();
      }
      cache_.emplace(std::move(key), std::move(e));
      EvictIdlePlansLocked();
    } else {
      // Without the cache — or when this submission was shed by the queue
      // bound (a rejected canonical would poison the structure's cache
      // entry: repeats could never mirror again) — the plan serves exactly
      // this record; it is retired + freed at resolution (bounded
      // retention for cache-off services).
      {
        std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
        if (!rec->resolved.load(std::memory_order_acquire)) {
          rec->owned_plan = std::move(compiled_owner);
        } else {
          // Resolved synchronously inside Submit (shed by the queue
          // bound): the record has already resolved, so retire the plan
          // right here instead of parking it on the record.
          sched_->RetirePlan(compiled_owner->uid);
          compiled_owner.reset();
        }
      }
    }
    records_.push_back(rec);
  }

  // Walks the LRU list cold-end-first, evicting idle (no in-flight
  // submission) entries until the cache is back under
  // plan_cache_capacity; entries pinned by a live submission are skipped,
  // so the cache transiently overshoots rather than evict a plan the pool
  // is executing. Callers hold mutex_. (Taking the scheduler's internal
  // lock via RetirePlan under mutex_ alone is safe: the scheduler never
  // calls into the service while holding its own lock.)
  void EvictIdlePlansLocked() {
    const size_t cap = options_.plan_cache_capacity;
    if (cap == 0) return;
    auto it = lru_.end();
    while (cache_.size() > cap && it != lru_.begin()) {
      --it;
      auto cit = cache_.find(*it);
      if (cit->second.live->load(std::memory_order_acquire) != 0) continue;
      sched_->RetirePlan(cit->second.plan->uid);
      Metrics().plan_cache_evictions->Add();
      // erase returns the position after the erased element; the next
      // pass's --it lands on the element before it, so the walk keeps
      // moving frontward without revisiting anything.
      it = lru_.erase(it);
      cache_.erase(cit);
    }
  }

  // A submission shed by the queue-depth bound resolves synchronously
  // inside scheduler_.Submit (through the completion hook); classify it as
  // rejected rather than executed (report semantics: `executed` = queries
  // that actually ran). Returns whether the submission was accepted onto
  // the pool. Callers hold mutex_.
  bool CountScheduledLocked(QueryRecord* rec) {
    if (rec->resolved.load(std::memory_order_acquire) &&
        rec->outcome.status == QueryStatus::kRejected) {
      return false;
    }
    ++executed_;
    return true;
  }

  // Opportunistic GC for long-lived services: a resolved record is a pure
  // read through whatever tickets still hold it and is never needed by
  // Shutdown's resolve-all loop, so it can leave the registry (the
  // shared_ptr keeps live tickets valid, and cache canonicals stay
  // reachable through cache_ / their mirrors). Amortised O(1): sweep only
  // when the registry doubled since the last sweep. Callers hold mutex_.
  void SweepResolvedRecordsLocked() {
    if (records_.size() < 64 || records_.size() < 2 * last_sweep_size_) {
      return;
    }
    std::erase_if(records_, [](const std::shared_ptr<QueryRecord>& rec) {
      return rec->resolved.load(std::memory_order_acquire);
    });
    last_sweep_size_ = records_.size();
  }

  const IndexedHypergraph& data_;
  const ServiceOptions options_;
  // The pool sched_ points at: private_pool_ for a service built without
  // one, else a shared pool that outlives this service. Shutdown() stops
  // the private pool and clears sched_ under mutex_.
  std::unique_ptr<Scheduler> private_pool_;
  Scheduler* sched_ = nullptr;
  const uint32_t num_threads_;
  Timer wall_;  // construction -> Shutdown (report seconds)

  std::mutex mutex_;  // cache, records, counters
  std::unordered_map<std::string, CacheEntry> cache_;
  // Cache keys, most-recently-used first; maintained (and non-empty) only
  // when plan_cache_capacity > 0. Guarded by mutex_.
  std::list<std::string> lru_;
  std::vector<std::shared_ptr<QueryRecord>> records_;
  uint64_t submitted_ = 0;
  uint64_t executed_ = 0;
  uint64_t mirrored_ = 0;
  uint64_t redispatched_ = 0;  // mirrors re-executed after an abnormal
                               // canonical (also counted in executed_)
  uint64_t plan_errors_ = 0;
  uint64_t plan_cache_hits_ = 0;
  uint64_t plan_cache_iso_hits_ = 0;  // hits whose exact key differed
  uint64_t unique_plans_ = 0;  // plans compiled (cached or record-owned)
  size_t last_sweep_size_ = 0;
  bool sealed_ = false;

  // Lock order: mutex_ before resolve_mutex_; scheduler-internal locks are
  // only ever taken *under* resolve_mutex_ (RetirePlan),
  // never the other way around — the scheduler fires completion hooks with
  // no lock held.
  // Record resolution + mirror lists park on the shared gate (see
  // ResolveGate); the references keep the service-internal code reading
  // as plain members.
  const std::shared_ptr<ResolveGate> gate_ = std::make_shared<ResolveGate>();
  std::mutex& resolve_mutex_ = gate_->m;
  std::condition_variable& resolve_cv_ = gate_->cv;  // armed by the hook
  std::atomic<uint64_t> finished_{0};  // pool submissions whose hook ran
  // Pool-worker completion deliveries (notify + user hooks) and Cancel()
  // calls into the pool currently in flight; Shutdown waits for 0 so
  // stopping the pool or destroying the service afterwards cannot pull
  // state from under either. Guarded by resolve_mutex_.
  uint64_t hook_busy_ = 0;
  // Service-level rejection count (this service's own shed submissions —
  // the scheduler's pool-wide counter would conflate siblings on a
  // shared pool).
  std::atomic<uint64_t> rejected_{0};

  std::mutex shutdown_mutex_;
  std::atomic<bool> shut_down_{false};
  ServiceReport report_;
};

}  // namespace internal

// ------------------------------------------------------------------ Ticket --

uint64_t Ticket::id() const { return rec_->id; }

const Status& Ticket::status() const { return rec_->plan_status; }

const QueryOutcome& Ticket::Wait() const {
  internal::QueryRecord* rec = rec_.get();
  if (rec->resolved.load(std::memory_order_acquire)) return rec->outcome;
  // Park on the record's gate pin, not the service: the service can be
  // destroyed (catalog unload drains on the completion hook) while a woken
  // waiter is still inside the condition wait, and the gate's shared
  // ownership is what keeps that legal.
  const std::shared_ptr<internal::ResolveGate> gate = rec->gate;
  std::unique_lock<std::mutex> lock(gate->m);
  gate->cv.wait(lock, [rec] {
    return rec->resolved.load(std::memory_order_acquire);
  });
  return rec->outcome;
}

const QueryOutcome* Ticket::Wait(double timeout_seconds) const {
  internal::QueryRecord* rec = rec_.get();
  if (rec->resolved.load(std::memory_order_acquire)) return &rec->outcome;
  const std::shared_ptr<internal::ResolveGate> gate = rec->gate;
  std::unique_lock<std::mutex> lock(gate->m);
  gate->cv.wait_for(
      lock,
      std::chrono::duration<double>(timeout_seconds > 0 ? timeout_seconds : 0),
      [rec] { return rec->resolved.load(std::memory_order_acquire); });
  return rec->resolved.load(std::memory_order_acquire) ? &rec->outcome
                                                       : nullptr;
}

const QueryOutcome* Ticket::TryGet() const {
  // Resolution is eager (completion hook), so the resolved flag is the
  // whole truth — no scheduler consultation, no lock, no service touch.
  return rec_->resolved.load(std::memory_order_acquire) ? &rec_->outcome
                                                        : nullptr;
}

bool Ticket::Cancel() const {
  if (rec_->resolved.load(std::memory_order_acquire)) return false;
  return rec_->service->Cancel(rec_);
}

// ------------------------------------------------------------ MatchService --

SchedulerOptions ToSchedulerOptions(const ServiceOptions& o) {
  SchedulerOptions so;
  so.parallel = o.parallel;
  so.admission = o.admission;
  so.max_inflight_queries = o.max_inflight_queries;
  so.max_queued_queries = o.max_queued_queries;
  so.batch_timeout_seconds = o.run_timeout_seconds;
  return so;
}

MatchService::MatchService(const IndexedHypergraph& data,
                           const ServiceOptions& options)
    : impl_(std::make_unique<internal::ServiceImpl>(data, options)) {}

MatchService::MatchService(const IndexedHypergraph& data, Scheduler& pool,
                           const ServiceOptions& options)
    : impl_(std::make_unique<internal::ServiceImpl>(data, pool, options)) {}

MatchService::~MatchService() = default;

Ticket MatchService::Submit(Hypergraph query, const SubmitOptions& options) {
  return impl_->Submit(std::move(query), options);
}

Ticket MatchService::SubmitBorrowed(const Hypergraph& query,
                                    const SubmitOptions& options) {
  return impl_->SubmitBorrowed(query, options);
}

std::vector<Ticket> MatchService::SubmitBatch(
    std::vector<BatchSubmission> batch) {
  return impl_->SubmitBatch(std::move(batch));
}

void MatchService::Drain() { impl_->Drain(); }

ServiceReport MatchService::Shutdown() { return impl_->Shutdown(); }

uint32_t MatchService::num_threads() const { return impl_->num_threads(); }

ServiceGauges MatchService::Gauges() { return impl_->Gauges(); }

// ---------------------------------------------------------------- RunBatch --

BatchRun RunBatch(const IndexedHypergraph& data,
                  const std::vector<Hypergraph>& queries,
                  const ServiceOptions& options,
                  const std::vector<SubmitOptions>* submit) {
  MatchService service(data, options);
  BatchRun run;
  run.tickets.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    run.tickets.push_back(service.SubmitBorrowed(
        queries[i], submit != nullptr ? (*submit)[i] : SubmitOptions{}));
  }
  run.report = service.Shutdown();
  return run;
}

}  // namespace hgmatch
