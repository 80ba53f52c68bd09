#include "parallel/scheduler.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/candidates.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/task.h"
#include "parallel/ws_deque.h"
#include "util/rng.h"
#include "util/timer.h"

namespace hgmatch {

const char* QueryStatusName(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kTimeout: return "timeout";
    case QueryStatus::kLimit: return "limit";
    case QueryStatus::kCancelled: return "cancelled";
    case QueryStatus::kPlanError: return "plan-error";
    case QueryStatus::kRejected: return "rejected";
  }
  return "unknown";
}

namespace {

// Cache-line size for the alignment of write-hot shared fields.
constexpr size_t kCacheLine = 64;

// One worker's share of a query's counters, on a cache line of its own.
struct alignas(kCacheLine) StatSlot {
  MatchStats stats;
};

// Shared per-query state. Tasks are tagged with their context (Task::owner),
// so counters, limits and deadlines stay exact per query even while tasks of
// different queries mix in the same deques.
//
// Non-atomic fields written at admission (deadline, admit_seconds, seeded)
// are published to other workers through the structure that carries the
// query's SCAN tasks: the injection queue, whose mutex orders the writes
// before any reader.
//
// Counters go into `slots`, one per worker, each written only by its own
// worker with plain adds once per task (Impl::FlushTaskStats). They are
// exact when the query's last task retires: every slot write happens
// before its worker's release decrement of `pending`, and the acq_rel
// decrement that reads 1 synchronises with all of them. A query that never
// seeds has all-zero slots.
//
// The fields written per task or per embedding (`pending`, `emitted` with
// the sink mutex) and the stop flag read per child each have a cache line
// of their own, away from the read-only fields every worker reads per task.
struct QueryContext {
  uint32_t index = 0;
  const QueryPlan* plan = nullptr;
  // The data graph this query runs against, named by its submission.
  const IndexedHypergraph* data = nullptr;
  std::span<const EdgeId> scan_table;  // first-step signature table
  EmbeddingSink* sink = nullptr;

  // Effective per-query budgets and admission parameters, resolved against
  // the engine-wide defaults at Submit().
  double timeout_seconds = 0;
  uint64_t limit = 0;
  uint32_t tenant_id = 0;
  int32_t priority = 0;
  double weight = 1.0;
  double cost = 1.0;  // WFQ admission charge (SubmitOptions::cost)

  Deadline deadline;         // per-query budget, armed at admission
  double admit_seconds = 0;  // pool start -> admission
  // Written exactly once, by the worker that retires the query's last task
  // (pending can only reach zero once — children are spawned before their
  // parent task is retired).
  double finish_seconds = 0;
  uint64_t admit_index = 0;  // global admission sequence number
  bool seeded = false;
  // True while a policy waiting-queue entry points at this context; such a
  // context must stay allocated until the entry is popped even if the query
  // already resolved (cancelled while waiting). admit_mutex_.
  bool in_pending_queue = false;
  // Shed by the max_queued_queries bound; set before FinishQueryLocked on
  // the rejection path (same thread), read only by FinishQueryLocked.
  bool rejected = false;
  // The outcome is final and its hook queued. A finished context stays
  // allocated only as a corpse (in_pending_queue). admit_mutex_.
  bool finished = false;

  // Span/metric stamps on the process-monotonic clock (obs/trace.h).
  // submit/admit are published to the workers with the same fences as
  // admit_seconds (see the struct comment); first_task is written by the
  // one worker that wins the first_task_claimed exchange and read only
  // after the query's last pending decrement synchronised with that
  // worker's; last_task is written by the single worker that retires the
  // last task. `trace` gates only the span copy into the outcome — the
  // latency histograms are recorded for every query.
  bool trace = false;
  double submit_mono = 0;
  double admit_mono = 0;
  double first_task_mono = 0;
  double last_task_mono = 0;

  // Per-query completion hook (SubmitOptions::completion). Moved out of the
  // context into the deferred-fire list the moment the outcome is
  // assembled, which is what makes the exactly-once guarantee structural:
  // a query finishes once, and the hook can only be taken once.
  std::function<void(const QueryOutcome&)> completion;

  std::vector<StatSlot> slots;  // one per worker, sized at Submit()

  alignas(kCacheLine) std::atomic<int64_t> pending{0};
  alignas(kCacheLine) std::atomic<uint64_t> emitted{0};
  std::mutex sink_mutex;
  alignas(kCacheLine) std::atomic<bool> stop{false};
  // Why two flags instead of a single timed_out: a deadline may fire while
  // the query's final tasks are mid-execution and still complete all their
  // counts. The query is only *reported* timed out when the deadline fired
  // AND some of its work was actually dropped, so exact counts are never
  // mislabelled.
  std::atomic<bool> timeout_fired{false};
  std::atomic<bool> work_dropped{false};
  std::atomic<bool> limit_hit{false};
  std::atomic<bool> cancel_requested{false};
  std::atomic<bool> first_task_claimed{false};
};

}  // namespace

// One pool thread plus the streaming admission machinery. Worker state
// (expanders, depth buffers) is sparse per plan: a worker that never
// executes a task of plan p spends nothing on p.
class Scheduler::Impl {
 public:
  explicit Impl(const SchedulerOptions& options)
      : options_(options),
        num_threads_(options.parallel.num_threads != 0
                         ? options.parallel.num_threads
                         : std::max(1u, std::thread::hardware_concurrency())) {
    // Metric handles are resolved once here; the per-query hot paths only
    // touch the lock-free Add/Observe fast path.
    MetricsRegistry& reg = MetricsRegistry::Default();
    metric_submitted_ = reg.GetCounter("hgmatch_queries_submitted_total");
    metric_rejected_ =
        reg.GetCounter("hgmatch_rejected_total", "reason=\"queue-full\"");
    metric_queue_wait_ = reg.GetHistogram("hgmatch_queue_wait_seconds");
    metric_admission_wait_ =
        reg.GetHistogram("hgmatch_admission_wait_seconds");
    metric_first_task_ = reg.GetHistogram("hgmatch_first_task_seconds");
    metric_run_ = reg.GetHistogram("hgmatch_query_run_seconds");
    static constexpr QueryStatus kStatuses[] = {
        QueryStatus::kOk,        QueryStatus::kTimeout,
        QueryStatus::kLimit,     QueryStatus::kCancelled,
        QueryStatus::kPlanError, QueryStatus::kRejected,
    };
    for (QueryStatus s : kStatuses) {
      metric_status_[static_cast<size_t>(s)] = reg.GetCounter(
          "hgmatch_queries_finished_total",
          std::string("status=\"") + QueryStatusName(s) + "\"");
    }
    // The pool starts here: every member above is initialised before the
    // first worker runs.
    batch_deadline_ = Deadline::After(options_.batch_timeout_seconds);
    workers_.reserve(num_threads_);
    for (uint32_t i = 0; i < num_threads_; ++i) {
      workers_.push_back(
          std::make_unique<Worker>(i, options_.parallel.seed + i));
    }
    threads_.reserve(num_threads_);
    for (uint32_t i = 0; i < num_threads_; ++i) {
      threads_.emplace_back([this, i] { WorkerLoop(workers_[i].get()); });
    }
  }

  // The one stop path. Unfinished queries are cancelled through Cancel(),
  // the latest submission first, so stopping a running query does not
  // admit a queued one that is about to be cancelled anyway. Once the pool
  // is idle no task is live anywhere, and the workers exit at the stop
  // flag.
  ~Impl() {
    std::vector<uint32_t> unfinished;
    {
      std::lock_guard<std::mutex> lock(admit_mutex_);
      for (auto& [index, ctx] : queries_) {
        if (!ctx->finished) unfinished.push_back(index);
      }
    }
    std::sort(unfinished.begin(), unfinished.end(), std::greater<>());
    for (uint32_t index : unfinished) Cancel(index);
    WaitIdle();
    stopping_.store(true, std::memory_order_release);
    WakeWorkers();
    for (auto& t : threads_) t.join();
  }

  uint32_t Submit(const QueryPlan* plan, const IndexedHypergraph& data,
                  const SubmitOptions& so) {
    // Compiler-stamped plans only: uid 0 would collide with the workers'
    // empty-expander-cache sentinel and alias distinct plans in the
    // uid-keyed expander maps.
    assert(plan->uid != 0 && "submit plans built by BuildQueryPlan");
    uint32_t index;
    bool notify = false;
    std::vector<PendingCompletion> fire;
    {
      std::lock_guard<std::mutex> lock(admit_mutex_);
      index = next_query_index_++;
      auto ctx = std::make_unique<QueryContext>();
      ctx->index = index;
      ctx->plan = plan;
      ctx->sink = so.sink;
      ctx->tenant_id = so.tenant_id;
      ctx->priority = so.priority;
      // A non-finite weight would zero the tenant's virtual-time increment
      // and starve every other tenant; fall back to the neutral share. The
      // cost charge gets the same protection.
      ctx->weight =
          (so.weight > 0 && std::isfinite(so.weight)) ? so.weight : 1.0;
      ctx->cost = (so.cost > 0 && std::isfinite(so.cost)) ? so.cost : 1.0;
      ctx->timeout_seconds = so.timeout_seconds < 0
                                 ? options_.parallel.timeout_seconds
                                 : so.timeout_seconds;
      ctx->limit = so.limit == SubmitOptions::kInheritLimit
                       ? options_.parallel.limit
                       : so.limit;
      ctx->completion = so.completion;
      ctx->trace = so.trace;
      ctx->submit_mono = MonotonicSeconds();
      ctx->data = &data;
      ctx->slots.resize(num_threads_);
      const Partition* first =
          plan->NumSteps() > 0 ? data.FindPartition(plan->steps[0].signature)
                               : nullptr;
      if (first != nullptr) ctx->scan_table = first->edges();
      QueryContext* raw = ctx.get();
      queries_.emplace(index, std::move(ctx));
      submitted_count_.fetch_add(1, std::memory_order_relaxed);
      metric_submitted_->Add();

      // Queue-depth backpressure: the waiting queue is non-empty only while
      // the admission window is full (AdmitLocked drains it otherwise), so
      // "window full and the queue at its bound" means this submission
      // could only wait — shed it instead of queueing, before it costs any
      // queue memory. Resolved synchronously: its hook reports kRejected
      // before this call returns.
      const uint32_t window = options_.max_inflight_queries;
      if (options_.max_queued_queries != 0 &&
          window != 0 && inflight_ >= window &&
          queued_count_ - queued_corpses_ >= options_.max_queued_queries) {
        raw->rejected = true;
        raw->admit_index = admit_seq_++;
        raw->admit_seconds = raw->finish_seconds = wall_.ElapsedSeconds();
        rejected_count_.fetch_add(1, std::memory_order_relaxed);
        metric_rejected_->Add();
        FinishQueryLocked(raw);
      } else {
        EnqueuePendingLocked(raw);
        AdmitLocked(nullptr);
        notify = true;
      }
      fire.swap(deferred_completions_);
    }
    if (notify) WakeWorkers();
    FireCompletions(&fire);
    return index;
  }

  bool Cancel(uint32_t query) {
    std::vector<PendingCompletion> fire;
    bool admitted = false;
    {
      std::unique_lock<std::mutex> lock(admit_mutex_);
      auto it = queries_.find(query);
      if (it == queries_.end()) return false;  // finished and recycled
      QueryContext* ctx = it->second.get();
      if (ctx->finished) return false;  // a corpse awaiting its queue pop
      ctx->cancel_requested.store(true, std::memory_order_relaxed);
      ctx->stop.store(true, std::memory_order_relaxed);
      if (!ctx->seeded) {
        // Still waiting for admission: resolve it right here rather than
        // when the window would eventually have reached it. Its queue entry
        // stays behind as a corpse and is skipped when popped.
        ctx->admit_index = admit_seq_++;
        ctx->admit_seconds = ctx->finish_seconds = wall_.ElapsedSeconds();
        FinishQueryLocked(ctx);
        admitted = AdmitLocked(nullptr);
      }
      fire.swap(deferred_completions_);
    }
    if (admitted) WakeWorkers();
    FireCompletions(&fire);
    return true;
  }

  void RetirePlan(uint64_t plan_uid) {
    std::lock_guard<std::mutex> lock(admit_mutex_);
    retired_plans_.push_back(plan_uid);
    // Trim the retire log to what the slowest worker has not consumed yet,
    // so it does not grow with ever-retired plans.
    uint64_t min_seen = retired_base_ + retired_plans_.size();
    for (auto& w : workers_) min_seen = std::min(min_seen, w->retire_seen);
    while (retired_base_ < min_seen && !retired_plans_.empty()) {
      retired_plans_.pop_front();
      ++retired_base_;
    }
    retired_version_.fetch_add(1, std::memory_order_release);
  }

  size_t LiveContexts() {
    std::lock_guard<std::mutex> lock(admit_mutex_);
    return queries_.size();
  }

  uint64_t RejectedCount() const {
    return rejected_count_.load(std::memory_order_relaxed);
  }

  std::vector<WorkerReport> WorkerReports() {
    std::vector<WorkerReport> reports;
    reports.reserve(workers_.size());
    for (auto& w : workers_) reports.push_back(w->report);
    // Conservation of the spawn counter: SCAN seeds injected by external
    // submitter threads have no worker to account them to.
    std::lock_guard<std::mutex> lock(admit_mutex_);
    if (!reports.empty()) reports[0].tasks_spawned += external_spawned_;
    return reports;
  }

  uint64_t TakePeakTaskBytes() { return memory_.TakePeak(); }

  void WaitIdle() {
    std::unique_lock<std::mutex> lock(finish_mutex_);
    finish_cv_.wait(lock, [this] {
      return finished_count_ ==
             submitted_count_.load(std::memory_order_acquire);
    });
  }

  uint32_t num_threads() const { return num_threads_; }

 private:
  struct Worker {
    Worker(uint32_t id, uint64_t seed) : id(id), rng(seed) {}

    uint32_t id;
    WorkStealingDeque<Task*> deque;
    Rng rng;
    std::vector<EdgeId> embedding;  // SINK copy buffer
    std::vector<EdgeId> valid;      // Expand() output of the running task
    // Stats of the task currently executing; flushed into this worker's
    // slot of the owning query when the task retires (FlushTaskStats).
    MatchStats task_stats;
    // Sparse per-plan expanders with a one-entry cache that skips the hash
    // lookup on the common task runs of one plan (LIFO scheduling keeps
    // runs long). Keyed by QueryPlan::uid, never by address: a retired
    // plan's freed memory being reused for a new plan must not alias its
    // cached state.
    std::unordered_map<uint64_t, std::unique_ptr<Expander>> expanders;
    uint64_t expander_key = 0;  // uids are 1-based; 0 never matches
    Expander* expander_cache = nullptr;
    // Count of RetirePlan() entries this worker has consumed (absolute
    // position in the retire log; guarded by admit_mutex_) and the last
    // retire-log version observed (worker-local fast-path check).
    uint64_t retire_seen = 0;
    uint64_t retire_seen_version = 0;
    WorkerReport report;
    uint64_t poll_counter = 0;
  };

  static QueryContext* Ctx(Task* t) {
    return static_cast<QueryContext*>(t->owner);
  }

  Expander* ExpanderFor(Worker* w, QueryContext* ctx) {
    const uint64_t uid = ctx->plan->uid;
    if (w->expander_key != uid) {
      auto& slot = w->expanders[uid];
      if (slot == nullptr) {
        slot = std::make_unique<Expander>(*ctx->data, *ctx->plan);
      }
      w->expander_key = uid;
      w->expander_cache = slot.get();
    }
    return w->expander_cache;
  }

  // Drops this worker's cached expanders for every plan retired since the
  // worker last looked. Runs on the worker's own state, so the map mutation
  // is single-threaded; the retire log itself is read under admit_mutex_.
  void ReapRetiredPlans(Worker* w) {
    std::lock_guard<std::mutex> lock(admit_mutex_);
    const uint64_t end = retired_base_ + retired_plans_.size();
    for (uint64_t i = std::max(w->retire_seen, retired_base_); i < end; ++i) {
      const uint64_t uid = retired_plans_[i - retired_base_];
      w->expanders.erase(uid);
      if (w->expander_key == uid) {
        w->expander_key = 0;
        w->expander_cache = nullptr;
      }
    }
    w->retire_seen = end;
  }

  void Spawn(Worker* w, Task* t) {
    memory_.OnAlloc(t->SizeBytes());
    Ctx(t)->pending.fetch_add(1, std::memory_order_acq_rel);
    ++w->report.tasks_spawned;
    w->deque.Push(t);
  }

  // Finalises a query: assembles its outcome, marks it finished, queues
  // its completion hook with the outcome for lock-free delivery, and frees
  // the context — unless a pending-queue entry still points at it (a query
  // cancelled while waiting), which leaves a corpse for PopNextLocked to
  // reap. Callers hold admit_mutex_ and are the query's only finisher: the
  // worker that retired its last task, or a thread resolving a query that
  // never seeded. Invalidates ctx unless it became a corpse.
  void FinishQueryLocked(QueryContext* ctx) {
    QueryOutcome out;
    for (const StatSlot& slot : ctx->slots) out.stats += slot.stats;
    out.stats.limit_hit = ctx->limit_hit.load(std::memory_order_relaxed);
    out.stats.timed_out =
        ctx->timeout_fired.load(std::memory_order_relaxed) &&
        ctx->work_dropped.load(std::memory_order_relaxed);
    out.stats.seconds =
        ctx->seeded ? ctx->finish_seconds - ctx->admit_seconds : 0;
    if (ctx->rejected) {
      out.status = QueryStatus::kRejected;
    } else if (ctx->cancel_requested.load(std::memory_order_relaxed)) {
      out.status = QueryStatus::kCancelled;
    } else if (out.stats.timed_out) {
      out.status = QueryStatus::kTimeout;
    } else if (out.stats.limit_hit) {
      out.status = QueryStatus::kLimit;
    } else {
      out.status = QueryStatus::kOk;
    }
    out.admit_seconds = ctx->admit_seconds;
    out.finish_seconds = ctx->finish_seconds;
    out.admit_index = ctx->admit_index;
    metric_status_[static_cast<size_t>(out.status)]->Add();
    if (ctx->trace) {
      // Zero stamps mean "stage never happened" (a rejected query has only
      // submit, a cancelled-while-queued one has no admit) — the span
      // contract, not missing data.
      out.span.enabled = true;
      out.span.submit_seconds = ctx->submit_mono;
      out.span.admit_seconds = ctx->admit_mono;
      out.span.first_task_seconds = ctx->first_task_mono;
      out.span.last_task_seconds = ctx->last_task_mono;
    }
    ctx->finished = true;
    deferred_completions_.push_back(
        {std::move(ctx->completion), std::move(out)});
    if (ctx->in_pending_queue) {
      // The corpse still occupies the policy structure until popped, but
      // no longer counts against the max_queued_queries bound.
      ++queued_corpses_;
    } else {
      queries_.erase(ctx->index);
    }
  }

  // One finished query's hook (empty when it was submitted without one)
  // and the outcome it reports.
  struct PendingCompletion {
    std::function<void(const QueryOutcome&)> fn;
    QueryOutcome outcome;
  };

  // Invokes the hooks harvested from deferred_completions_, then counts
  // their queries finished for WaitIdle: a query counts only once its hook
  // has returned, so whatever a hook wrote is visible to WaitIdle's caller.
  // Callers hold no scheduler lock, so hooks may call back into the
  // read-side API (LiveContexts, RejectedCount).
  void FireCompletions(std::vector<PendingCompletion>* fire) {
    if (fire->empty()) return;
    for (PendingCompletion& p : *fire) {
      if (p.fn) p.fn(p.outcome);
    }
    {
      std::lock_guard<std::mutex> lock(finish_mutex_);
      finished_count_ += fire->size();
    }
    finish_cv_.notify_all();
    fire->clear();
  }

  void Finish(Worker* w, Task* t) {
    QueryContext* ctx = Ctx(t);
    memory_.OnFree(t->SizeBytes());
    Task::Free(t);
    if (ctx->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task of this query retired: record its finish and finalise
      // the outcome, then free the admission slot and seed waiting
      // queries. A worker that parks untimed on the in-flight count's
      // transient 0 in between is woken below, with the new seeds.
      ctx->finish_seconds = wall_.ElapsedSeconds();
      ctx->last_task_mono = MonotonicSeconds();
      if (ctx->first_task_mono > 0) {
        metric_run_->Observe(ctx->last_task_mono - ctx->first_task_mono);
      }
      std::vector<PendingCompletion> fire;
      bool wake;
      {
        std::lock_guard<std::mutex> lock(admit_mutex_);
        inflight_.fetch_sub(1, std::memory_order_relaxed);
        FinishQueryLocked(ctx);  // frees ctx; must stay the last use
        // Wake the pool for new seeds, or, when this was the last query in
        // flight, so parked peers go from the timed to the untimed park.
        wake = AdmitLocked(w) || inflight_.load(std::memory_order_relaxed) == 0;
        fire.swap(deferred_completions_);
      }
      if (wake) WakeWorkers();
      FireCompletions(&fire);  // this query's hook + any admit-resolved ones
    }
  }

  // Bumps the wake epoch and wakes every parked worker (see WorkerLoop).
  // Called, without admit_mutex_ held, after any path that made work or
  // stops the pool. The release bump makes everything written before it
  // (the stop flag included) visible to a worker that reads the new epoch.
  void WakeWorkers() {
    {
      std::lock_guard<std::mutex> lock(idle_mutex_);
      wake_epoch_.fetch_add(1, std::memory_order_release);
    }
    idle_cv_.notify_all();
  }

  // ------------------------------------------------------------ admission --

  // Appends a submitted query to its policy's waiting structure. Callers
  // hold admit_mutex_.
  void EnqueuePendingLocked(QueryContext* ctx) {
    ++queued_count_;
    ctx->in_pending_queue = true;
    switch (options_.admission) {
      case AdmissionPolicy::kFifo:
        fifo_pending_.push_back(ctx);
        break;
      case AdmissionPolicy::kPriority:
        prio_pending_[ctx->priority].push_back(ctx);
        break;
      case AdmissionPolicy::kWeightedFair: {
        TenantState& ts = tenants_[ctx->tenant_id];
        if (ts.queue.empty()) {
          // A tenant (re)entering the system must not be able to claim the
          // virtual time it "saved" while absent; it restarts at the
          // current global virtual time (start-time fair queueing).
          ts.vtime = std::max(ts.vtime, global_vtime_);
        }
        ts.queue.push_back(ctx);
        break;
      }
    }
  }

  // Pops the next query to admit per the admission policy, skipping entries
  // that already finished (cancelled while queued). Returns nullptr when
  // nothing admissible remains. Callers hold admit_mutex_.
  QueryContext* PopNextLocked() {
    while (queued_count_ > 0) {
      QueryContext* ctx = nullptr;
      switch (options_.admission) {
        case AdmissionPolicy::kFifo:
          ctx = fifo_pending_.front();
          fifo_pending_.pop_front();
          break;
        case AdmissionPolicy::kPriority: {
          auto it = prio_pending_.begin();  // greatest priority first
          ctx = it->second.front();
          it->second.pop_front();
          if (it->second.empty()) prio_pending_.erase(it);
          break;
        }
        case AdmissionPolicy::kWeightedFair: {
          // Tenant with the least virtual time goes next; ties resolve to
          // the tenant whose head query was submitted first, so the order
          // is deterministic regardless of map iteration order.
          TenantState* best = nullptr;
          uint32_t best_tenant = 0;
          for (auto& [tenant, ts] : tenants_) {
            if (ts.queue.empty()) continue;
            if (best == nullptr || ts.vtime < best->vtime ||
                (ts.vtime == best->vtime &&
                 ts.queue.front()->index < best->queue.front()->index)) {
              best = &ts;
              best_tenant = tenant;
            }
          }
          if (best == nullptr) return nullptr;  // queued_count_ says otherwise
          ctx = best->queue.front();
          best->queue.pop_front();
          if (!ctx->finished) {
            // Charge the tenant only for queries that actually advance, by
            // the query's admission cost (cost-aware WFQ: the service sets
            // cost to the plan's measured task count; 1 when unknown).
            global_vtime_ = best->vtime;
            best->vtime += ctx->cost / ctx->weight;
          }
          // Bounded tenant state: a drained tenant whose virtual time is
          // not ahead of the global clock would re-enter at the global
          // clock anyway (start-time fair queueing), so its entry is pure
          // reconstructible state — drop it, keeping the map sized by
          // active tenants instead of every tenant id ever seen (a remote
          // client can mint ids freely). A tenant still "in debt" (vtime
          // ahead of global) keeps its entry until the clock catches up,
          // so bursting and rejoining cannot shed the debt. O(1) targeted
          // check per pop; drained-in-debt stragglers are reaped by an
          // amortised sweep when the map has doubled.
          if (best->queue.empty() && best->vtime <= global_vtime_) {
            tenants_.erase(best_tenant);
          }
          if (tenants_.size() >= 16 &&
              tenants_.size() >= 2 * last_tenant_sweep_size_) {
            std::erase_if(tenants_, [this](const auto& entry) {
              return entry.second.queue.empty() &&
                     entry.second.vtime <= global_vtime_;
            });
            last_tenant_sweep_size_ = tenants_.size();
          }
          break;
        }
      }
      if (ctx == nullptr) return nullptr;  // unreachable: switch is exhaustive
      --queued_count_;
      ctx->in_pending_queue = false;
      if (!ctx->finished) return ctx;
      // Reap a corpse: the query resolved (cancelled while waiting) before
      // being popped; its context was kept alive only for this pointer.
      --queued_corpses_;
      queries_.erase(ctx->index);
    }
    return nullptr;
  }

  // Admissions while the pool runs cannot Push into another worker's deque
  // (Chase-Lev Push is owner-only), so their SCAN ranges go through this
  // shared injection queue, which idle workers drain before resorting to
  // stealing. Callers hold admit_mutex_. Two properties hang off that lock:
  // the ranges spread over the pool even with work stealing disabled, and
  // no range is reachable — let alone retired — until the whole query is
  // seeded, so ctx->pending cannot transiently hit zero mid-seeding and run
  // the last-task path in Finish() early (which would double-free the
  // admission slot and wrap inflight_).
  void Inject(Worker* seeder, Task* t) {
    memory_.OnAlloc(t->SizeBytes());
    Ctx(t)->pending.fetch_add(1, std::memory_order_acq_rel);
    if (seeder != nullptr) {
      ++seeder->report.tasks_spawned;
    } else {
      ++external_spawned_;  // submissions from non-pool threads
    }
    inject_.push_back(t);
    inject_size_.fetch_add(1, std::memory_order_release);
  }

  Task* PopInject() {
    // Lock-free pre-check so idle workers spinning in WorkerLoop do not
    // hammer admit_mutex_ when nothing was injected.
    if (inject_size_.load(std::memory_order_acquire) == 0) return nullptr;
    std::lock_guard<std::mutex> lock(admit_mutex_);
    if (inject_.empty()) return nullptr;
    Task* t = inject_.front();
    inject_.pop_front();
    inject_size_.fetch_sub(1, std::memory_order_relaxed);
    return t;
  }

  // Admits queries in policy order until the window is full or none are
  // left. Callers hold admit_mutex_. `seeder == nullptr` for admissions not
  // performed by a pool worker (external Submit/Cancel threads); SCAN
  // ranges go through the injection queue (see Inject()). Returns whether
  // any range was injected, i.e. whether the caller must wake the pool
  // once it drops the lock.
  bool AdmitLocked(Worker* seeder) {
    bool injected = false;
    const uint32_t window = options_.max_inflight_queries;
    while (queued_count_ > 0 && (window == 0 || inflight_ < window)) {
      QueryContext* ctx = PopNextLocked();
      if (ctx == nullptr) break;
      ctx->admit_index = admit_seq_++;
      ctx->admit_seconds = wall_.ElapsedSeconds();
      ctx->admit_mono = MonotonicSeconds();
      metric_queue_wait_->Observe(ctx->admit_mono - ctx->submit_mono);
      ctx->deadline = Deadline::After(ctx->timeout_seconds);
      if (batch_deadline_.Expired()) {
        // Admitted after the whole-run budget ran out. The once-per-run
        // sweep in PollDeadlines covers only the queries that existed when
        // it ran, so a later submission is stopped here.
        ctx->timeout_fired.store(true, std::memory_order_relaxed);
        ctx->stop.store(true, std::memory_order_relaxed);
      }
      if (ctx->stop.load(std::memory_order_relaxed)) {
        // Stopped before it ever ran (whole-run deadline): all of its work
        // is dropped by definition, unless it had none to begin with.
        if (!ctx->scan_table.empty()) {
          ctx->work_dropped.store(true, std::memory_order_relaxed);
        }
        ctx->finish_seconds = ctx->admit_seconds;
        FinishQueryLocked(ctx);
        continue;
      }
      if (ctx->scan_table.empty()) {
        // Nothing matches the first step: done at admission.
        ctx->finish_seconds = ctx->admit_seconds;
        FinishQueryLocked(ctx);
        continue;
      }
      ctx->seeded = true;
      inflight_.fetch_add(1, std::memory_order_relaxed);
      const uint64_t total = ctx->scan_table.size();
      const uint64_t chunk = (total + num_threads_ - 1) / num_threads_;
      for (uint32_t w = 0; w < num_threads_; ++w) {
        const uint64_t lo = static_cast<uint64_t>(w) * chunk;
        if (lo >= total) break;
        const uint64_t hi = std::min<uint64_t>(lo + chunk, total);
        Inject(seeder, Task::NewScan(ctx, static_cast<uint32_t>(lo),
                                     static_cast<uint32_t>(hi)));
        injected = true;
      }
    }
    return injected;
  }

  // ------------------------------------------------------------ execution --

  void PollDeadlines(Worker* w, QueryContext* ctx) {
    if (++w->poll_counter < 1024) return;
    w->poll_counter = 0;
    if (ctx->deadline.Expired()) {
      ctx->timeout_fired.store(true, std::memory_order_relaxed);
      ctx->stop.store(true, std::memory_order_relaxed);
    }
    if (batch_deadline_.Expired() &&
        !batch_expired_.exchange(true, std::memory_order_relaxed)) {
      // queries_ grows under admit_mutex_, so the once-per-run sweep over
      // it takes the lock.
      std::lock_guard<std::mutex> lock(admit_mutex_);
      for (auto& [index, ctx] : queries_) {
        if (ctx->finished) continue;
        ctx->timeout_fired.store(true, std::memory_order_relaxed);
        ctx->stop.store(true, std::memory_order_relaxed);
      }
    }
  }

  void EmitEmbedding(Worker* w, QueryContext* ctx, const EdgeId* prefix,
                     uint32_t prefix_len, EdgeId last) {
    ++w->task_stats.embeddings;
    if (ctx->sink != nullptr) {
      if (w->embedding.size() < static_cast<size_t>(prefix_len) + 1) {
        w->embedding.resize(prefix_len + 1);
      }
      for (uint32_t i = 0; i < prefix_len; ++i) w->embedding[i] = prefix[i];
      w->embedding[prefix_len] = last;
      std::lock_guard<std::mutex> lock(ctx->sink_mutex);
      ctx->sink->Emit(w->embedding.data(), prefix_len + 1);
    }
    if (ctx->limit != 0) {
      const uint64_t total =
          ctx->emitted.fetch_add(1, std::memory_order_relaxed) + 1;
      if (total >= ctx->limit) {
        ctx->limit_hit.store(true, std::memory_order_relaxed);
        ctx->stop.store(true, std::memory_order_relaxed);
      }
    }
  }

  // Handles one child hyperedge `c` extending `prefix` (already validated):
  // emit if complete, else queue its EXPAND task.
  void ProcessChild(Worker* w, QueryContext* ctx, const EdgeId* prefix,
                    uint32_t prefix_len, EdgeId c) {
    if (prefix_len + 1 == ctx->plan->NumSteps()) {
      EmitEmbedding(w, ctx, prefix, prefix_len, c);
    } else {
      Spawn(w, Task::NewExpand(ctx, prefix, prefix_len, c));
    }
  }

  void ExecuteScan(Worker* w, Task* t) {
    QueryContext* ctx = Ctx(t);
    // Range splitting: push the upper half back (thieves take the oldest,
    // i.e. the largest, ranges first) until the range is small enough.
    // scan_grain clamps to >= 1: at grain 0 a 1-element range would split
    // into an identical copy of itself forever.
    const uint32_t grain = std::max(1u, options_.parallel.scan_grain);
    uint32_t lo = t->scan_lo();
    uint32_t hi = t->scan_hi();
    while (hi - lo > grain) {
      const uint32_t mid = lo + (hi - lo) / 2;
      Spawn(w, Task::NewScan(ctx, mid, hi));
      hi = mid;
    }
    // The first query hyperedge matches every hyperedge of its signature
    // table (Observation V.1); no validation is needed at step 0.
    uint32_t i = lo;
    for (; i < hi; ++i) {
      if (ctx->stop.load(std::memory_order_relaxed)) break;
      ProcessChild(w, ctx, nullptr, 0, ctx->scan_table[i]);
      PollDeadlines(w, ctx);
    }
    if (i < hi) ctx->work_dropped.store(true, std::memory_order_relaxed);
  }

  void ExecuteExpand(Worker* w, Task* t) {
    QueryContext* ctx = Ctx(t);
    std::vector<EdgeId>& valid = w->valid;
    ExpanderFor(w, ctx)->Expand(t->edges, t->depth, &valid, &w->task_stats);
    size_t i = 0;
    for (; i < valid.size(); ++i) {
      if (ctx->stop.load(std::memory_order_relaxed)) break;
      ProcessChild(w, ctx, t->edges, t->depth, valid[i]);
    }
    if (i < valid.size()) {
      ctx->work_dropped.store(true, std::memory_order_relaxed);
    }
    PollDeadlines(w, ctx);
  }

  // Adds the just-executed task's counters to this worker's slot of the
  // owning query (for the per-query outcome) and to the worker's report
  // (for load-balance accounting): plain adds, since no other thread writes
  // either. Runs once per task, before Finish() decrements pending, so the
  // slots are complete when the last task retires.
  void FlushTaskStats(Worker* w, QueryContext* ctx) {
    ctx->slots[w->id].stats += w->task_stats;
    w->report.stats += w->task_stats;
  }

  void Execute(Worker* w, Task* t) {
    QueryContext* ctx = Ctx(t);
    if (ctx->stop.load(std::memory_order_relaxed)) {
      // Dropped, not run: this query's counts are now incomplete.
      ctx->work_dropped.store(true, std::memory_order_relaxed);
      return;
    }
    Timer busy;
    if (!ctx->first_task_claimed.load(std::memory_order_relaxed) &&
        !ctx->first_task_claimed.exchange(true, std::memory_order_relaxed)) {
      // First task of this query to actually execute: the stamp feeds the
      // span and the scheduling-latency histograms (submit -> first task
      // end to end, admit -> first task for the post-admission wait).
      ctx->first_task_mono = MonotonicSeconds();
      metric_first_task_->Observe(ctx->first_task_mono - ctx->submit_mono);
      metric_admission_wait_->Observe(ctx->first_task_mono -
                                      ctx->admit_mono);
    }
    w->task_stats = MatchStats{};
    if (t->kind == Task::Kind::kScan) {
      ExecuteScan(w, t);
    } else {
      ExecuteExpand(w, t);
    }
    FlushTaskStats(w, ctx);
    ++w->report.tasks_executed;
    w->report.busy_seconds += busy.ElapsedSeconds();
  }

  // Steals up to half of a random victim's queue (Section VI.C). The first
  // stolen task is returned for immediate execution; the rest go into the
  // caller's own deque.
  Task* TrySteal(Worker* w) {
    if (num_threads_ < 2) return nullptr;
    for (uint32_t attempt = 0; attempt < 2 * num_threads_; ++attempt) {
      const uint32_t victim_id =
          static_cast<uint32_t>(w->rng.NextBounded(num_threads_));
      if (victim_id == w->id) continue;
      Worker* victim = workers_[victim_id].get();
      Task* first = nullptr;
      if (!victim->deque.Steal(&first)) continue;
      ++w->report.steals;
      int64_t extra = victim->deque.SizeApprox() / 2;
      Task* t = nullptr;
      while (extra-- > 0 && victim->deque.Steal(&t)) {
        w->deque.Push(t);
      }
      return first;
    }
    return nullptr;
  }

  void WorkerLoop(Worker* w) {
    uint32_t idle_rounds = 0;
    while (true) {
      // Read before looking for work: anything made after this read bumps
      // the epoch, so the untimed park below cannot miss it.
      const uint64_t epoch = wake_epoch_.load(std::memory_order_acquire);
      // Set only once the pool is idle, so no task is left behind.
      if (stopping_.load(std::memory_order_acquire)) break;
      if (retired_version_.load(std::memory_order_acquire) !=
          w->retire_seen_version) {
        w->retire_seen_version =
            retired_version_.load(std::memory_order_acquire);
        ReapRetiredPlans(w);
      }
      // Freshly injected seed ranges come before the worker's own deque: a
      // newly admitted query starts at the next task boundary instead of
      // queueing behind the expansions of the queries already running, and
      // it spreads over the pool without depending on work stealing.
      Task* t = PopInject();
      if (t == nullptr && !w->deque.Pop(&t) &&
          options_.parallel.work_stealing) {
        t = TrySteal(w);
      }
      if (t != nullptr) {
        Execute(w, t);
        Finish(w, t);
        idle_rounds = 0;
      } else if (++idle_rounds < 64) {
        std::this_thread::yield();
      } else {
        // Park instead of burning a core. With no query in flight no task
        // is live anywhere, and the park is untimed: only a path that bumps
        // the epoch can make work (see WakeWorkers). While a query is in
        // flight it is timed, since deque pushes, which this worker could
        // steal, never notify.
        std::unique_lock<std::mutex> lock(idle_mutex_);
        if (inflight_.load(std::memory_order_acquire) == 0) {
          idle_cv_.wait(lock, [&] {
            return wake_epoch_.load(std::memory_order_relaxed) != epoch;
          });
        } else {
          idle_cv_.wait_for(lock, std::chrono::microseconds(500));
        }
        idle_rounds = 0;
      }
    }
  }

  const SchedulerOptions options_;
  const uint32_t num_threads_;
  Deadline batch_deadline_;
  Timer wall_;

  // The context of every unfinished query (and of every corpse), keyed by
  // submission index; indices are never reused. A finished query leaves
  // nothing behind. Guarded by admit_mutex_.
  std::unordered_map<uint32_t, std::unique_ptr<QueryContext>> queries_;
  uint32_t next_query_index_ = 0;  // admit_mutex_
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Read by every worker on every loop iteration (or park) and written at
  // most a few times per query, so they share a cache line of their own,
  // apart from everything written per task.
  alignas(kCacheLine) std::atomic<bool> stopping_{false};  // set once idle
  std::atomic<uint64_t> wake_epoch_{0};  // bumped under idle_mutex_
  // Version of the retire log below, the lock-free signal to reap it.
  std::atomic<uint64_t> retired_version_{0};
  std::atomic<int64_t> inject_size_{0};  // entries in inject_
  // Queries seeded and not yet finished. Modified under admit_mutex_, read
  // lock-free by parking workers: no task is live exactly when it is 0.
  std::atomic<uint32_t> inflight_{0};

  alignas(kCacheLine) std::mutex admit_mutex_;
  size_t queued_count_ = 0;        // entries across the policy structures
  size_t queued_corpses_ = 0;      // of which: already resolved (cancelled)
  uint64_t admit_seq_ = 0;         // guarded by admit_mutex_
  uint64_t external_spawned_ = 0;  // guarded by admit_mutex_
  std::deque<QueryContext*> fifo_pending_;               // admit_mutex_
  std::map<int32_t, std::deque<QueryContext*>, std::greater<int32_t>>
      prio_pending_;                                     // admit_mutex_
  struct TenantState {
    double vtime = 0;
    std::deque<QueryContext*> queue;
  };
  std::unordered_map<uint32_t, TenantState> tenants_;    // admit_mutex_
  size_t last_tenant_sweep_size_ = 0;                    // admit_mutex_
  double global_vtime_ = 0;                              // admit_mutex_
  std::deque<Task*> inject_;  // mid-run SCAN seeds, guarded by admit_mutex_
  // Completion hooks of queries that finished inside the current
  // admit_mutex_ critical section, awaiting lock-free delivery. Every code
  // path that can append (Submit, Cancel, Finish — directly
  // or through AdmitLocked) drains the list into a local vector before
  // releasing the lock and fires it after, so entries never outlive the
  // critical section that produced them. Guarded by admit_mutex_.
  std::vector<PendingCompletion> deferred_completions_;
  // Retire log of plan uids whose cached per-worker state is obsolete;
  // workers consume it lazily (ReapRetiredPlans). Trimmed to the slowest
  // worker. Guarded by admit_mutex_; retired_version_ is the lock-free
  // signal.
  std::deque<uint64_t> retired_plans_;
  uint64_t retired_base_ = 0;
  std::atomic<uint64_t> rejected_count_{0};
  std::atomic<bool> batch_expired_{false};
  std::atomic<uint64_t> submitted_count_{0};
  uint64_t finished_count_ = 0;  // queries whose hook returned; finish_mutex_

  std::mutex finish_mutex_;
  std::condition_variable finish_cv_;    // broadcast by FireCompletions
  std::mutex idle_mutex_;                // parks idle workers
  std::condition_variable idle_cv_;      // notified by WakeWorkers

  // Registry handles (resolved once in the constructor; see obs/metrics.h).
  Counter* metric_submitted_ = nullptr;
  Counter* metric_rejected_ = nullptr;
  Counter* metric_status_[6] = {};
  Histogram* metric_queue_wait_ = nullptr;
  Histogram* metric_admission_wait_ = nullptr;
  Histogram* metric_first_task_ = nullptr;
  Histogram* metric_run_ = nullptr;

  TaskMemoryTracker memory_;
};

Scheduler::Scheduler(const SchedulerOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

Scheduler::~Scheduler() = default;

uint32_t Scheduler::Submit(const QueryPlan* plan,
                           const IndexedHypergraph& data,
                           const SubmitOptions& options) {
  return impl_->Submit(plan, data, options);
}

bool Scheduler::Cancel(uint32_t query) { return impl_->Cancel(query); }

void Scheduler::RetirePlan(uint64_t plan_uid) { impl_->RetirePlan(plan_uid); }

size_t Scheduler::LiveContexts() { return impl_->LiveContexts(); }

uint64_t Scheduler::RejectedCount() const { return impl_->RejectedCount(); }

std::vector<WorkerReport> Scheduler::WorkerReports() {
  return impl_->WorkerReports();
}

uint64_t Scheduler::TakePeakTaskBytes() { return impl_->TakePeakTaskBytes(); }

void Scheduler::WaitIdle() { impl_->WaitIdle(); }

uint32_t Scheduler::num_threads() const { return impl_->num_threads(); }

}  // namespace hgmatch
