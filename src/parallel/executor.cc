#include "parallel/executor.h"

#include <memory>
#include <tuple>

#include "parallel/scheduler.h"
#include "util/timer.h"

namespace hgmatch {

namespace {

// The calling thread's worker pool and the shape it was built with.
struct CachedPool {
  ParallelOptions shape;
  std::unique_ptr<Scheduler> scheduler;
};

auto Shape(const ParallelOptions& o) {
  return std::tie(o.num_threads, o.work_stealing, o.scan_grain, o.seed);
}

// Returns the calling thread's pool, rebuilt when `options` asks for another
// shape. Only the pool shape is fixed at construction; timeout, limit and
// sink travel with each submission. A caller holds at most one pool, so
// sweeping thread counts never accumulates threads.
Scheduler& PoolFor(const ParallelOptions& options) {
  thread_local CachedPool pool;
  if (pool.scheduler == nullptr || Shape(pool.shape) != Shape(options)) {
    pool.scheduler.reset();  // join the old workers before starting new ones
    SchedulerOptions sched_options;
    sched_options.parallel.num_threads = options.num_threads;
    sched_options.parallel.work_stealing = options.work_stealing;
    sched_options.parallel.scan_grain = options.scan_grain;
    sched_options.parallel.seed = options.seed;
    pool.scheduler = std::make_unique<Scheduler>(sched_options);
    pool.shape = options;
  }
  return *pool.scheduler;
}

// `after` minus `before`, counter by counter.
WorkerReport Since(const WorkerReport& after, const WorkerReport& before) {
  WorkerReport d;
  d.busy_seconds = after.busy_seconds - before.busy_seconds;
  d.tasks_executed = after.tasks_executed - before.tasks_executed;
  d.tasks_spawned = after.tasks_spawned - before.tasks_spawned;
  d.steals = after.steals - before.steals;
  d.stats.embeddings = after.stats.embeddings - before.stats.embeddings;
  d.stats.candidates = after.stats.candidates - before.stats.candidates;
  d.stats.filtered = after.stats.filtered - before.stats.filtered;
  d.stats.expansions = after.stats.expansions - before.stats.expansions;
  return d;
}

}  // namespace

// A call is one submission to the calling thread's cached pool on the
// shared scheduler core (parallel/scheduler.h): all worker-pool, deque,
// steal and deadline logic lives there. Only this thread submits to its
// pool, so one query runs on it at a time, and the worker counters taken
// before and after the call differ by exactly this call's work. The
// completion hook copies the stats; WaitIdle returns after it has.
ParallelResult ExecutePlanParallel(const IndexedHypergraph& data,
                                   const QueryPlan& plan,
                                   const ParallelOptions& options,
                                   EmbeddingSink* sink) {
  Timer wall;
  Scheduler& pool = PoolFor(options);
  const std::vector<WorkerReport> before = pool.WorkerReports();
  SubmitOptions submit;
  submit.timeout_seconds =
      options.timeout_seconds > 0 ? options.timeout_seconds : 0;
  submit.limit = options.limit;
  submit.sink = sink;
  ParallelResult result;
  submit.completion = [&result](const QueryOutcome& out) {
    result.stats = out.stats;
  };
  pool.Submit(&plan, data, submit);
  pool.WaitIdle();
  pool.RetirePlan(plan.uid);
  result.workers = pool.WorkerReports();
  for (size_t i = 0; i < result.workers.size(); ++i) {
    result.workers[i] = Since(result.workers[i], before[i]);
  }
  result.peak_task_bytes = pool.TakePeakTaskBytes();
  result.stats.seconds = wall.ElapsedSeconds();
  return result;
}

Result<ParallelResult> MatchParallel(const IndexedHypergraph& data,
                                     const Hypergraph& query,
                                     const ParallelOptions& options,
                                     EmbeddingSink* sink) {
  Result<QueryPlan> plan = BuildQueryPlan(query, data);
  if (!plan.ok()) return plan.status();
  return ExecutePlanParallel(data, plan.value(), options, sink);
}

}  // namespace hgmatch
