#include "parallel/executor.h"

#include "parallel/scheduler.h"

namespace hgmatch {

// The single-query engine is a batch of one on the shared scheduler core
// (parallel/scheduler.h): all worker-pool, deque, steal and deadline logic
// lives there; this translation unit only maps the option/result types.
// The query streams into the already running pool through the injection
// queue like any other submission. Seeding the worker deques before the
// threads launched bought little: on hgbench enum-par (3 worker threads,
// 4-core host, 10 alternating runs) the median p50 is 0.766 ms streamed
// against 0.727 ms seeded, a 5% move inside the benchmark's 25% bound and
// inside the run-to-run spread of its throughput.
ParallelResult ExecutePlanParallel(const IndexedHypergraph& data,
                                   const QueryPlan& plan,
                                   const ParallelOptions& options,
                                   EmbeddingSink* sink) {
  SchedulerOptions sched_options;
  sched_options.parallel = options;
  Scheduler scheduler(data, sched_options);
  scheduler.Submit(&plan, sink);
  scheduler.Seal();
  SchedulerReport report = scheduler.Join();

  ParallelResult result;
  result.stats = report.queries[0].stats;
  result.stats.seconds = report.seconds;  // single query: run time == wall
  result.workers = std::move(report.workers);
  result.peak_task_bytes = report.peak_task_bytes;
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
