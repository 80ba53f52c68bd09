#ifndef HGMATCH_PARALLEL_EXECUTOR_H_
#define HGMATCH_PARALLEL_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "core/hypergraph.h"
#include "core/indexed_hypergraph.h"
#include "core/matching_order.h"
#include "core/result.h"
#include "util/status.h"

namespace hgmatch {

/// Options of the parallel execution engine (Section VI).
struct ParallelOptions {
  /// Worker threads in the pool; 0 = std::thread::hardware_concurrency().
  uint32_t num_threads = 0;

  /// Dynamic work stealing (Section VI.C). Disabling it reproduces the
  /// static "assign each thread an equal share of the firstly matched
  /// hyperedges" baseline the paper calls HGMatch-NOSTL (Exp-6).
  bool work_stealing = true;

  /// Maximum number of table rows a SCAN task processes before splitting
  /// itself (range splitting keeps the seeding memory bounded).
  uint32_t scan_grain = 64;

  /// Per-query wall-clock timeout in seconds; <= 0 disables.
  double timeout_seconds = 0;

  /// Stop after (at least) this many embeddings; 0 = unlimited. Because
  /// workers run concurrently the final count may slightly overshoot.
  uint64_t limit = 0;

  /// Random seed for steal-victim selection (results are unaffected).
  uint64_t seed = 0x5eed;
};

/// Per-worker execution report (Exp-6 / Fig 12 uses busy_seconds).
struct WorkerReport {
  double busy_seconds = 0;      // time spent executing tasks
  uint64_t tasks_executed = 0;  // tasks run by this worker
  uint64_t tasks_spawned = 0;   // tasks this worker pushed
  uint64_t steals = 0;          // successful steals by this worker
  MatchStats stats;             // per-worker counters (embeddings etc.)
};

/// Aggregate result of a parallel run.
struct ParallelResult {
  MatchStats stats;                   // aggregated over workers
  std::vector<WorkerReport> workers;  // size = num_threads
  uint64_t peak_task_bytes = 0;       // high-water mark of live task memory
};

/// Runs a compiled plan on the task-based scheduler (Section VI.B) with
/// dynamic work stealing (Section VI.C): each worker owns a Chase–Lev deque,
/// schedules LIFO, and steals up to half of a random victim's queue when
/// idle. This is a thin facade over the shared scheduler core
/// (parallel/scheduler.h), so every deque/steal/deadline behaviour is
/// identical to the service's (parallel/service.h) by construction. Each
/// calling thread keeps one pool alive between calls, built for the
/// options' shape (num_threads, work_stealing, scan_grain, seed) and
/// rebuilt when a call asks for another; its workers sleep while idle and
/// it is joined when the thread exits. The result covers this call alone:
/// `workers` counts only its tasks, `peak_task_bytes` only its live tasks,
/// and `stats.seconds` is the call's wall time. `sink` may be null (count
/// only); when non-null, Emit calls are serialised by the engine, so any
/// sink works but heavy sinks limit scalability — the experiments count,
/// matching the paper's metric. `stats.timed_out` is only set when the
/// deadline fired AND some work was actually dropped; a run whose final
/// tasks complete their counts despite an expired deadline reports exact
/// results.
ParallelResult ExecutePlanParallel(const IndexedHypergraph& data,
                                   const QueryPlan& plan,
                                   const ParallelOptions& options,
                                   EmbeddingSink* sink = nullptr);

/// Convenience wrapper: plan (Algorithm 3) + ExecutePlanParallel.
Result<ParallelResult> MatchParallel(const IndexedHypergraph& data,
                                     const Hypergraph& query,
                                     const ParallelOptions& options = {},
                                     EmbeddingSink* sink = nullptr);

}  // namespace hgmatch

#endif  // HGMATCH_PARALLEL_EXECUTOR_H_
