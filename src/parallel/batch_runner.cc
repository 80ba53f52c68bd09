#include "parallel/batch_runner.h"

#include <vector>

#include "parallel/service.h"

namespace hgmatch {

// The batch engine is a facade over the streaming query service: one
// private MatchService per call (so plan-cache statistics are
// batch-scoped), submit every query in input order, Shutdown() to wait for
// all of them, map outcomes back to input order. Admission order, plan caching,
// sink-less repeat mirroring and per-query exactness all live in the
// service/scheduler layers.
BatchResult RunBatch(const IndexedHypergraph& data,
                     const std::vector<Hypergraph>& queries,
                     const BatchOptions& options,
                     const std::vector<EmbeddingSink*>* sinks,
                     const std::vector<SubmitOptions>* submit) {
  ServiceOptions service_options;
  service_options.parallel = options.parallel;
  service_options.admission = options.admission;
  service_options.max_inflight_queries = options.max_inflight_queries;
  service_options.task_quota = options.task_quota;
  service_options.run_timeout_seconds = options.batch_timeout_seconds;
  service_options.plan_cache = options.plan_cache;
  service_options.plan_cache_isomorphism = options.plan_cache_isomorphism;
  MatchService service(data, service_options);

  std::vector<Ticket> tickets;
  tickets.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    SubmitOptions so =
        (submit != nullptr && i < submit->size()) ? (*submit)[i]
                                                  : SubmitOptions{};
    if (sinks != nullptr && i < sinks->size()) so.sink = (*sinks)[i];
    tickets.push_back(service.SubmitBorrowed(queries[i], so));
  }
  const ServiceReport sr = service.Shutdown();  // drains and joins

  BatchResult result;
  result.queries.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    BatchQueryResult& q = result.queries[i];
    const QueryOutcome& outcome = tickets[i].Wait();  // resolved: pure read
    q.status = tickets[i].status();
    q.outcome = outcome.status;
    q.mirrored = outcome.mirrored;
    if (q.status.ok()) {
      q.stats = outcome.stats;
      q.admit_seconds = outcome.admit_seconds;
    }
    if (q.status.ok() && !q.stats.timed_out && !q.stats.limit_hit &&
        q.outcome != QueryStatus::kCancelled &&
        q.outcome != QueryStatus::kRejected) {
      ++result.completed;
    }
    result.total += q.stats;
  }
  result.workers = sr.workers;
  result.peak_task_bytes = sr.peak_task_bytes;
  result.seconds = sr.seconds;
  result.executed = sr.executed;
  result.mirrored = sr.mirrored;
  result.plan_cache_hits = sr.plan_cache_hits;
  result.plan_cache_isomorphic_hits = sr.plan_cache_isomorphic_hits;
  result.redispatched = sr.redispatched;
  result.unique_plans = sr.unique_plans;
  return result;
}

}  // namespace hgmatch
