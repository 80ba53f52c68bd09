#include "core/hgmatch.h"

#include <vector>

#include "util/timer.h"

namespace hgmatch {

MatchStats ExecutePlanSequential(const IndexedHypergraph& data,
                                 const QueryPlan& plan,
                                 const MatchOptions& options,
                                 EmbeddingSink* sink) {
  MatchStats stats;
  Timer timer;
  const Deadline deadline = Deadline::After(options.timeout_seconds);
  const uint32_t n = plan.NumSteps();
  // With nothing to emit, verify or stop at, every valid candidate of the
  // last step completes exactly one embedding, so the level is counted in
  // one add instead of visited.
  const bool count_only =
      sink == nullptr && options.limit == 0 && !options.strict_validation;

  Expander expander(data, plan);
  std::vector<std::vector<EdgeId>> level_valid(n);
  std::vector<size_t> cursor(n, 0);
  std::vector<EdgeId> embedding(n, kInvalidEdge);

  expander.Expand(embedding.data(), 0, &level_valid[0], &stats);
  int depth = 0;
  uint64_t steps_since_poll = 0;

  while (depth >= 0) {
    if (++steps_since_poll >= 4096) {
      steps_since_poll = 0;
      if (deadline.Expired()) {
        stats.timed_out = true;
        break;
      }
    }
    if (count_only && static_cast<uint32_t>(depth) + 1 == n) {
      // The poll counter advances by the embeddings counted, so the
      // deadline is polled after the same work as when each is visited.
      const size_t found = level_valid[depth].size();
      stats.embeddings += found;
      steps_since_poll += found;
      --depth;
      continue;
    }
    if (cursor[depth] >= level_valid[depth].size()) {
      // This subtree is exhausted; backtrack.
      cursor[depth] = 0;
      level_valid[depth].clear();
      --depth;
      continue;
    }
    const EdgeId c = level_valid[depth][cursor[depth]++];
    embedding[depth] = c;
    if (static_cast<uint32_t>(depth) + 1 == n) {
      if (options.strict_validation &&
          !expander.VerifyExact(embedding.data(), n)) {
        continue;  // Never taken if Algorithm 5 is exact; tests assert this.
      }
      ++stats.embeddings;
      if (sink != nullptr) sink->Emit(embedding.data(), n);
      if (options.limit != 0 && stats.embeddings >= options.limit) {
        stats.limit_hit = true;
        break;
      }
    } else {
      ++depth;
      expander.Expand(embedding.data(), depth, &level_valid[depth], &stats);
      cursor[depth] = 0;
    }
  }

  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

Result<MatchStats> MatchSequential(const IndexedHypergraph& data,
                                   const Hypergraph& query,
                                   const MatchOptions& options,
                                   EmbeddingSink* sink) {
  Result<QueryPlan> plan = BuildQueryPlan(query, data);
  if (!plan.ok()) return plan.status();
  return ExecutePlanSequential(data, plan.value(), options, sink);
}

}  // namespace hgmatch
