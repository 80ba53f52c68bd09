// Batch queries: serve a whole query workload from one shared
// work-stealing pool (parallel/service.h RunBatch). A synthetic knowledge-base
// style dataset is indexed once, a mixed workload of sampled queries is
// admitted in one RunBatch call, and per-query counts arrive in input
// order — the multi-user serving shape: index once, answer many.

#include <cstdio>
#include <vector>

#include "gen/generator.h"
#include "gen/query_gen.h"
#include "parallel/service.h"
#include "util/rng.h"

using namespace hgmatch;  // NOLINT: example brevity

int main() {
  // One data hypergraph, indexed once (the offline phase).
  GeneratorConfig config;
  config.seed = 7;
  config.num_vertices = 2000;
  config.num_edges = 6000;
  config.num_labels = 8;
  Hypergraph data = GenerateHypergraph(config);

  // A workload of 12 queries of mixed size, as issued by concurrent users.
  std::vector<Hypergraph> workload;
  Rng rng(99);
  for (int i = 0; i < 12; ++i) {
    const uint32_t k = 2 + i % 3;
    Result<Hypergraph> q =
        SampleQuery(data, QuerySettings{"user", k, 2, 200}, &rng);
    if (q.ok()) workload.push_back(std::move(q.value()));
  }

  IndexedHypergraph indexed = IndexedHypergraph::Build(std::move(data));
  std::printf("data: %zu vertices, %zu hyperedges; workload: %zu queries\n",
              indexed.graph().NumVertices(), indexed.graph().NumEdges(),
              workload.size());

  // Serve the whole batch through one pool: per-query limits keep any one
  // user from monopolising it, the batch deadline bounds the whole round.
  ServiceOptions options;
  options.parallel.num_threads = 4;
  options.parallel.limit = 100000;
  options.run_timeout_seconds = 30;
  const BatchRun run = RunBatch(indexed, workload, options);

  size_t completed = 0;
  for (size_t i = 0; i < run.tickets.size(); ++i) {
    const Ticket& t = run.tickets[i];
    if (!t.status().ok()) {
      std::printf("  query %2zu: %s\n", i, t.status().ToString().c_str());
      continue;
    }
    const QueryOutcome& q = t.Wait();
    if (q.status == QueryStatus::kOk) ++completed;
    std::printf("  query %2zu: %8llu embeddings%s in %.4fs\n", i,
                static_cast<unsigned long long>(q.stats.embeddings),
                q.stats.limit_hit ? "+" : "", q.stats.seconds);
  }
  // Throughput counts executed queries; mirrored repeats cost nothing.
  const ServiceReport& r = run.report;
  std::printf("batch: %zu/%zu completed in %.4fs (%.1f queries/s)\n",
              completed, workload.size(), r.seconds,
              r.seconds > 0 ? static_cast<double>(r.executed) / r.seconds
                            : 0.0);
  return 0;
}
