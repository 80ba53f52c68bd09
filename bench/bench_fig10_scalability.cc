// Fig 10 (Exp-4, Scalability): elapsed time and speedup of the parallel
// engine as the number of threads grows, on the two highest-cardinality q3
// queries of the largest default dataset. The paper reports near-linear
// scaling to 20 threads on a 2x20-core box; on smaller machines the shape
// to check is monotone improvement up to the physical core count and no
// pathological degradation beyond it.

#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "core/hgmatch.h"
#include "parallel/executor.h"
#include "parallel/service.h"

using namespace hgmatch;        // NOLINT
using namespace hgmatch::bench; // NOLINT

int main(int argc, char** argv) {
  PrintHeader("Fig 10 (Exp-4)", "Scalability: vary number of threads");
  const std::vector<std::string> names = DatasetArgs(argc, argv, {"AR"});
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware threads available: %u\n\n", hw);

  for (const std::string& name : names) {
    Dataset d = LoadDataset(name);
    // Pick the two q3 queries with the most embeddings (bounded probe).
    std::vector<Hypergraph> queries = QueriesFor(d, kQ3);
    std::vector<std::pair<uint64_t, size_t>> ranked;
    for (size_t i = 0; i < queries.size(); ++i) {
      MatchOptions probe;
      probe.limit = 2'000'000;
      probe.timeout_seconds = 10;
      Result<MatchStats> r = MatchSequential(d.index, queries[i], probe);
      ranked.emplace_back(r.ok() ? r.value().embeddings : 0, i);
    }
    std::sort(ranked.rbegin(), ranked.rend());

    for (size_t k = 0; k < std::min<size_t>(2, ranked.size()); ++k) {
      const Hypergraph& q = queries[ranked[k].second];
      std::printf("%s q3^%zu (>= %llu embeddings):\n", d.name.c_str(), k + 1,
                  static_cast<unsigned long long>(ranked[k].first));
      double t1 = 0;
      uint32_t max_threads = 1;
      for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        if (threads > 2 * hw && threads > 4) break;
        max_threads = threads;
        ParallelOptions options;
        options.num_threads = threads;
        Result<ParallelResult> r = MatchParallel(d.index, q, options);
        if (!r.ok()) continue;
        const double t = r.value().stats.seconds;
        if (threads == 1) t1 = t;
        std::printf(
            "  t=%2u: %10s  speedup %5.2fx  (%llu embeddings)\n", threads,
            FormatSeconds(t).c_str(), t1 > 0 ? t1 / t : 1.0,
            static_cast<unsigned long long>(r.value().stats.embeddings));
      }
      // Facade-parity check: the same query as a batch of one through the
      // service must match the executor's count and wall time (both are
      // thin layers over the shared scheduler core).
      {
        std::vector<Hypergraph> one;
        one.push_back(q.Clone());
        ServiceOptions options;
        options.parallel.num_threads = max_threads;
        const BatchRun r = RunBatch(d.index, one, options);
        std::printf("  batch-of-one t=%2u: %10s  (%llu embeddings)\n",
                    max_threads, FormatSeconds(r.report.seconds).c_str(),
                    static_cast<unsigned long long>(
                        r.tickets[0].Wait().stats.embeddings));
      }
    }
  }
  return 0;
}
