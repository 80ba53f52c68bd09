// Batch throughput: queries/second of the shared-pool query service
// (parallel/service.h RunBatch) as the number of threads grows, compared with
// running the same workload one query at a time through the sequential
// engine. Inter-query parallelism should scale throughput with the thread
// count on workloads of many small/medium queries even when no single
// query has enough intra-query work to occupy the pool.

#include <cstdio>
#include <numeric>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/hgmatch.h"
#include "parallel/service.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace hgmatch;        // NOLINT
using namespace hgmatch::bench; // NOLINT

namespace {

// Throughput in *executed* queries per second: plan-cache-mirrored
// repeats complete at zero execution cost, so folding them in would
// inflate the number (they are reported separately).
double ExecutedPerSecond(const ServiceReport& r) {
  return r.seconds > 0 ? static_cast<double>(r.executed) / r.seconds : 0;
}

uint64_t TotalEmbeddings(const BatchRun& run) {
  uint64_t total = 0;
  for (const Ticket& t : run.tickets) total += t.Wait().stats.embeddings;
  return total;
}

// A vertex-renamed, edge-reordered copy of `q`: isomorphic to the
// original but byte-different, so only the canonical plan-cache key can
// recognise it as a repeat.
Hypergraph RandomRename(const Hypergraph& q, Rng* rng) {
  std::vector<VertexId> perm(q.NumVertices());
  std::iota(perm.begin(), perm.end(), 0);
  rng->Shuffle(&perm);
  std::vector<EdgeId> edge_order(q.NumEdges());
  std::iota(edge_order.begin(), edge_order.end(), 0);
  rng->Shuffle(&edge_order);
  std::vector<Label> labels(q.NumVertices());
  for (VertexId v = 0; v < q.NumVertices(); ++v) labels[perm[v]] = q.label(v);
  Hypergraph out;
  for (Label l : labels) out.AddVertex(l);
  for (EdgeId e : edge_order) {
    VertexSet members;
    members.reserve(q.arity(e));
    for (VertexId v : q.edge(e)) members.push_back(perm[v]);
    (void)out.AddEdge(std::move(members), q.edge_label(e));
  }
  return out;
}

// Renamed-repeat workload: one query shape submitted `kRenamedCopies`
// times under fresh vertex names each time — the recurring-dashboard
// pattern where clients regenerate "the same" query with arbitrary ids.
// Reports the plan-cache hit rate and the planning time the cache skips,
// with the cache off and on.
void RenamedRepeatAblation(const Dataset& d,
                           const std::vector<Hypergraph>& batch,
                           uint32_t threads) {
  constexpr size_t kRenamedCopies = 64;
  Rng rng(0x9e3779b97f4a7c15ull);
  std::vector<Hypergraph> renamed;
  renamed.reserve(kRenamedCopies);
  renamed.push_back(batch.front().Clone());
  for (size_t i = 1; i < kRenamedCopies; ++i) {
    renamed.push_back(RandomRename(batch.front(), &rng));
  }

  // What one cache hit skips: the measured planning cost per copy.
  Timer plan_timer;
  for (const Hypergraph& q : renamed) (void)BuildQueryPlan(q, d.index);
  const double plan_seconds = plan_timer.ElapsedSeconds();
  const double plan_per_query = plan_seconds / kRenamedCopies;

  struct Cell {
    const char* mode;
    bool cache;
    ServiceReport r;
  };
  Cell cells[] = {{"no-cache", false, {}}, {"isomorphic", true, {}}};
  for (Cell& cell : cells) {
    ServiceOptions options;
    options.parallel.num_threads = threads;
    options.plan_cache = cell.cache;
    cell.r = RunBatch(d.index, renamed, options).report;
  }

  std::printf("  renamed-repeat workload (%zu byte-distinct copies of one "
              "shape, plan %.3gms/query):\n",
              kRenamedCopies, plan_per_query * 1e3);
  for (const Cell& cell : cells) {
    const ServiceReport& r = cell.r;
    const double hit_rate =
        static_cast<double>(r.plan_cache_hits) / (kRenamedCopies - 1);
    std::printf("    %-11s %10s  %llu plans compiled, %llu hits "
                "(%llu isomorphic, %.0f%% of repeats), %llu mirrored\n",
                cell.mode, FormatSeconds(r.seconds).c_str(),
                static_cast<unsigned long long>(r.unique_plans),
                static_cast<unsigned long long>(r.plan_cache_hits),
                static_cast<unsigned long long>(r.plan_cache_isomorphic_hits),
                hit_rate * 100,
                static_cast<unsigned long long>(r.mirrored));
  }
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("Batch throughput",
              "queries/second of the shared work-stealing pool");
  const std::vector<std::string> names = DatasetArgs(argc, argv, {"CP"});
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware threads available: %u\n\n", hw);

  for (const std::string& name : names) {
    Dataset d = LoadDataset(name);

    // Workload: every sampled query of the three smaller query classes,
    // repeated to a batch large enough to amortise pool startup.
    std::vector<Hypergraph> batch =
        BatchWorkloadFor(d, {kQ2, kQ3, kQ4}, 12 * QueriesPerSetting());
    if (batch.empty()) {
      std::printf("%s: no queries sampled, skipping\n\n", d.name.c_str());
      continue;
    }

    // Sequential reference: one query after another, single thread.
    Timer seq_timer;
    uint64_t seq_embeddings = 0;
    for (const Hypergraph& q : batch) {
      Result<MatchStats> r = MatchSequential(d.index, q);
      if (r.ok()) seq_embeddings += r.value().embeddings;
    }
    const double seq_seconds = seq_timer.ElapsedSeconds();
    std::printf("%s: %zu queries, %llu embeddings\n", d.name.c_str(),
                batch.size(),
                static_cast<unsigned long long>(seq_embeddings));
    std::printf("  sequential loop: %10s  %8.1f queries/s\n",
                FormatSeconds(seq_seconds).c_str(),
                seq_seconds > 0 ? batch.size() / seq_seconds : 0.0);

    uint32_t max_threads = 1;
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      if (threads > 2 * hw && threads > 4) break;
      max_threads = threads;
      ServiceOptions options;
      options.parallel.num_threads = threads;
      const BatchRun run = RunBatch(d.index, batch, options);
      const ServiceReport& r = run.report;
      std::printf("  batch t=%2u:     %10s  %8.1f exec-queries/s  "
                  "(%llu executed + %llu mirrored, %llu embeddings, "
                  "peak task mem %llu bytes)\n",
                  threads, FormatSeconds(r.seconds).c_str(),
                  ExecutedPerSecond(r),
                  static_cast<unsigned long long>(r.executed),
                  static_cast<unsigned long long>(r.mirrored),
                  static_cast<unsigned long long>(TotalEmbeddings(run)),
                  static_cast<unsigned long long>(r.peak_task_bytes));
    }

    // Ablations at the largest pool: planning every copy independently
    // (plan cache off), and admission windows that bound in-flight queries
    // (multi-user serving mode; peak task memory should shrink with the
    // window while throughput stays close).
    {
      ServiceOptions options;
      options.parallel.num_threads = max_threads;
      options.plan_cache = false;
      const ServiceReport r = RunBatch(d.index, batch, options).report;
      std::printf("  no plan cache:  %10s  %8.1f queries/s\n",
                  FormatSeconds(r.seconds).c_str(),
                  r.seconds > 0 ? batch.size() / r.seconds : 0.0);
    }
    for (uint32_t window : {1u, 2 * max_threads}) {
      ServiceOptions options;
      options.parallel.num_threads = max_threads;
      options.max_inflight_queries = window;
      options.plan_cache = false;  // window effects are per executed query
      const ServiceReport r = RunBatch(d.index, batch, options).report;
      std::printf("  window=%3u:     %10s  %8.1f queries/s  "
                  "(peak task mem %llu bytes)\n",
                  window, FormatSeconds(r.seconds).c_str(),
                  r.seconds > 0 ? batch.size() / r.seconds : 0.0,
                  static_cast<unsigned long long>(r.peak_task_bytes));
    }

    // Admission-policy ablation: a two-tenant flood in the adversarial
    // arrival order (all of tenant A's queries submitted before any of
    // tenant B's). Under FIFO, B's queries wait behind the entire A
    // backlog; weighted-fair admission at weights 3:1 interleaves the two
    // backlogs in weight proportion, collapsing B's mean turnaround while
    // costing A little.
    for (AdmissionPolicy policy :
         {AdmissionPolicy::kFifo, AdmissionPolicy::kWeightedFair}) {
      ServiceOptions options;
      options.parallel.num_threads = max_threads;
      options.max_inflight_queries = max_threads;  // order must matter
      options.admission = policy;
      options.plan_cache = false;
      std::vector<SubmitOptions> submit(batch.size());
      const size_t half = batch.size() / 2;
      for (size_t i = 0; i < batch.size(); ++i) {
        submit[i].tenant_id = i < half ? 1 : 2;
        submit[i].weight = i < half ? 3.0 : 1.0;
      }
      const BatchRun run = RunBatch(d.index, batch, options, &submit);
      double finish_a = 0, finish_b = 0;
      for (size_t i = 0; i < run.tickets.size(); ++i) {
        const QueryOutcome& q = run.tickets[i].Wait();
        const double finish = q.admit_seconds + q.stats.seconds;
        (i < half ? finish_a : finish_b) += finish;
      }
      finish_a /= half > 0 ? half : 1;
      finish_b /= batch.size() - half > 0 ? batch.size() - half : 1;
      std::printf("  flood %-5s     mean turnaround: tenantA(w=3) %10s  "
                  "tenantB(w=1) %10s\n",
                  policy == AdmissionPolicy::kFifo ? "fifo:" : "wfq:",
                  FormatSeconds(finish_a).c_str(),
                  FormatSeconds(finish_b).c_str());
    }

    // Plan-cache ablation on renamed repeats: the isomorphism-aware key
    // should register every byte-distinct rename as a hit and compile
    // exactly one plan; with the cache off every copy is planned.
    RenamedRepeatAblation(d, batch, max_threads);
    std::printf("\n");
  }
  return 0;
}
