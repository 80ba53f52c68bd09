// Microbenchmarks of HGMatch's core per-embedding operations: index build,
// plan compilation, candidate generation (Algorithm 4), validation
// (Algorithm 5) and one full expansion, on a mid-size profile dataset; and
// the parallel engine's cost per task against the sequential engine's.

#include <benchmark/benchmark.h>

#include "core/candidates.h"
#include "core/hgmatch.h"
#include "gen/dataset_profiles.h"
#include "gen/query_gen.h"
#include "parallel/executor.h"

namespace hgmatch {
namespace {

// Shared fixture state (built once; benchmarks are read-only users).
struct Fixture {
  Fixture()
      : data(IndexedHypergraph::Build(
            FindDatasetProfile("SB")->Generate(1.0))) {
    Rng rng(7);
    query = SampleQuery(data.graph(), kQ3, &rng).value();
    plan = BuildQueryPlan(query, data).value();
    // A partial embedding for candidate/validation micro-runs: the first
    // valid 2-prefix found by expansion.
    Expander expander(data, plan);
    MatchStats stats;
    std::vector<EdgeId> level0, level1;
    expander.Expand(nullptr, 0, &level0, &stats);
    for (EdgeId e0 : level0) {
      prefix = {e0, 0};
      expander.Expand(prefix.data(), 1, &level1, &stats);
      if (!level1.empty()) {
        prefix[1] = level1[0];
        candidate_at_2 = level1[0];
        has_prefix = true;
        break;
      }
    }
  }

  IndexedHypergraph data;
  Hypergraph query;
  QueryPlan plan;
  std::vector<EdgeId> prefix;
  EdgeId candidate_at_2 = kInvalidEdge;
  bool has_prefix = false;
};

Fixture& GetFixture() {
  static Fixture* f = new Fixture();
  return *f;
}

// Index build on a profile dataset; each iteration includes one Clone().
// SB has a few large signature tables; AR at a small scale has many small
// ones, most of whose posting lists hold a single hyperedge.
void BM_IndexBuild(benchmark::State& state, const char* dataset,
                   double scale) {
  const Hypergraph h = FindDatasetProfile(dataset)->Generate(scale);
  size_t tables = 0;
  for (auto _ : state) {
    IndexedHypergraph idx = IndexedHypergraph::Build(h.Clone());
    tables = idx.partitions().size();
    benchmark::DoNotOptimize(idx.IndexBytes());
  }
  state.SetItemsProcessed(state.iterations() * h.NumEdges());
  state.counters["tables"] = static_cast<double>(tables);
}
BENCHMARK_CAPTURE(BM_IndexBuild, SB, "SB", 1.0);
BENCHMARK_CAPTURE(BM_IndexBuild, AR, "AR", 1.0 / 256);

// The posting-list lookups of one Algorithm 4 call at step 2: the step's
// signature table, probed with every vertex of the hyperedges matched at
// steps 0 and 1.
void BM_PostingsLookup(benchmark::State& state) {
  Fixture& f = GetFixture();
  const Partition* part =
      f.plan.NumSteps() < 3 ? nullptr
                            : f.data.FindPartition(f.plan.steps[2].signature);
  if (!f.has_prefix || part == nullptr) {
    state.SkipWithError("no 2-prefix available");
    return;
  }
  std::vector<VertexId> vertices;
  for (EdgeId e : f.prefix) {
    for (VertexId v : f.data.graph().edge(e)) vertices.push_back(v);
  }
  for (auto _ : state) {
    size_t postings = 0;
    for (VertexId v : vertices) postings += part->Postings(v).size();
    benchmark::DoNotOptimize(postings);
  }
  state.SetItemsProcessed(state.iterations() * vertices.size());
}
BENCHMARK(BM_PostingsLookup);

void BM_PlanCompilation(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    Result<QueryPlan> plan = BuildQueryPlan(f.query, f.data);
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_PlanCompilation);

void BM_GenerateCandidates(benchmark::State& state) {
  Fixture& f = GetFixture();
  if (!f.has_prefix || f.plan.NumSteps() < 3) {
    state.SkipWithError("no 2-prefix available");
    return;
  }
  Expander expander(f.data, f.plan);
  std::vector<EdgeId> out;
  for (auto _ : state) {
    expander.GenerateCandidates(f.prefix.data(), 2, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GenerateCandidates);

void BM_IsValidEmbedding(benchmark::State& state) {
  Fixture& f = GetFixture();
  if (!f.has_prefix) {
    state.SkipWithError("no 2-prefix available");
    return;
  }
  Expander expander(f.data, f.plan);
  bool count_ok;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        expander.IsValidEmbedding(f.prefix.data(), 1, f.candidate_at_2,
                                  &count_ok));
  }
}
BENCHMARK(BM_IsValidEmbedding);

void BM_FullQuery(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    MatchStats stats =
        ExecutePlanSequential(f.data, f.plan, MatchOptions{}, nullptr);
    benchmark::DoNotOptimize(stats.embeddings);
  }
}
BENCHMARK(BM_FullQuery);

// One AR query with many cheap tasks, like hgbench's enum-par: of 64
// sampled q3 queries on AR at 1/64, whose posting lists hold about one
// hyperedge each, the one with the most expansions.
struct TaskFixture {
  TaskFixture()
      : data(IndexedHypergraph::Build(
            FindDatasetProfile("AR")->Generate(1.0 / 64))) {
    for (Hypergraph& q : SampleQueries(data.graph(), kQ3, 64, 11)) {
      const MatchStats s = MatchSequential(data, q).value();
      if (s.expansions > expansions) {
        expansions = s.expansions;
        query = std::move(q);
      }
    }
  }

  IndexedHypergraph data;
  Hypergraph query;
  uint64_t expansions = 0;
};

TaskFixture& GetTaskFixture() {
  static TaskFixture* f = new TaskFixture();
  return *f;
}

// Per-task cost: the query through MatchSequential (threads = 0) or through
// MatchParallel on the calling thread's cached pool. ns_per_task divides
// the time per query by its expansions, the EXPAND tasks of the parallel
// run plus one, so the rows read against each other: the 1-thread row less
// the sequential row is the scheduler's own cost per task.
void BM_PerTask(benchmark::State& state) {
  TaskFixture& f = GetTaskFixture();
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  ParallelOptions options;
  options.num_threads = threads;
  uint64_t embeddings = 0;
  for (auto _ : state) {
    if (threads == 0) {
      embeddings = MatchSequential(f.data, f.query).value().embeddings;
    } else {
      embeddings =
          MatchParallel(f.data, f.query, options).value().stats.embeddings;
    }
    benchmark::DoNotOptimize(embeddings);
  }
  state.counters["tasks"] = static_cast<double>(f.expansions);
  state.counters["ns_per_task"] = benchmark::Counter(
      static_cast<double>(f.expansions) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_PerTask)
    ->ArgName("threads")
    ->Arg(0)
    ->Arg(1)
    ->Arg(3)
    ->UseRealTime();

}  // namespace
}  // namespace hgmatch
