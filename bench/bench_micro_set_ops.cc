// Microbenchmarks of the sorted-set kernels underpinning Algorithm 4
// (google-benchmark). The paper credits set operations' hardware
// friendliness for HGMatch's candidate-generation speed; these quantify the
// kernels in isolation, including the merge-vs-gallop crossover.

#include <benchmark/benchmark.h>

#include <span>

#include "util/rng.h"
#include "util/set_ops.h"

namespace hgmatch {
namespace {

std::vector<uint32_t> MakeSorted(size_t n, uint32_t universe, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<uint32_t>(rng.NextBounded(universe)));
  }
  SortUnique(&v);
  return v;
}

void BM_IntersectBalanced(benchmark::State& state) {
  const size_t n = state.range(0);
  const auto a = MakeSorted(n, 4 * n, 1);
  const auto b = MakeSorted(n, 4 * n, 2);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    Intersect(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_IntersectBalanced)->Range(64, 1 << 16);

void BM_IntersectAsymmetric(benchmark::State& state) {
  // Small list vs large list: exercises the galloping path.
  const size_t large = state.range(0);
  const auto a = MakeSorted(64, 8 * large, 1);
  const auto b = MakeSorted(large, 8 * large, 2);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    Intersect(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * b.size());
}
BENCHMARK(BM_IntersectAsymmetric)->Range(1 << 10, 1 << 20);

void BM_UnionMany(benchmark::State& state) {
  // K posting lists, as produced per shared vertex in Algorithm 4 line 6.
  // dense:1 draws 256 ids per list from 2^16 ids (a 1024-word span, which
  // takes the bitmap union from 3 inputs on); dense:0 draws them from 2^30
  // ids, a span far above 4 words per item, which takes the heap merge.
  const size_t k = state.range(0);
  const uint32_t universe = state.range(1) != 0 ? 1u << 16 : 1u << 30;
  std::vector<std::vector<uint32_t>> lists;
  size_t items = 0;
  for (size_t i = 0; i < k; ++i) {
    lists.push_back(MakeSorted(256, universe, i + 1));
    items += lists.back().size();
  }
  const std::vector<std::span<const uint32_t>> spans(lists.begin(),
                                                     lists.end());
  std::vector<uint32_t> out;
  for (auto _ : state) {
    UnionMany(spans, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_UnionMany)
    ->ArgNames({"inputs", "dense"})
    ->ArgsProduct({{2, 8, 32, 128}, {1, 0}});

void BM_IntersectsEarlyExit(benchmark::State& state) {
  const size_t n = state.range(0);
  const auto a = MakeSorted(n, 4 * n, 5);
  auto b = a;  // guaranteed early hit
  for (auto _ : state) {
    benchmark::DoNotOptimize(Intersects(a, b));
  }
}
BENCHMARK(BM_IntersectsEarlyExit)->Range(64, 1 << 14);

}  // namespace
}  // namespace hgmatch
