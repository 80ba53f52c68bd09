#include "parallel/bfs_executor.h"

#include <atomic>
#include <mutex>
#include <thread>

#include "core/candidates.h"
#include "util/timer.h"

namespace hgmatch {

BfsResult ExecutePlanBfs(const IndexedHypergraph& data, const QueryPlan& plan,
                         const ParallelOptions& options,
                         EmbeddingSink* sink) {
  BfsResult result;
  Timer wall;
  const Deadline deadline = Deadline::After(options.timeout_seconds);
  const uint32_t n = plan.NumSteps();
  const uint32_t threads = options.num_threads != 0
                               ? options.num_threads
                               : std::max(1u, std::thread::hardware_concurrency());
  if (n == 0) return result;

  // Level 0: the signature-table scan, materialised as depth-1 rows.
  std::vector<EdgeId> current;  // flattened rows of `depth` edges each
  uint32_t depth = 1;
  const Partition* first = data.FindPartition(plan.steps[0].signature);
  if (first != nullptr) {
    current.assign(first->edges().begin(), first->edges().end());
  }

  auto track_peak = [&result](uint64_t bytes) {
    if (bytes > result.peak_bytes) result.peak_bytes = bytes;
  };
  track_peak(current.size() * sizeof(EdgeId));

  std::mutex merge_mutex;
  std::atomic<bool> stop{false};

  while (depth < n && !current.empty()) {
    const uint64_t rows = current.size() / depth;
    std::vector<EdgeId> next;
    std::atomic<uint64_t> next_row{0};
    std::atomic<uint64_t> next_bytes{0};
    std::vector<MatchStats> worker_stats(threads);

    auto body = [&](uint32_t worker_id) {
      Expander expander(data, plan);
      std::vector<EdgeId> valid;
      std::vector<EdgeId> local_out;
      MatchStats& stats = worker_stats[worker_id];
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t row = next_row.fetch_add(1, std::memory_order_relaxed);
        if (row >= rows) break;
        const EdgeId* prefix = current.data() + row * depth;
        expander.Expand(prefix, depth, &valid, &stats);
        for (EdgeId c : valid) {
          for (uint32_t i = 0; i < depth; ++i) local_out.push_back(prefix[i]);
          local_out.push_back(c);
        }
        next_bytes.fetch_add(valid.size() * (depth + 1) * sizeof(EdgeId),
                             std::memory_order_relaxed);
        if (deadline.Expired()) {
          stats.timed_out = true;
          stop.store(true, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      next.insert(next.end(), local_out.begin(), local_out.end());
    };

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (uint32_t i = 0; i < threads; ++i) pool.emplace_back(body, i);
    for (auto& t : pool) t.join();

    for (const MatchStats& s : worker_stats) result.stats += s;
    // Peak = both levels resident at the hand-over point.
    track_peak(current.size() * sizeof(EdgeId) +
               next_bytes.load(std::memory_order_relaxed));
    current.swap(next);
    ++depth;
    if (stop.load(std::memory_order_relaxed)) break;
  }

  if (!result.stats.timed_out && depth == n) {
    const uint64_t rows = n == 0 ? 0 : current.size() / n;
    result.stats.embeddings = rows;
    if (sink != nullptr) {
      for (uint64_t r = 0; r < rows; ++r) {
        sink->Emit(current.data() + r * n, n);
      }
    }
  }
  result.stats.seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace hgmatch
