#ifndef HGMATCH_PARALLEL_TASK_H_
#define HGMATCH_PARALLEL_TASK_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "core/types.h"

namespace hgmatch {

/// The minimal scheduling unit of HGMatch (Definition VI.1). A task is
/// either a SCAN task (a sub-range of the first plan step's signature
/// table, realising T_SCAN without materialising one task per hyperedge)
/// or an EXPAND task (a partial embedding of `depth` hyperedges). SINK
/// logic runs inline when an expansion completes an embedding, exactly as a
/// T_SINK that is scheduled immediately after being spawned (LIFO order).
///
/// Tasks are heap-allocated with a flexible trailing array so a task is one
/// contiguous allocation of 16 + 4*depth bytes — "a task contains only a
/// partial embedding and a pointer to the function defining its execution
/// logic" (Section VI.B Remark); here the kind tag plays the role of the
/// function pointer, and `owner` tags the task with the scheduler-internal
/// query context it belongs to, so tasks of many concurrent queries can mix
/// freely in the same deques while counters, limits and deadlines stay
/// exact per query (the multi-query generalisation of Section VI.C).
struct Task {
  enum class Kind : uint32_t { kScan, kExpand };

  void* owner;        // scheduler query context (opaque to this header)
  Kind kind;
  uint32_t depth;     // EXPAND: matched hyperedges; SCAN: unused (0)
  EdgeId edges[];     // EXPAND: the partial embedding (depth entries);
                      // SCAN: the range [edges[0], edges[1]) into the
                      // scan table

  /// SCAN: the range of scan-table positions this task covers.
  uint32_t scan_lo() const { return edges[0]; }
  uint32_t scan_hi() const { return edges[1]; }

  /// Bytes of the allocation backing this task.
  size_t SizeBytes() const {
    return sizeof(Task) + sizeof(EdgeId) * (kind == Kind::kScan ? 2 : depth);
  }

  static Task* NewScan(void* owner, uint32_t lo, uint32_t hi) {
    Task* t = static_cast<Task*>(::malloc(sizeof(Task) + 2 * sizeof(EdgeId)));
    if (t == nullptr) ::abort();  // allocation failure is not recoverable
    t->owner = owner;
    t->kind = Kind::kScan;
    t->depth = 0;
    t->edges[0] = lo;
    t->edges[1] = hi;
    return t;
  }

  static Task* NewExpand(void* owner, const EdgeId* prefix,
                         uint32_t prefix_len, EdgeId next) {
    Task* t = static_cast<Task*>(
        ::malloc(sizeof(Task) + sizeof(EdgeId) * (prefix_len + 1)));
    if (t == nullptr) ::abort();  // allocation failure is not recoverable
    t->owner = owner;
    t->kind = Kind::kExpand;
    t->depth = prefix_len + 1;
    for (uint32_t i = 0; i < prefix_len; ++i) t->edges[i] = prefix[i];
    t->edges[prefix_len] = next;
    return t;
  }

  static void Free(Task* t) { ::free(t); }
};
static_assert(sizeof(Task) == 16, "EXPAND allocations carry no unused bytes");

/// Tracks live task bytes and their high-water mark across all workers;
/// the peak realises the left-hand side of the Theorem VI.1 memory bound,
/// which Exp-5 (Fig 11) compares against BFS materialisation. Both counters
/// are written on every task allocation and free, so the tracker takes a
/// cache line of its own.
class alignas(64) TaskMemoryTracker {
 public:
  void OnAlloc(size_t bytes) {
    const uint64_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }

  void OnFree(size_t bytes) {
    current_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  uint64_t current_bytes() const {
    return current_.load(std::memory_order_relaxed);
  }
  uint64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

  /// Returns the high-water mark and restarts it at the live bytes, so the
  /// next reading covers only what is allocated after this call.
  uint64_t TakePeak() {
    return peak_.exchange(current_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }

  void Reset() {
    current_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> current_{0};
  std::atomic<uint64_t> peak_{0};
};

}  // namespace hgmatch

#endif  // HGMATCH_PARALLEL_TASK_H_
