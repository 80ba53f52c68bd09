#ifndef HGMATCH_CORE_MATCHING_ORDER_H_
#define HGMATCH_CORE_MATCHING_ORDER_H_

#include <cstdint>
#include <vector>

#include "core/indexed_hypergraph.h"
#include "core/signature.h"
#include "core/types.h"
#include "util/status.h"

namespace hgmatch {

/// One step of a compiled query plan: the i-th query hyperedge of the
/// matching order together with everything about it that depends only on the
/// query and the order (not on data), precomputed once per query so that the
/// per-embedding expansion work of Algorithms 4 and 5 is pure set algebra.
struct PlanStep {
  /// Query hyperedge matched at this step (id in the query hypergraph).
  EdgeId query_edge = kInvalidEdge;

  /// S(e_q): partition key into the data hypergraph.
  Signature signature;

  /// Previous steps j < i whose query hyperedge is adjacent to this one
  /// (Observation V.2), and for each such j the shared query vertices
  /// u in order[j] ∩ order[i] (Algorithm 4 lines 3-4).
  struct AdjacentPrev {
    uint32_t step = 0;
    std::vector<VertexId> shared;  // sorted query vertex ids
  };
  std::vector<AdjacentPrev> adjacent_prev;

  /// Previous steps j < i not adjacent to this edge (Observation V.3);
  /// their matched vertices form V_nonincdt in Algorithm 4 line 1.
  std::vector<uint32_t> nonadjacent_prev;

  /// For every shared query vertex u (flattened across adjacent_prev, same
  /// iteration order): label l_q(u) and degree d_q'(u) in the partial query
  /// BEFORE this step (Algorithm 4 line 5 / Observation V.4).
  struct SharedVertexInfo {
    Label label = kInvalidLabel;
    uint32_t degree_before = 0;
  };
  // Parallel to adjacent_prev.
  std::vector<std::vector<SharedVertexInfo>> shared_info;

  /// |V(q')| of the partial query AFTER this step (Observation V.5).
  uint32_t num_query_vertices_after = 0;

  /// Vertex profile (Definition V.3): a vertex's label and the set of step
  /// indices whose query hyperedge contains it. The step set is encoded as a
  /// 64-bit mask — query hypergraphs are limited to 64 hyperedges, far above
  /// any practical pattern size — so profiles are POD and multiset
  /// comparison is a sort + memcmp.
  struct Profile {
    Label label = kInvalidLabel;
    uint64_t steps_mask = 0;

    bool operator==(const Profile&) const = default;
    bool operator<(const Profile& other) const {
      if (label != other.label) return label < other.label;
      return steps_mask < other.steps_mask;
    }
  };

  /// Theorem V.2, shared half: the profiles of this step's query vertices
  /// that an earlier step already contains, with masks over steps j < i
  /// only (this step's bit left out). Stored sorted so two profile
  /// multisets compare with ==. The new vertices need no profile: every
  /// candidate comes from this step's signature table, so once Observation
  /// V.5 fixes their number, equal shared profiles leave them the same
  /// label multiset as the query's new vertices, all with mask {i}.
  std::vector<Profile> shared_profiles;  // sorted ascending
};

/// A compiled query: matching order ϕ (Definition V.1) plus per-step
/// precomputation. Built once per (query, data) pair by the plan generator
/// (Fig 3); the dataflow graph SCAN -> EXPAND* -> SINK follows the steps.
struct QueryPlan {
  const Hypergraph* query = nullptr;  // not owned

  /// Process-unique plan identity (1-based; 0 = unassigned), stamped at
  /// compilation. Engines key cached per-plan state (e.g. the scheduler's
  /// per-worker expanders) by uid rather than by plan address, so a freed
  /// plan whose heap address gets reused can never alias another plan's
  /// cached state.
  uint64_t uid = 0;

  std::vector<PlanStep> steps;

  uint32_t NumSteps() const { return static_cast<uint32_t>(steps.size()); }

  /// The matching order as a list of query edge ids.
  std::vector<EdgeId> Order() const;
};

/// Computes the matching order of Algorithm 3: start from the query
/// hyperedge with minimum cardinality Card(e, H), then repeatedly append the
/// connected hyperedge minimising Card(e, H) / |V_ϕ ∩ e|. Ties break toward
/// the smaller edge id so plans are deterministic. If the query hypergraph
/// is disconnected the order falls back to the minimum-cardinality edge of
/// the next component (documented deviation: the paper assumes connected
/// queries; candidate generation then degenerates to a partition scan for
/// the first edge of each further component).
std::vector<EdgeId> ComputeMatchingOrder(const Hypergraph& query,
                                         const IndexedHypergraph& data);

/// Builds a full query plan for `query` against `data` using
/// ComputeMatchingOrder. Fails on an empty query.
Result<QueryPlan> BuildQueryPlan(const Hypergraph& query,
                                 const IndexedHypergraph& data);

/// Builds a plan with a caller-supplied matching order (any permutation of
/// the query edge ids). Used by tests and by order-ablation benchmarks.
Result<QueryPlan> BuildQueryPlanWithOrder(const Hypergraph& query,
                                          std::vector<EdgeId> order);

/// Matching-order ablation variants (bench_ablation_order): Algorithm 3 is
/// compared against orders that drop one of its two ingredients.
enum class OrderVariant {
  kCardinality,     // Algorithm 3: min cardinality / max overlap
  kConnectedOnly,   // any connected order, ignoring cardinality (edge-id
                    // driven) — isolates the benefit of cardinality info
  kMaxCardinality,  // adversarial: *max* cardinality first (still connected)
  kAsGiven,         // query edge ids in declaration order (may disconnect)
};

/// Computes the requested order variant.
std::vector<EdgeId> ComputeMatchingOrderVariant(const Hypergraph& query,
                                                const IndexedHypergraph& data,
                                                OrderVariant variant);

}  // namespace hgmatch

#endif  // HGMATCH_CORE_MATCHING_ORDER_H_
