#ifndef HGMATCH_CORE_CANDIDATES_H_
#define HGMATCH_CORE_CANDIDATES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/indexed_hypergraph.h"
#include "core/matching_order.h"
#include "core/result.h"
#include "core/types.h"

namespace hgmatch {

/// Reusable per-thread expansion state: candidate generation (Algorithm 4)
/// plus embedding validation (Algorithm 5) for one compiled query against
/// one indexed data hypergraph. Buffers grow to the working-set size of the
/// query and are then reused, so the steady-state hot path performs no
/// allocation. The parallel engine creates one Expander per (worker, plan)
/// pair; an Expander itself is not thread-safe.
///
/// Every call first records, for each data vertex v of the partial
/// embedding m, the mask of earlier steps whose matched hyperedge contains
/// v (bit j = step j). d_Hm(v) is its popcount, membership in V_nonincdt is
/// an AND with the step's non-adjacent mask, and Theorem V.2's vertex
/// profile is the mask, so neither algorithm searches a sorted list.
/// Theorem V.2 is checked on the candidate's already-matched vertices only
/// (PlanStep::shared_profiles): a candidate from the step's signature table
/// that passes Observation V.5 has as many new vertices as the query edge,
/// and equal shared profiles then leave the new vertices equal profiles
/// too. The masks live in one dense array per thread,
/// shared by every Expander that runs on it: 8 B x |V| of the largest data
/// hypergraph the thread has expanded over. The array is all-zero between
/// calls; each call clears the entries it set, through a touched-vertex
/// list, before it returns.
class Expander {
 public:
  /// `data` and `plan` must outlive the Expander.
  Expander(const IndexedHypergraph& data, const QueryPlan& plan);

  /// The EXPAND operator body: given the partial embedding
  /// m = embedding[0..step-1], appends to *out_valid every data hyperedge c
  /// such that m + c is a valid partial embedding of the first step+1 query
  /// hyperedges. Runs Algorithm 4 then Algorithm 5 on each candidate, and
  /// accumulates the candidates/filtered counters of Fig 9 into *stats.
  /// For step 0 this is the SCAN operator (full signature-table scan).
  void Expand(const EdgeId* embedding, uint32_t step,
              std::vector<EdgeId>* out_valid, MatchStats* stats);

  /// Standalone GenerateHyperedgeCandidates (Algorithm 4); sorted output.
  /// Prefer Expand() in hot loops.
  void GenerateCandidates(const EdgeId* embedding, uint32_t step,
                          std::vector<EdgeId>* out);

  /// Standalone IsValidEmbedding (Algorithm 5) for candidate `c` appended
  /// at `step`. `vertex_count_ok` reports whether the Observation V.5 check
  /// passed (the "Filtered" counter of Fig 9). `c` may be any data
  /// hyperedge: one outside the step's signature table is rejected before
  /// Observation V.5 (vertex_count_ok = false), since the shared-vertex
  /// form of Theorem V.2 holds only for candidates from that table. Prefer
  /// Expand() in hot loops.
  bool IsValidEmbedding(const EdgeId* embedding, uint32_t step, EdgeId c,
                        bool* vertex_count_ok);

  /// Exact re-verification of a (partial or complete) embedding through the
  /// global vertex-class argument (see validation.h). Used by strict mode
  /// and tests.
  bool VerifyExact(const EdgeId* embedding, uint32_t size) const;

  const QueryPlan& plan() const { return *plan_; }
  const IndexedHypergraph& data() const { return *data_; }

 private:
  // Algorithm 4 / Algorithm 5 bodies. `step_mask` is the thread's dense
  // step-mask array for embedding[0..step-1], and `matched_vertices` is
  // |V(H_m)|, the number of its non-zero entries.
  void GenerateCandidatesImpl(const EdgeId* embedding, uint32_t step,
                              const uint64_t* step_mask,
                              std::vector<EdgeId>* out);
  bool IsValidImpl(uint32_t step, EdgeId c, const uint64_t* step_mask,
                   uint32_t matched_vertices, bool* vertex_count_ok);

  const IndexedHypergraph* data_;
  const QueryPlan* plan_;
  // Signature table of each step; nullptr when the data has none.
  std::vector<const Partition*> step_partition_;

  // Scratch, reused across calls.
  std::vector<VertexId> incident_scratch_;              // V_incdt per u
  std::vector<EdgeId> union_scratch_;                   // per-u posting union
  std::vector<EdgeId> intersect_scratch_;
  std::vector<EdgeId> candidate_scratch_;               // Expand() candidates
  std::vector<std::span<const EdgeId>> lists_;          // UnionMany inputs
  std::vector<PlanStep::Profile> data_profiles_;        // shared, Theorem V.2
};

}  // namespace hgmatch

#endif  // HGMATCH_CORE_CANDIDATES_H_
