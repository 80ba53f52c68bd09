#include "core/candidates.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "core/validation.h"
#include "util/set_ops.h"

namespace hgmatch {

namespace {

// The calling thread's step masks: mask[v] has bit j set iff data vertex v
// lies in the hyperedge matched at step j of the partial embedding being
// expanded, and `touched` lists the non-zero entries. Shared by every
// Expander on the thread, so each call must leave it all-zero.
struct StepMasks {
  std::vector<uint64_t> mask;
  std::vector<VertexId> touched;
};

// Sets the thread's step masks for embedding[0..step-1] and clears exactly
// those entries again when it goes out of scope.
class StepMaskScope {
 public:
  StepMaskScope(const Hypergraph& h, const EdgeId* embedding, uint32_t step)
      : m_(ThreadStepMasks()) {
    assert(m_.touched.empty());
    if (m_.mask.size() < h.NumVertices()) m_.mask.resize(h.NumVertices());
    for (uint32_t j = 0; j < step; ++j) {
      for (VertexId v : h.edge(embedding[j])) {
        if (m_.mask[v] == 0) m_.touched.push_back(v);
        m_.mask[v] |= 1ULL << j;
      }
    }
  }
  ~StepMaskScope() {
    for (VertexId v : m_.touched) m_.mask[v] = 0;
    m_.touched.clear();
  }
  StepMaskScope(const StepMaskScope&) = delete;
  StepMaskScope& operator=(const StepMaskScope&) = delete;

  const uint64_t* mask() const { return m_.mask.data(); }
  // |V(H_m)|: distinct data vertices of the partial embedding.
  uint32_t matched_vertices() const {
    return static_cast<uint32_t>(m_.touched.size());
  }

 private:
  static StepMasks& ThreadStepMasks() {
    static thread_local StepMasks masks;
    return masks;
  }

  StepMasks& m_;
};

}  // namespace

Expander::Expander(const IndexedHypergraph& data, const QueryPlan& plan)
    : data_(&data), plan_(&plan) {
  step_partition_.reserve(plan.NumSteps());
  for (const PlanStep& s : plan.steps) {
    step_partition_.push_back(data.FindPartition(s.signature));
  }
}

void Expander::GenerateCandidatesImpl(const EdgeId* embedding, uint32_t step,
                                      const uint64_t* step_mask,
                                      std::vector<EdgeId>* out) {
  out->clear();
  const PlanStep& s = plan_->steps[step];
  const Partition* part = step_partition_[step];
  if (part == nullptr) return;  // Observation V.1: no table, no candidates.

  if (s.adjacent_prev.empty()) {
    // SCAN semantics: first hyperedge of the order (or of a disconnected
    // component) matches every hyperedge of its signature table.
    *out = part->edges();
  } else {
    const Hypergraph& h = data_->graph();

    // Line 1: vertices matched by non-adjacent query hyperedges must not be
    // incident to the new hyperedge (Observation V.3): V_nonincdt is every v
    // with a non-adjacent step in its mask.
    uint64_t nonadjacent = 0;
    for (uint32_t j : s.nonadjacent_prev) nonadjacent |= 1ULL << j;

    // Lines 3-7: for each shared query vertex u, collect V_incdt (the data
    // vertices that may be matched to u: Observations V.2/V.3/V.4), union
    // their posting lists in this signature's table, and intersect across
    // all shared vertices.
    bool first = true;
    for (size_t a = 0; a < s.adjacent_prev.size(); ++a) {
      const auto& ap = s.adjacent_prev[a];
      const std::span<const VertexId> fe = h.edge(embedding[ap.step]);
      for (size_t k = 0; k < ap.shared.size(); ++k) {
        const PlanStep::SharedVertexInfo info = s.shared_info[a][k];
        incident_scratch_.clear();
        for (VertexId v : fe) {
          if (h.label(v) != info.label) continue;
          const uint64_t m = step_mask[v];
          if (static_cast<uint32_t>(std::popcount(m)) != info.degree_before) {
            continue;
          }
          if ((m & nonadjacent) != 0) continue;
          incident_scratch_.push_back(v);  // fe sorted => scratch sorted
        }
        if (incident_scratch_.empty()) {
          out->clear();
          return;
        }
        lists_.clear();
        for (VertexId v : incident_scratch_) {
          const std::span<const EdgeId> postings = part->Postings(v);
          if (!postings.empty()) lists_.push_back(postings);
        }
        UnionMany(lists_, &union_scratch_);
        if (first) {
          out->swap(union_scratch_);
          first = false;
        } else {
          Intersect(*out, union_scratch_, &intersect_scratch_);
          out->swap(intersect_scratch_);
        }
        if (out->empty()) return;
      }
    }
  }

  // A data hyperedge can appear in at most one embedding position (query
  // hyperedges are distinct vertex sets and f is injective); drop matched
  // edges that share this signature so downstream validation never sees a
  // duplicate.
  for (uint32_t j = 0; j < step; ++j) {
    if (data_->PartitionOf(embedding[j]) != part->id()) continue;
    auto it = std::lower_bound(out->begin(), out->end(), embedding[j]);
    if (it != out->end() && *it == embedding[j]) out->erase(it);
  }
}

bool Expander::IsValidImpl(uint32_t step, EdgeId c, const uint64_t* step_mask,
                           uint32_t matched_vertices, bool* vertex_count_ok) {
  *vertex_count_ok = false;
  const PlanStep& s = plan_->steps[step];
  const Hypergraph& h = data_->graph();

  // Observation V.5: |V(q')| must equal |V(H_m')|.
  uint32_t new_vertices = 0;
  for (VertexId v : h.edge(c)) {
    if (step_mask[v] == 0) ++new_vertices;
  }
  if (matched_vertices + new_vertices != s.num_query_vertices_after) {
    return false;
  }
  *vertex_count_ok = true;

  // Theorem V.2 on the already-matched vertices of c: their (label, earlier
  // steps) multiset must equal the precomputed shared query profiles. c
  // comes from the step's signature table and has passed Observation V.5,
  // so its new vertices then match the query's new ones by subtraction.
  // This loop stays apart from the one above so that the candidates V.5
  // rejects never load a label.
  data_profiles_.clear();
  for (VertexId v : h.edge(c)) {
    const uint64_t m = step_mask[v];
    if (m != 0) data_profiles_.push_back({h.label(v), m});
  }
  std::sort(data_profiles_.begin(), data_profiles_.end());
  return data_profiles_ == s.shared_profiles;
}

void Expander::Expand(const EdgeId* embedding, uint32_t step,
                      std::vector<EdgeId>* out_valid, MatchStats* stats) {
  const StepMaskScope masks(data_->graph(), embedding, step);
  GenerateCandidatesImpl(embedding, step, masks.mask(), &candidate_scratch_);
  stats->candidates += candidate_scratch_.size();
  out_valid->clear();
  for (EdgeId c : candidate_scratch_) {
    bool vertex_count_ok = false;
    if (IsValidImpl(step, c, masks.mask(), masks.matched_vertices(),
                    &vertex_count_ok)) {
      out_valid->push_back(c);
    }
    if (vertex_count_ok) ++stats->filtered;
  }
  ++stats->expansions;
}

void Expander::GenerateCandidates(const EdgeId* embedding, uint32_t step,
                                  std::vector<EdgeId>* out) {
  const StepMaskScope masks(data_->graph(), embedding, step);
  GenerateCandidatesImpl(embedding, step, masks.mask(), out);
}

bool Expander::IsValidEmbedding(const EdgeId* embedding, uint32_t step,
                                EdgeId c, bool* vertex_count_ok) {
  const Partition* part = step_partition_[step];
  if (part == nullptr || data_->PartitionOf(c) != part->id()) {
    *vertex_count_ok = false;
    return false;
  }
  const StepMaskScope masks(data_->graph(), embedding, step);
  return IsValidImpl(step, c, masks.mask(), masks.matched_vertices(),
                     vertex_count_ok);
}

bool Expander::VerifyExact(const EdgeId* embedding, uint32_t size) const {
  std::vector<EdgeId> order;
  order.reserve(size);
  for (uint32_t i = 0; i < size; ++i) {
    order.push_back(plan_->steps[i].query_edge);
  }
  return EmbeddingConsistent(*plan_->query, data_->graph(), order.data(),
                             embedding, size);
}

}  // namespace hgmatch
