#include "core/canonical.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "core/types.h"

namespace hgmatch {

namespace {

void AppendU32(std::string* s, uint32_t v) {
  char b[sizeof(v)];
  std::memcpy(b, &v, sizeof(v));
  s->append(b, sizeof(b));
}

// Rank-compresses ordered signatures into dense colours 0..k-1 preserving
// signature order; returns k. The colour of an element is the rank of its
// signature, so colours are a pure function of the signature multiset —
// the property that keeps every step of the search isomorphism-invariant.
template <typename Sig>
uint32_t CompressColours(const std::vector<Sig>& sigs,
                         std::vector<uint32_t>* colours) {
  const uint32_t n = static_cast<uint32_t>(sigs.size());
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&sigs](uint32_t a, uint32_t b) {
    return sigs[a] < sigs[b];
  });
  colours->assign(n, 0);
  uint32_t colour = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (i > 0 && sigs[order[i - 1]] < sigs[order[i]]) ++colour;
    (*colours)[order[i]] = colour;
  }
  return n == 0 ? 0 : colour + 1;
}

// Individualisation-refinement canonizer over one (tiny) query hypergraph.
// The refined colour partition is invariant under isomorphism, the target
// cell and the set of individualisation choices depend only on that
// partition, and every choice is explored — so the lexicographically
// smallest leaf certificate is a canonical form. The node budget turns
// pathological symmetric instances into a clean abort (exact-key fallback)
// instead of a factorial search.
class Canonizer {
 public:
  Canonizer(const Hypergraph& q, const CanonicalOptions& options)
      : q_(q),
        options_(options),
        n_(static_cast<uint32_t>(q.NumVertices())),
        m_(static_cast<uint32_t>(q.NumEdges())) {}

  // Runs the search from the label-induced initial colouring. Returns
  // false when the node budget ran out.
  bool Run(std::string* certificate) {
    std::vector<Label> labels(n_);
    for (VertexId v = 0; v < n_; ++v) labels[v] = q_.label(v);
    std::vector<uint32_t> vcol;
    CompressColours(labels, &vcol);
    Search(std::move(vcol));
    if (aborted_ || !have_best_) return false;
    *certificate = std::move(best_);
    return true;
  }

 private:
  // One round of alternating hyperedge/vertex colour refinement to a fixed
  // point. A hyperedge's signature is (its previous colour, its label, the
  // sorted multiset of member colours) — the colour-refined generalisation
  // of the Definition IV.1 partition key, whose initial round reproduces
  // exactly that key's classes; a vertex's signature is (its previous
  // colour, the sorted multiset of incident hyperedge colours). Both
  // include the previous colour, so partitions only ever split and the
  // fixed point is reached once neither colour count grows.
  void Refine(std::vector<uint32_t>* vcol_io) {
    std::vector<uint32_t>& vcol = *vcol_io;
    std::vector<uint32_t> ecol(m_, 0);
    uint32_t num_vcol = 0;
    uint32_t num_ecol = 0;
    for (;;) {
      std::vector<std::vector<uint32_t>> esig(m_);
      for (EdgeId e = 0; e < m_; ++e) {
        std::vector<uint32_t>& s = esig[e];
        s.reserve(q_.arity(e) + 2);
        s.push_back(ecol[e]);
        s.push_back(q_.edge_label(e));
        for (VertexId v : q_.edge(e)) s.push_back(vcol[v]);
        std::sort(s.begin() + 2, s.end());
      }
      const uint32_t new_ecol = CompressColours(esig, &ecol);
      std::vector<std::vector<uint32_t>> vsig(n_);
      for (VertexId v = 0; v < n_; ++v) {
        std::vector<uint32_t>& s = vsig[v];
        s.reserve(q_.degree(v) + 1);
        s.push_back(vcol[v]);
        for (EdgeId e : q_.incident(v)) s.push_back(ecol[e]);
        std::sort(s.begin() + 1, s.end());
      }
      const uint32_t new_vcol = CompressColours(vsig, &vcol);
      if (new_vcol == num_vcol && new_ecol == num_ecol) return;
      num_vcol = new_vcol;
      num_ecol = new_ecol;
    }
  }

  // The certificate of a discrete colouring: the full labelled structure
  // with vertices renumbered by colour rank and hyperedges (renumbered,
  // member-sorted, label-tagged) in sorted order. Equal certificates of
  // two hypergraphs exhibit an isomorphism between them.
  std::string Certificate(const std::vector<uint32_t>& vcol) const {
    std::string cert;
    cert.reserve(4 * (2 + n_ + m_) + 4 * q_.NumIncidences() + 4 * m_);
    AppendU32(&cert, n_);
    std::vector<VertexId> by_rank(n_);
    for (VertexId v = 0; v < n_; ++v) by_rank[vcol[v]] = v;
    for (uint32_t r = 0; r < n_; ++r) AppendU32(&cert, q_.label(by_rank[r]));
    AppendU32(&cert, m_);
    std::vector<std::string> edges;
    edges.reserve(m_);
    for (EdgeId e = 0; e < m_; ++e) {
      std::vector<uint32_t> members;
      members.reserve(q_.arity(e));
      for (VertexId v : q_.edge(e)) members.push_back(vcol[v]);
      std::sort(members.begin(), members.end());
      std::string es;
      es.reserve(4 * (members.size() + 2));
      AppendU32(&es, static_cast<uint32_t>(members.size()));
      for (uint32_t r : members) AppendU32(&es, r);
      AppendU32(&es, q_.edge_label(e));
      edges.push_back(std::move(es));
    }
    std::sort(edges.begin(), edges.end());
    for (const std::string& es : edges) cert += es;
    return cert;
  }

  void Search(std::vector<uint32_t> vcol) {
    if (aborted_ || ++nodes_ > options_.max_search_nodes) {
      aborted_ = true;
      return;
    }
    Refine(&vcol);
    // Target cell: the smallest colour with more than one vertex — a
    // choice that depends only on the (invariant) partition.
    std::vector<uint32_t> count(n_, 0);
    for (uint32_t c : vcol) ++count[c];
    uint32_t target = n_;
    for (uint32_t c = 0; c < n_; ++c) {
      if (count[c] > 1) {
        target = c;
        break;
      }
    }
    if (target == n_) {  // discrete: every vertex its own colour
      std::string cert = Certificate(vcol);
      if (!have_best_ || cert < best_) {
        best_ = std::move(cert);
        have_best_ = true;
      }
      return;
    }
    // Individualise each vertex of the target cell in turn: it keeps the
    // cell's colour alone, its classmates (and every later colour) shift
    // up one, and refinement propagates the split.
    for (VertexId v = 0; v < n_; ++v) {
      if (vcol[v] != target) continue;
      std::vector<uint32_t> child(vcol);
      for (VertexId u = 0; u < n_; ++u) {
        if (child[u] > target || (child[u] == target && u != v)) ++child[u];
      }
      Search(std::move(child));
      if (aborted_) return;
    }
  }

  const Hypergraph& q_;
  const CanonicalOptions& options_;
  const uint32_t n_;
  const uint32_t m_;
  uint32_t nodes_ = 0;
  bool aborted_ = false;
  bool have_best_ = false;
  std::string best_;
};

}  // namespace

std::string ExactQueryKey(const Hypergraph& q) {
  std::string key;
  key.reserve(16 + q.NumVertices() * sizeof(Label) +
              q.NumIncidences() * sizeof(VertexId) +
              q.NumEdges() * (sizeof(Label) + sizeof(uint64_t)));
  auto append = [&key](const void* data, size_t bytes) {
    key.append(static_cast<const char*>(data), bytes);
  };
  const uint64_t nv = q.NumVertices();
  append(&nv, sizeof(nv));
  for (VertexId v = 0; v < q.NumVertices(); ++v) {
    const Label l = q.label(v);
    append(&l, sizeof(l));
  }
  for (EdgeId e = 0; e < q.NumEdges(); ++e) {
    const std::span<const VertexId> vs = q.edge(e);
    const uint64_t arity = vs.size();
    append(&arity, sizeof(arity));
    append(vs.data(), vs.size() * sizeof(VertexId));
    const Label el = q.edge_label(e);
    append(&el, sizeof(el));
  }
  return key;
}

CanonicalKey CanonicalQueryKey(const Hypergraph& q,
                               const CanonicalOptions& options) {
  CanonicalKey out;
  out.exact = ExactQueryKey(q);
  if (q.NumVertices() > options.max_vertices ||
      q.NumEdges() > options.max_edges) {
    out.key = 'X' + out.exact;
    return out;
  }
  Canonizer canonizer(q, options);
  std::string cert;
  if (!canonizer.Run(&cert)) {
    out.key = 'X' + out.exact;
    return out;
  }
  out.key = 'C' + std::move(cert);
  out.isomorphism_invariant = true;
  return out;
}

}  // namespace hgmatch
