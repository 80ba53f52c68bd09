#ifndef HGMATCH_CORE_HYPERGRAPH_H_
#define HGMATCH_CORE_HYPERGRAPH_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <span>
#include <vector>

#include "core/types.h"
#include "util/status.h"

namespace hgmatch {

/// he(v): a read-only view of one vertex's incident hyperedges inside the
/// hypergraph's incidence array, valid until the hypergraph is next
/// mutated or destroyed. It converts implicitly to an owned EdgeSet for a
/// caller that keeps a copy (say, in a map key); everyone else reads it in
/// place.
class IncidentEdges : public std::span<const EdgeId> {
 public:
  using std::span<const EdgeId>::span;
  operator EdgeSet() const { return EdgeSet(begin(), end()); }
};

/// An undirected, vertex-labelled simple hypergraph H = (V, E, l, Sigma)
/// (Definition III.1). Vertices carry a label; hyperedges are non-empty sets
/// of vertices. The structure is append-only: vertices and hyperedges are
/// added once and never removed, which matches the offline-preprocess /
/// online-query lifecycle of HGMatch (Section IV.A).
///
/// Invariants maintained by this class:
///  * every hyperedge's vertex list is sorted ascending and duplicate-free
///    ("repeated vertices in one hyperedge" are removed, as in the paper's
///    dataset preprocessing, Section VII.A);
///  * no two hyperedges contain the same vertex set (repeated hyperedges are
///    rejected at insert);
///  * each vertex's incident-hyperedge list he(v) is sorted ascending.
///
/// Layout: everything lives in flat arrays, a few per graph whatever its
/// size. Hyperedge e is edge_vertices_[edge_offsets_[e], edge_offsets_[e+1])
/// next to its label in edge_labels_. The duplicate check is a table of
/// 4-byte edge ids probed by content hash; it compares against the flat
/// arrays, so no vertex set is stored twice. The incidence lists he(v) are
/// one CSR pair (offsets per vertex, edge ids), built by a counting pass
/// over the hyperedges in id order, which leaves every he(v) sorted.
///
/// The incidence lists are built lazily, on the first incident() or
/// degree() read after a mutation, so that callers which add edges never
/// need a sealing step. The duplicate check may be released once the graph
/// is complete (ReleaseEdgeSlots) and is then rebuilt on the next
/// FindEdge() or AddEdge(). A finished graph may be read from any number
/// of threads at once, first reads included: each build runs under a mutex
/// and publishes through an acquire/release flag. Mutating a graph while
/// another thread reads it is, as for any container, a data race.
class Hypergraph {
 public:
  Hypergraph() = default;

  // Movable but not copyable by accident: copies of multi-GB hypergraphs
  // should be explicit via Clone().
  Hypergraph(Hypergraph&&) = default;
  Hypergraph& operator=(Hypergraph&&) = default;
  Hypergraph(const Hypergraph&) = delete;
  Hypergraph& operator=(const Hypergraph&) = delete;

  /// Deep copy, for tests and tools that genuinely need one.
  Hypergraph Clone() const;

  /// Adds a vertex with the given label and returns its id (ids are dense,
  /// starting at 0).
  VertexId AddVertex(Label label);

  /// Adds `count` vertices sharing one label; returns the first new id.
  VertexId AddVertices(size_t count, Label label);

  /// Adds a hyperedge over `vertices` (order/duplicates irrelevant; the set
  /// is canonicalised), optionally carrying a hyperedge label
  /// (paper footnote 2: edge-labelled hypergraphs add an equality
  /// constraint on hyperedge labels, which this library folds into the
  /// signature partition key). Returns the new edge id, or the id of the
  /// existing identical (vertex set, label) hyperedge (the hypergraph stays
  /// simple), or InvalidArgument if the set is empty or mentions an unknown
  /// vertex. Unlabelled hyperedges carry label 0.
  Result<EdgeId> AddEdge(std::span<const VertexId> vertices,
                         Label edge_label = 0);
  Result<EdgeId> AddEdge(std::initializer_list<VertexId> vertices,
                         Label edge_label = 0) {
    return AddEdge(std::span<const VertexId>(vertices), edge_label);
  }

  size_t NumVertices() const { return labels_.size(); }
  size_t NumEdges() const { return edge_labels_.size(); }

  /// Number of distinct labels actually used (max label + 1 over vertices).
  size_t NumLabels() const { return num_labels_; }

  Label label(VertexId v) const { return labels_[v]; }

  /// The (sorted) vertex set of a hyperedge.
  std::span<const VertexId> edge(EdgeId e) const {
    return {edge_vertices_.data() + edge_offsets_[e],
            edge_vertices_.data() + edge_offsets_[e + 1]};
  }

  /// Arity a(e): number of vertices in the hyperedge.
  uint32_t arity(EdgeId e) const {
    return static_cast<uint32_t>(edge_offsets_[e + 1] - edge_offsets_[e]);
  }

  /// Incident hyperedges he(v), sorted ascending by edge id.
  IncidentEdges incident(VertexId v) const {
    const IncidenceLists& lists = Incidence();
    const uint64_t* offsets = lists.offsets.data() + v;
    return {lists.edges.data() + offsets[0], lists.edges.data() + offsets[1]};
  }

  /// Degree d(v) = |he(v)|.
  uint32_t degree(VertexId v) const {
    const uint64_t* offsets = Incidence().offsets.data() + v;
    return static_cast<uint32_t>(offsets[1] - offsets[0]);
  }

  /// Maximum arity over all hyperedges (0 if edgeless).
  uint32_t MaxArity() const { return max_arity_; }

  /// Average arity a_H = sum a(e) / |E| (0 if edgeless).
  double AverageArity() const;

  /// Total number of (vertex, hyperedge) incidences = sum of arities.
  uint64_t NumIncidences() const { return edge_vertices_.size(); }

  /// All vertices adjacent to v (vertices sharing a hyperedge with v,
  /// excluding v itself), sorted. Computed on demand.
  VertexSet AdjacentVertices(VertexId v) const;

  /// All hyperedges adjacent to e (sharing at least one vertex, excluding e),
  /// sorted. Computed on demand.
  EdgeSet AdjacentEdges(EdgeId e) const;

  /// Hyperedge label (0 unless set at AddEdge).
  Label edge_label(EdgeId e) const { return edge_labels_[e]; }

  /// Number of distinct hyperedge labels in use (max + 1; 1 when only the
  /// default label 0 occurs, 0 when edgeless).
  size_t NumEdgeLabels() const { return num_edge_labels_; }

  /// Returns the id of the hyperedge with exactly this vertex set (order
  /// and duplicates in `vertices` are irrelevant) and this hyperedge label,
  /// or kInvalidEdge when absent. O(1) expected (content hash).
  EdgeId FindEdge(std::span<const VertexId> vertices,
                  Label edge_label = 0) const;
  EdgeId FindEdge(std::initializer_list<VertexId> vertices,
                  Label edge_label = 0) const {
    return FindEdge(std::span<const VertexId>(vertices), edge_label);
  }

  /// Frees the duplicate check (8 to 16 B per hyperedge), for a graph that
  /// gets no more hyperedges and few FindEdge() calls. The next FindEdge()
  /// or AddEdge() rebuilds it.
  void ReleaseEdgeSlots();

  /// True iff the hyperedge set is connected when viewed as a graph whose
  /// nodes are hyperedges and whose links are shared vertices. Vertices in
  /// no hyperedge are ignored. An edgeless hypergraph counts as connected.
  bool IsConnected() const;

  /// Bytes held by the hypergraph (what the paper calls the "graph size"
  /// in Exp-1): the capacity of every array, the incidence lists included.
  uint64_t MemoryBytes() const;

 private:
  // Arrays derived from the hyperedges and built on first use: `built`
  // turns true, with release order, once `value` covers the current
  // hyperedges; `mutex` lets one reader build it. Moving one carries the
  // value and the flag over and leaves the source unbuilt.
  template <typename T>
  struct Derived {
    Derived() = default;
    Derived(Derived&& other) noexcept
        : built(other.built.load(std::memory_order_relaxed)),
          value(std::move(other.value)) {
      other.built.store(false, std::memory_order_relaxed);
    }
    Derived& operator=(Derived&& other) noexcept {
      built.store(other.built.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      value = std::move(other.value);
      other.built.store(false, std::memory_order_relaxed);
      return *this;
    }

    std::mutex mutex;
    std::atomic<bool> built{false};
    T value;
  };

  // The CSR incidence lists: he(v) is edges[offsets[v], offsets[v + 1]).
  struct IncidenceLists {
    std::vector<uint64_t> offsets;
    std::vector<EdgeId> edges;
  };

  // The incidence lists of the current hyperedges, built first if needed.
  const IncidenceLists& Incidence() const {
    if (!incidence_.built.load(std::memory_order_acquire)) BuildIncidence();
    return incidence_.value;
  }
  void BuildIncidence() const;

  // The duplicate table, rebuilt first if it was released.
  const std::vector<EdgeId>& EdgeSlots() const {
    if (!edge_slots_.built.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(edge_slots_.mutex);
      if (!edge_slots_.built.load(std::memory_order_relaxed)) {
        FillEdgeSlots(NumEdges());
      }
    }
    return edge_slots_.value;
  }
  // Rebuilds the duplicate table with room for `capacity` hyperedges (the
  // smallest power of two, and at least 8, holding twice that many slots)
  // and inserts every hyperedge.
  void FillEdgeSlots(size_t capacity) const;

  // The slot of the duplicate table holding the hyperedge with these
  // canonical vertices and label, whose hash is `hash`, or the empty slot
  // where it would go.
  size_t SlotOf(std::span<const VertexId> vertices, Label edge_label,
                uint64_t hash) const;

  std::vector<Label> labels_;
  // Hyperedge e: edge_vertices_[edge_offsets_[e], edge_offsets_[e + 1]).
  // edge_offsets_ stays empty until the first hyperedge is added.
  std::vector<uint64_t> edge_offsets_;
  std::vector<VertexId> edge_vertices_;
  std::vector<Label> edge_labels_;
  // Duplicate check, (vertex set, label) -> edge id: open addressing with
  // linear probing over a power-of-two array at most half full;
  // kInvalidEdge marks an empty slot.
  mutable Derived<std::vector<EdgeId>> edge_slots_;
  mutable Derived<IncidenceLists> incidence_;
  size_t num_labels_ = 0;
  size_t num_edge_labels_ = 0;
  uint32_t max_arity_ = 0;
};

}  // namespace hgmatch

#endif  // HGMATCH_CORE_HYPERGRAPH_H_
