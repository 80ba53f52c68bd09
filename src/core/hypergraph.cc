#include "core/hypergraph.h"

#include <algorithm>
#include <functional>
#include <string>

#include "util/rng.h"
#include "util/set_ops.h"

namespace hgmatch {

namespace {

// 64-bit content hash of a canonical (sorted, unique) vertex set and its
// hyperedge label.
uint64_t HashEdge(std::span<const VertexId> vertices, Label edge_label) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (VertexId v : vertices) {
    h = Mix64(h ^ (static_cast<uint64_t>(v) + 0x100000001b3ULL));
  }
  return Mix64(h ^ edge_label);
}

}  // namespace

Hypergraph::IncidenceLists::IncidenceLists(IncidenceLists&& other) noexcept
    : built(other.built.load(std::memory_order_relaxed)),
      offsets(std::move(other.offsets)),
      edges(std::move(other.edges)) {
  other.built.store(false, std::memory_order_relaxed);
}

Hypergraph::IncidenceLists& Hypergraph::IncidenceLists::operator=(
    IncidenceLists&& other) noexcept {
  built.store(other.built.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  offsets = std::move(other.offsets);
  edges = std::move(other.edges);
  other.built.store(false, std::memory_order_relaxed);
  return *this;
}

Hypergraph Hypergraph::Clone() const {
  Hypergraph copy;
  copy.labels_ = labels_;
  copy.edge_offsets_ = edge_offsets_;
  copy.edge_vertices_ = edge_vertices_;
  copy.edge_labels_ = edge_labels_;
  copy.edge_slots_ = edge_slots_;
  copy.num_labels_ = num_labels_;
  copy.num_edge_labels_ = num_edge_labels_;
  copy.max_arity_ = max_arity_;
  return copy;
}

VertexId Hypergraph::AddVertex(Label label) {
  labels_.push_back(label);
  incidence_.built.store(false, std::memory_order_relaxed);
  if (label + 1 > num_labels_) num_labels_ = label + 1;
  return static_cast<VertexId>(labels_.size() - 1);
}

VertexId Hypergraph::AddVertices(size_t count, Label label) {
  const VertexId first = static_cast<VertexId>(labels_.size());
  labels_.resize(labels_.size() + count, label);
  incidence_.built.store(false, std::memory_order_relaxed);
  if (count > 0 && label + 1 > num_labels_) num_labels_ = label + 1;
  return first;
}

Result<EdgeId> Hypergraph::AddEdge(std::span<const VertexId> vertices,
                                   Label edge_label) {
  // Appending below may reallocate edge_vertices_, so a span into it (say,
  // another hyperedge of this graph) is copied first.
  const std::less<const VertexId*> before;
  if (!vertices.empty() &&
      !before(vertices.data(), edge_vertices_.data()) &&
      before(vertices.data(), edge_vertices_.data() + edge_vertices_.size())) {
    return AddEdge(VertexSet(vertices.begin(), vertices.end()), edge_label);
  }
  // Canonicalise at the tail of edge_vertices_; a rejected or repeated
  // hyperedge is cut off again.
  const size_t start = edge_vertices_.size();
  edge_vertices_.insert(edge_vertices_.end(), vertices.begin(),
                        vertices.end());
  const auto first = edge_vertices_.begin() + static_cast<ptrdiff_t>(start);
  std::sort(first, edge_vertices_.end());
  edge_vertices_.erase(std::unique(first, edge_vertices_.end()),
                       edge_vertices_.end());
  const std::span<const VertexId> members(edge_vertices_.data() + start,
                                          edge_vertices_.size() - start);
  if (members.empty()) {
    return Status::InvalidArgument("hyperedge must be non-empty");
  }
  if (members.back() >= labels_.size()) {
    const VertexId unknown = members.back();
    edge_vertices_.resize(start);
    return Status::InvalidArgument("hyperedge mentions unknown vertex " +
                                   std::to_string(unknown));
  }
  if (2 * (NumEdges() + 1) > edge_slots_.size()) GrowEdgeSlots();
  EdgeId& slot = edge_slots_[SlotOf(members, edge_label,
                                    HashEdge(members, edge_label))];
  if (slot != kInvalidEdge) {
    edge_vertices_.resize(start);
    return slot;
  }
  const EdgeId id = static_cast<EdgeId>(NumEdges());
  slot = id;
  max_arity_ = std::max(max_arity_, static_cast<uint32_t>(members.size()));
  if (edge_label + 1 > num_edge_labels_) num_edge_labels_ = edge_label + 1;
  if (edge_offsets_.empty()) edge_offsets_.push_back(0);
  edge_offsets_.push_back(edge_vertices_.size());
  edge_labels_.push_back(edge_label);
  incidence_.built.store(false, std::memory_order_relaxed);
  return id;
}

size_t Hypergraph::SlotOf(std::span<const VertexId> vertices,
                          Label edge_label, uint64_t hash) const {
  const size_t mask = edge_slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const EdgeId e = edge_slots_[i];
    if (e == kInvalidEdge ||
        (edge_labels_[e] == edge_label &&
         std::ranges::equal(edge(e), vertices))) {
      return i;
    }
  }
}

void Hypergraph::GrowEdgeSlots() {
  edge_slots_.assign(std::max<size_t>(8, 2 * edge_slots_.size()),
                     kInvalidEdge);
  const size_t mask = edge_slots_.size() - 1;
  for (EdgeId e = 0; e < NumEdges(); ++e) {
    size_t i = HashEdge(edge(e), edge_labels_[e]) & mask;
    while (edge_slots_[i] != kInvalidEdge) i = (i + 1) & mask;
    edge_slots_[i] = e;
  }
}

EdgeId Hypergraph::FindEdge(std::span<const VertexId> vertices,
                            Label edge_label) const {
  if (edge_slots_.empty()) return kInvalidEdge;
  VertexSet canonical(vertices.begin(), vertices.end());
  SortUnique(&canonical);
  return edge_slots_[SlotOf(canonical, edge_label,
                            HashEdge(canonical, edge_label))];
}

void Hypergraph::BuildIncidence() const {
  std::lock_guard<std::mutex> lock(incidence_.mutex);
  if (incidence_.built.load(std::memory_order_relaxed)) return;
  // Count each vertex's degree into offsets[v], turn the counts into start
  // offsets, fill he(v) in edge-id order while offsets[v] walks to the end
  // of v's list, then shift the offsets back by one vertex.
  std::vector<uint64_t>& offsets = incidence_.offsets;
  std::vector<EdgeId>& edges = incidence_.edges;
  offsets.assign(NumVertices() + 1, 0);
  for (VertexId v : edge_vertices_) ++offsets[v];
  uint64_t sum = 0;
  for (uint64_t& o : offsets) {
    const uint64_t count = o;
    o = sum;
    sum += count;
  }
  edges.resize(edge_vertices_.size());
  for (EdgeId e = 0; e < NumEdges(); ++e) {
    for (VertexId v : edge(e)) edges[offsets[v]++] = e;
  }
  for (size_t v = NumVertices(); v > 0; --v) offsets[v] = offsets[v - 1];
  offsets[0] = 0;
  incidence_.built.store(true, std::memory_order_release);
}

double Hypergraph::AverageArity() const {
  if (NumEdges() == 0) return 0;
  return static_cast<double>(NumIncidences()) /
         static_cast<double>(NumEdges());
}

VertexSet Hypergraph::AdjacentVertices(VertexId v) const {
  VertexSet out;
  for (EdgeId e : incident(v)) {
    const std::span<const VertexId> members = edge(e);
    out.insert(out.end(), members.begin(), members.end());
  }
  SortUnique(&out);
  // Remove v itself.
  auto it = std::lower_bound(out.begin(), out.end(), v);
  if (it != out.end() && *it == v) out.erase(it);
  return out;
}

EdgeSet Hypergraph::AdjacentEdges(EdgeId e) const {
  EdgeSet out;
  for (VertexId v : edge(e)) {
    const IncidentEdges he = incident(v);
    out.insert(out.end(), he.begin(), he.end());
  }
  SortUnique(&out);
  auto it = std::lower_bound(out.begin(), out.end(), e);
  if (it != out.end() && *it == e) out.erase(it);
  return out;
}

bool Hypergraph::IsConnected() const {
  if (NumEdges() == 0) return true;
  std::vector<uint8_t> edge_seen(NumEdges(), 0);
  std::vector<uint8_t> vertex_seen(labels_.size(), 0);
  std::vector<EdgeId> stack = {0};
  edge_seen[0] = 1;
  size_t reached = 1;
  while (!stack.empty()) {
    const EdgeId e = stack.back();
    stack.pop_back();
    for (VertexId v : edge(e)) {
      if (vertex_seen[v]) continue;
      vertex_seen[v] = 1;
      for (EdgeId next : incident(v)) {
        if (!edge_seen[next]) {
          edge_seen[next] = 1;
          ++reached;
          stack.push_back(next);
        }
      }
    }
  }
  return reached == NumEdges();
}

uint64_t Hypergraph::MemoryBytes() const {
  const IncidenceLists& incidence = Incidence();
  return labels_.capacity() * sizeof(Label) +
         edge_offsets_.capacity() * sizeof(uint64_t) +
         edge_vertices_.capacity() * sizeof(VertexId) +
         edge_labels_.capacity() * sizeof(Label) +
         edge_slots_.capacity() * sizeof(EdgeId) +
         incidence.offsets.capacity() * sizeof(uint64_t) +
         incidence.edges.capacity() * sizeof(EdgeId);
}

}  // namespace hgmatch
