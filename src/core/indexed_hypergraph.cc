#include "core/indexed_hypergraph.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace hgmatch {

IndexedHypergraph IndexedHypergraph::Build(Hypergraph graph) {
  IndexedHypergraph out;
  out.arrays_ = std::make_unique<TableArrays>();
  TableArrays& a = *out.arrays_;
  a.graph = std::move(graph);
  a.graph.ReleaseEdgeSlots();
  const Hypergraph& h = a.graph;
  if (h.NumIncidences() > std::numeric_limits<uint32_t>::max()) {
    std::fprintf(stderr, "IndexedHypergraph: 2^32 or more incidences\n");
    std::abort();
  }

  // Assign every hyperedge to its signature's table, counting each table's
  // hyperedges and incidences. A new table's first hyperedge is the one
  // that opens it.
  out.edge_partition_.resize(h.NumEdges());
  out.signature_slots_.assign(1, {0, kInvalidEdge});
  std::vector<uint64_t> table_hash;
  std::vector<uint32_t> num_edges, num_postings;
  Signature key, scratch;
  for (EdgeId e = 0; e < h.NumEdges(); ++e) {
    SignatureKeyOf(h, e, &key);
    const uint64_t hash = HashSignature(key);
    SignatureSlot& slot = out.signature_slots_[out.SlotOf(key, hash, &scratch)];
    PartitionId p;
    if (slot.first_edge != kInvalidEdge) {
      p = out.edge_partition_[slot.first_edge];
    } else {
      p = static_cast<PartitionId>(table_hash.size());
      slot = {static_cast<uint32_t>(hash >> 32), e};
      table_hash.push_back(hash);
      num_edges.push_back(0);
      num_postings.push_back(0);
    }
    out.edge_partition_[e] = p;
    ++num_edges[p];
    num_postings[p] += h.arity(e);
    if (2 * table_hash.size() > out.signature_slots_.size()) {
      out.GrowSignatureSlots(table_hash);
    }
  }
  const size_t num_tables = table_hash.size();

  // The directory, and each table's hyperedges in id order.
  out.partitions_.reserve(num_tables);
  a.edge_begin.resize(num_tables + 1);
  for (PartitionId p = 0; p < num_tables; ++p) {
    out.partitions_.push_back(Partition(&a, p));
    a.edge_begin[p + 1] = a.edge_begin[p] + num_edges[p];
  }
  std::vector<uint32_t> edge_at(a.edge_begin.begin(), a.edge_begin.end() - 1);
  a.edges.resize(h.NumEdges());
  for (EdgeId e = 0; e < h.NumEdges(); ++e) {
    a.edges[edge_at[out.edge_partition_[e]]++] = e;
  }

  // he'(v): v's incident hyperedges in tables of two or more, ascending, as
  // a transient CSR. Count each vertex's into vertex_at[v], turn the counts
  // into start offsets, fill in edge-id order while vertex_at[v] walks to
  // the end of v's list, then shift the offsets back by one vertex.
  const auto indexed = [&](EdgeId e) {
    return num_edges[out.edge_partition_[e]] >= 2;
  };
  std::vector<uint32_t> vertex_at(h.NumVertices() + 1, 0);
  for (EdgeId e = 0; e < h.NumEdges(); ++e) {
    if (!indexed(e)) continue;
    for (VertexId v : h.edge(e)) ++vertex_at[v];
  }
  uint32_t sum = 0;
  for (uint32_t& at : vertex_at) {
    const uint32_t count = at;
    at = sum;
    sum += count;
  }
  std::vector<EdgeId> incident(sum);
  for (EdgeId e = 0; e < h.NumEdges(); ++e) {
    if (!indexed(e)) continue;
    for (VertexId v : h.edge(e)) incident[vertex_at[v]++] = e;
  }
  for (size_t v = h.NumVertices(); v > 0; --v) vertex_at[v] = vertex_at[v - 1];
  vertex_at[0] = 0;

  // Count each indexed table's distinct vertices: one vertex-major pass.
  std::vector<VertexId> last_key(num_tables, kInvalidVertex);
  std::vector<uint32_t> num_keys(num_tables, 0);
  for (VertexId v = 0; v < h.NumVertices(); ++v) {
    for (uint32_t i = vertex_at[v]; i < vertex_at[v + 1]; ++i) {
      const PartitionId p = out.edge_partition_[incident[i]];
      if (last_key[p] != v) {
        last_key[p] = v;
        ++num_keys[p];
      }
    }
  }

  // Lay the indexed tables out one after another; key_at and posting_at
  // are each table's fill cursor into keys/offsets and postings.
  a.key_begin.resize(num_tables + 1);
  std::vector<uint32_t> posting_at(num_tables);
  uint32_t total_postings = 0;
  for (PartitionId p = 0; p < num_tables; ++p) {
    a.key_begin[p + 1] = a.key_begin[p] + num_keys[p];
    posting_at[p] = total_postings;
    if (num_edges[p] >= 2) total_postings += num_postings[p];
  }
  const uint32_t total_keys = a.key_begin[num_tables];
  std::vector<uint32_t> key_at(a.key_begin.begin(), a.key_begin.end() - 1);
  a.keys.resize(total_keys);
  a.offsets.resize(size_t{total_keys} + 1);
  a.postings.resize(total_postings);

  // Fill: v ascending, then e ascending in he'(v), so every table receives
  // its (v, e) entries sorted. A table's last list ends where the next
  // table's first list starts, and the final one at offsets.back().
  std::fill(last_key.begin(), last_key.end(), kInvalidVertex);
  for (VertexId v = 0; v < h.NumVertices(); ++v) {
    for (uint32_t i = vertex_at[v]; i < vertex_at[v + 1]; ++i) {
      const EdgeId e = incident[i];
      const PartitionId p = out.edge_partition_[e];
      if (last_key[p] != v) {
        last_key[p] = v;
        a.keys[key_at[p]] = v;
        a.offsets[key_at[p]++] = posting_at[p];
      }
      a.postings[posting_at[p]++] = e;
    }
  }
  a.offsets[total_keys] = total_postings;
  return out;
}

size_t IndexedHypergraph::SlotOf(const Signature& s, uint64_t hash,
                                 Signature* scratch) const {
  const size_t mask = signature_slots_.size() - 1;
  const uint32_t high = static_cast<uint32_t>(hash >> 32);
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const SignatureSlot& slot = signature_slots_[i];
    if (slot.first_edge == kInvalidEdge) return i;
    if (slot.hash_high == high) {
      SignatureKeyOf(graph(), slot.first_edge, scratch);
      if (*scratch == s) return i;
    }
  }
}

void IndexedHypergraph::GrowSignatureSlots(
    const std::vector<uint64_t>& table_hash) {
  std::vector<SignatureSlot> old(2 * signature_slots_.size(),
                                 {0, kInvalidEdge});
  old.swap(signature_slots_);
  const size_t mask = signature_slots_.size() - 1;
  for (const SignatureSlot& slot : old) {
    if (slot.first_edge == kInvalidEdge) continue;
    size_t i = table_hash[edge_partition_[slot.first_edge]] & mask;
    while (signature_slots_[i].first_edge != kInvalidEdge) i = (i + 1) & mask;
    signature_slots_[i] = slot;
  }
}

const Partition* IndexedHypergraph::FindPartition(const Signature& s) const {
  // Reused per thread, so confirming a hit allocates nothing once warm.
  static thread_local Signature scratch;
  const EdgeId first =
      signature_slots_[SlotOf(s, HashSignature(s), &scratch)].first_edge;
  return first == kInvalidEdge ? nullptr
                               : &partitions_[edge_partition_[first]];
}

size_t IndexedHypergraph::Cardinality(const Signature& s) const {
  const Partition* p = FindPartition(s);
  return p == nullptr ? 0 : p->size();
}

std::span<const EdgeId> IndexedHypergraph::Postings(const Signature& s,
                                                    VertexId v) const {
  const Partition* p = FindPartition(s);
  if (p == nullptr) return {};
  return p->Postings(v);
}

uint64_t IndexedHypergraph::IndexBytes() const {
  const TableArrays& a = *arrays_;
  return partitions_.capacity() * sizeof(Partition) +
         signature_slots_.capacity() * sizeof(SignatureSlot) +
         edge_partition_.capacity() * sizeof(PartitionId) +
         (a.edges.capacity() + a.postings.capacity()) * sizeof(EdgeId) +
         a.keys.capacity() * sizeof(VertexId) +
         (a.edge_begin.capacity() + a.key_begin.capacity() +
          a.offsets.capacity()) *
             sizeof(uint32_t);
}

}  // namespace hgmatch
