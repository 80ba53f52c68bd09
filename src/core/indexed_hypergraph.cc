#include "core/indexed_hypergraph.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace hgmatch {

IndexedHypergraph IndexedHypergraph::Build(Hypergraph graph) {
  IndexedHypergraph out;
  out.graph_ = std::move(graph);
  const Hypergraph& h = out.graph_;
  if (h.NumIncidences() > std::numeric_limits<uint32_t>::max()) {
    std::fprintf(stderr, "IndexedHypergraph: 2^32 or more incidences\n");
    std::abort();
  }

  // Assign every hyperedge to its signature's table, counting each table's
  // hyperedges and incidences.
  out.edge_partition_.resize(h.NumEdges());
  out.signature_slots_.assign(1, {0, kInvalidPartition});
  std::vector<uint32_t> num_edges, num_postings;
  for (EdgeId e = 0; e < h.NumEdges(); ++e) {
    Signature s = SignatureKeyOf(h, e);
    const uint64_t hash = HashSignature(s);
    SignatureSlot& slot = out.signature_slots_[out.SlotOf(s, hash)];
    PartitionId p = slot.id;
    if (p == kInvalidPartition) {
      p = static_cast<PartitionId>(out.partitions_.size());
      slot = {static_cast<uint32_t>(hash >> 32), p};
      out.partitions_.push_back(Partition(p, std::move(s)));
      num_edges.push_back(0);
      num_postings.push_back(0);
      if (2 * out.partitions_.size() > out.signature_slots_.size()) {
        out.GrowSignatureSlots();
      }
    }
    out.edge_partition_[e] = p;
    ++num_edges[p];
    num_postings[p] += h.arity(e);
  }
  out.partitions_.shrink_to_fit();
  const size_t num_tables = out.partitions_.size();

  // Count each table's distinct vertices: one vertex-major pass.
  std::vector<VertexId> last_key(num_tables, kInvalidVertex);
  std::vector<uint32_t> num_keys(num_tables, 0);
  for (VertexId v = 0; v < h.NumVertices(); ++v) {
    for (EdgeId e : h.incident(v)) {
      const PartitionId p = out.edge_partition_[e];
      if (last_key[p] != v) {
        last_key[p] = v;
        ++num_keys[p];
      }
    }
  }

  // Lay the tables out one after another; key_at and posting_at are each
  // table's fill cursor into keys_/offsets_ and postings_.
  std::vector<uint32_t> key_at(num_tables), posting_at(num_tables);
  uint32_t total_keys = 0, total_postings = 0;
  for (PartitionId p = 0; p < num_tables; ++p) {
    out.partitions_[p].edges_.reserve(num_edges[p]);
    key_at[p] = total_keys;
    posting_at[p] = total_postings;
    total_keys += num_keys[p];
    total_postings += num_postings[p];
  }
  for (EdgeId e = 0; e < h.NumEdges(); ++e) {
    out.partitions_[out.edge_partition_[e]].edges_.push_back(e);
  }
  out.keys_.resize(total_keys);
  out.offsets_.resize(size_t{total_keys} + 1);
  out.postings_.resize(total_postings);

  // Fill: v ascending, then e ascending in he(v), so every table receives
  // its (v, e) entries sorted. A table's last list ends where the next
  // table's first list starts, and the final one at offsets_.back().
  std::fill(last_key.begin(), last_key.end(), kInvalidVertex);
  for (VertexId v = 0; v < h.NumVertices(); ++v) {
    for (EdgeId e : h.incident(v)) {
      const PartitionId p = out.edge_partition_[e];
      if (last_key[p] != v) {
        last_key[p] = v;
        out.keys_[key_at[p]] = v;
        out.offsets_[key_at[p]++] = posting_at[p];
      }
      out.postings_[posting_at[p]++] = e;
    }
  }
  out.offsets_[total_keys] = total_postings;

  for (PartitionId p = 0; p < num_tables; ++p) {
    Partition& t = out.partitions_[p];
    const uint32_t first_key = key_at[p] - num_keys[p];
    t.keys_ = {out.keys_.data() + first_key, num_keys[p]};
    t.offsets_ = out.offsets_.data() + first_key;
    t.postings_ = out.postings_.data();
  }
  return out;
}

size_t IndexedHypergraph::SlotOf(const Signature& s, uint64_t hash) const {
  const size_t mask = signature_slots_.size() - 1;
  const uint32_t high = static_cast<uint32_t>(hash >> 32);
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const SignatureSlot& slot = signature_slots_[i];
    if (slot.id == kInvalidPartition ||
        (slot.hash_high == high && partitions_[slot.id].signature() == s)) {
      return i;
    }
  }
}

void IndexedHypergraph::GrowSignatureSlots() {
  signature_slots_.assign(2 * signature_slots_.size(), {0, kInvalidPartition});
  for (const Partition& t : partitions_) {
    const uint64_t hash = HashSignature(t.signature());
    signature_slots_[SlotOf(t.signature(), hash)] = {
        static_cast<uint32_t>(hash >> 32), t.id()};
  }
}

const Partition* IndexedHypergraph::FindPartition(const Signature& s) const {
  const PartitionId p = signature_slots_[SlotOf(s, HashSignature(s))].id;
  return p == kInvalidPartition ? nullptr : &partitions_[p];
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
  uint64_t bytes = partitions_.capacity() * sizeof(Partition) +
                   edge_partition_.capacity() * sizeof(PartitionId) +
                   keys_.capacity() * sizeof(VertexId) +
                   offsets_.capacity() * sizeof(uint32_t) +
                   postings_.capacity() * sizeof(EdgeId) +
                   signature_slots_.capacity() * sizeof(SignatureSlot);
  for (const Partition& p : partitions_) {
    bytes += p.signature().capacity() * sizeof(Label) +
             p.edges().capacity() * sizeof(EdgeId);
  }
  return bytes;
}

}  // namespace hgmatch
