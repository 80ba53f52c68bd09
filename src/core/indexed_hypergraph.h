#ifndef HGMATCH_CORE_INDEXED_HYPERGRAPH_H_
#define HGMATCH_CORE_INDEXED_HYPERGRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/hypergraph.h"
#include "core/partition.h"
#include "core/signature.h"
#include "core/types.h"

namespace hgmatch {

/// The product of HGMatch's offline preprocessing stage (Section IV.A):
/// the data hypergraph stored as per-signature hyperedge tables, each with
/// its lightweight inverted hyperedge index. Built once per data hypergraph;
/// no further auxiliary structure is created at query time.
///
/// Every table lives in a few flat arrays shared by all tables (see
/// TableArrays), so a table owns no heap block: it costs a 16-byte header,
/// two directory words and its slot in the signature lookup. A table of one
/// hyperedge, which most tables of a label-rich graph are, stores no
/// inverted index, and no table stores its signature.
class IndexedHypergraph {
 public:
  /// Builds the partitioned storage + inverted indexes. Takes ownership of
  /// the hypergraph (the raw structure is still accessible via graph()) and
  /// releases its duplicate check (Hypergraph::ReleaseEdgeSlots). A pass
  /// over the hyperedges assigns them to tables and a second lays out each
  /// table's hyperedges. Only the incidences of tables of two or more
  /// hyperedges are indexed: a counting pass gathers them vertex-major, in
  /// a transient array, and two passes over it, v ascending and e
  /// ascending, first count each table's distinct vertices and then fill
  /// the arrays, so every table receives its (v, e) entries already
  /// sorted, every array is sized once and no sort runs. The graph's own
  /// incidence lists are never built. Aborts if the hypergraph has 2^32 or
  /// more incidences, since offsets are 32-bit (such a hypergraph would
  /// itself take over 32 GB).
  static IndexedHypergraph Build(Hypergraph graph);

  IndexedHypergraph(IndexedHypergraph&&) = default;
  IndexedHypergraph& operator=(IndexedHypergraph&&) = default;
  IndexedHypergraph(const IndexedHypergraph&) = delete;
  IndexedHypergraph& operator=(const IndexedHypergraph&) = delete;

  const Hypergraph& graph() const { return arrays_->graph; }

  const std::vector<Partition>& partitions() const { return partitions_; }

  /// The partition holding all hyperedges of signature s, or nullptr when no
  /// data hyperedge has that signature.
  const Partition* FindPartition(const Signature& s) const;

  /// Hyperedge cardinality Card(s, H) = number of data hyperedges with
  /// signature s (Definition V.2). O(1) after the hash lookup.
  size_t Cardinality(const Signature& s) const;

  /// Partition that contains data hyperedge e.
  PartitionId PartitionOf(EdgeId e) const { return edge_partition_[e]; }

  /// Posting list he(v, s): incident hyperedges of v with signature s,
  /// ascending global ids. Empty if the signature or vertex is absent.
  std::span<const EdgeId> Postings(const Signature& s, VertexId v) const;

  /// Bytes held by the hyperedge tables and their inverted indexes (Exp-1
  /// metric): the capacity of every array of the tables, the table
  /// headers, the edge-to-table map and the signature lookup table.
  uint64_t IndexBytes() const;

 private:
  // One slot of the signature lookup table: the high half of the key's
  // hash, which skips most key comparisons, and the table's first
  // hyperedge, whose key is the table's key (kInvalidEdge in an empty
  // slot).
  struct SignatureSlot {
    uint32_t hash_high;
    EdgeId first_edge;
  };

  IndexedHypergraph() = default;

  // The slot holding the table of `s`, whose hash is `hash`, or the empty
  // slot where it would go. `scratch` receives the keys compared.
  size_t SlotOf(const Signature& s, uint64_t hash, Signature* scratch) const;
  // Doubles the lookup table and re-inserts every table; table p's key
  // hashes to table_hash[p].
  void GrowSignatureSlots(const std::vector<uint64_t>& table_hash);

  // On the heap, so that tables keep pointing at it when the index moves.
  std::unique_ptr<TableArrays> arrays_;
  std::vector<Partition> partitions_;
  // Signature -> table: open addressing with linear probing over a
  // power-of-two array at most half full. Keys are compared against the
  // key of the slot's hyperedge, so no signature is stored.
  std::vector<SignatureSlot> signature_slots_;
  std::vector<PartitionId> edge_partition_;
};

}  // namespace hgmatch

#endif  // HGMATCH_CORE_INDEXED_HYPERGRAPH_H_
