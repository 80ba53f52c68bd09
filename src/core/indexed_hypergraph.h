#ifndef HGMATCH_CORE_INDEXED_HYPERGRAPH_H_
#define HGMATCH_CORE_INDEXED_HYPERGRAPH_H_

#include <cstdint>
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
/// The inverted indexes of all tables live in three flat arrays, table
/// after table (see Partition), so a table costs a few dozen bytes of
/// header beyond its 12 B or less per incidence.
class IndexedHypergraph {
 public:
  /// Builds the partitioned storage + inverted indexes. Takes ownership of
  /// the hypergraph (the raw structure is still accessible via graph()).
  /// Passes over the hyperedges assign them to tables and fill each
  /// table's hyperedge list; two vertex-major passes over he(v), v
  /// ascending and e ascending, first count each table's distinct vertices
  /// and then fill the arrays, so every table receives its (v, e) entries
  /// already sorted, every array is sized once and no sort runs. Aborts
  /// if the hypergraph has 2^32 or more incidences, since offsets are
  /// 32-bit (such a hypergraph would itself take over 32 GB).
  static IndexedHypergraph Build(Hypergraph graph);

  IndexedHypergraph(IndexedHypergraph&&) = default;
  IndexedHypergraph& operator=(IndexedHypergraph&&) = default;
  IndexedHypergraph(const IndexedHypergraph&) = delete;
  IndexedHypergraph& operator=(const IndexedHypergraph&) = delete;

  const Hypergraph& graph() const { return graph_; }

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
  /// metric): the capacity of every array, the table headers with their
  /// signatures, the edge-to-table map and the signature lookup table.
  uint64_t IndexBytes() const;

 private:
  // One slot of the signature lookup table: the high half of the key's
  // hash, which skips most key comparisons, and the table's id
  // (kInvalidPartition in an empty slot).
  struct SignatureSlot {
    uint32_t hash_high;
    PartitionId id;
  };

  IndexedHypergraph() = default;

  // The slot holding the table of `s`, whose hash is `hash`, or the empty
  // slot where it would go.
  size_t SlotOf(const Signature& s, uint64_t hash) const;
  // Doubles the lookup table and re-inserts every table.
  void GrowSignatureSlots();

  Hypergraph graph_;
  std::vector<Partition> partitions_;
  // Signature -> table: open addressing with linear probing over a
  // power-of-two array at most half full. Keys are compared against
  // partitions_[id].signature(), so no signature is stored twice.
  std::vector<SignatureSlot> signature_slots_;
  std::vector<PartitionId> edge_partition_;
  // The inverted index of every table, table after table: distinct
  // vertices ascending within a table, the start of each one's list in
  // postings_ (plus one end offset), and the posting lists.
  std::vector<VertexId> keys_;
  std::vector<uint32_t> offsets_;
  std::vector<EdgeId> postings_;
};

}  // namespace hgmatch

#endif  // HGMATCH_CORE_INDEXED_HYPERGRAPH_H_
