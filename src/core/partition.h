#ifndef HGMATCH_CORE_PARTITION_H_
#define HGMATCH_CORE_PARTITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/hypergraph.h"
#include "core/types.h"

namespace hgmatch {

/// The arrays behind every hyperedge table of one IndexedHypergraph, with
/// the hypergraph they index. The index keeps them in one heap block, whose
/// address stays fixed when the index is moved, so each table reaches them
/// through one pointer.
///
/// The tables form a flat directory: table p's hyperedges are
/// edges[edge_begin[p], edge_begin[p + 1]), ascending, and its inverted
/// index keys are keys[key_begin[p], key_begin[p + 1]). Only tables of two
/// or more hyperedges have keys. Key i's posting list is
/// postings[offsets[i], offsets[i + 1]), global edge ids ascending, and the
/// lists of all keys lie back to back, so one end offset closes them.
struct TableArrays {
  Hypergraph graph;
  std::vector<EdgeId> edges;
  std::vector<uint32_t> edge_begin;
  std::vector<uint32_t> key_begin;
  std::vector<VertexId> keys;
  std::vector<uint32_t> offsets;
  std::vector<EdgeId> postings;
};

/// A hyperedge table (Section IV.B): all data hyperedges sharing one
/// hyperedge signature, together with the table's inverted hyperedge index
/// (Section IV.C) mapping each vertex that occurs in the table to the sorted
/// posting list of its incident hyperedges *within this table*.
///
/// A table is a view of its owner's TableArrays: it owns no memory and
/// keeps no copy of its signature, which is the key of its first
/// hyperedge. he(v, S(e_q)) is a binary search over the table's keys, and
/// candidate generation (Algorithm 4) is plain sorted-set algebra over the
/// returned lists. A table of one hyperedge stores no index at all: its
/// keys are that hyperedge's sorted vertices, and each of their lists is
/// the hyperedge itself. A Partition is valid only while its
/// IndexedHypergraph lives.
class Partition {
 public:
  PartitionId id() const { return id_; }

  /// All hyperedges in this table, ascending by global edge id. This count
  /// is the hyperedge cardinality Card(e_q, H) for any query hyperedge whose
  /// signature equals this table's (Definition V.2), available in O(1).
  std::span<const EdgeId> edges() const {
    return {arrays_->edges.data() + arrays_->edge_begin[id_],
            arrays_->edges.data() + arrays_->edge_begin[id_ + 1]};
  }
  size_t size() const {
    return arrays_->edge_begin[id_ + 1] - arrays_->edge_begin[id_];
  }

  /// Posting list of v within this table: he(v, S) sorted ascending.
  /// Returns an empty list when v does not occur in the table.
  std::span<const EdgeId> Postings(VertexId v) const;

  /// Number of distinct vertices appearing in the table.
  size_t NumIndexedVertices() const;

 private:
  friend class IndexedHypergraph;

  Partition(const TableArrays* arrays, PartitionId id)
      : arrays_(arrays), id_(id) {}

  const TableArrays* arrays_;
  PartitionId id_;
};

}  // namespace hgmatch

#endif  // HGMATCH_CORE_PARTITION_H_
