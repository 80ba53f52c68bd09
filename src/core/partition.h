#ifndef HGMATCH_CORE_PARTITION_H_
#define HGMATCH_CORE_PARTITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/signature.h"
#include "core/types.h"

namespace hgmatch {

/// A hyperedge table (Section IV.B): all data hyperedges sharing one
/// hyperedge signature, together with the table's inverted hyperedge index
/// (Section IV.C) mapping each vertex that occurs in the table to the sorted
/// posting list of its incident hyperedges *within this table*.
///
/// The index is three sorted flat arrays, owned by the IndexedHypergraph
/// that built the table and shared by all of its tables: the table's
/// distinct vertices ascending (`keys`), one offset per key plus an end
/// offset (`offsets`), and the posting lists back to back (`postings`,
/// global edge ids ascending within each list). he(v, S(e_q)) is a binary
/// search over the keys, and candidate generation (Algorithm 4) is plain
/// sorted-set algebra over the returned lists. A Partition is valid only
/// while its IndexedHypergraph lives.
class Partition {
 public:
  PartitionId id() const { return id_; }
  const Signature& signature() const { return signature_; }

  /// All hyperedges in this table, ascending by global edge id. This count
  /// is the hyperedge cardinality Card(e_q, H) for any query hyperedge whose
  /// signature equals this table's (Definition V.2), available in O(1).
  const EdgeSet& edges() const { return edges_; }
  size_t size() const { return edges_.size(); }

  /// Posting list of v within this table: he(v, S) sorted ascending.
  /// Returns an empty list when v does not occur in the table.
  std::span<const EdgeId> Postings(VertexId v) const;

  /// Number of distinct vertices appearing in the table.
  size_t NumIndexedVertices() const { return keys_.size(); }

 private:
  friend class IndexedHypergraph;

  Partition(PartitionId id, Signature signature)
      : id_(id), signature_(std::move(signature)) {}

  PartitionId id_;
  Signature signature_;
  EdgeSet edges_;
  std::span<const VertexId> keys_;
  // offsets_[i] .. offsets_[i + 1] is the range of keys_[i]'s list in
  // postings_; both point into the owner's shared arrays.
  const uint32_t* offsets_ = nullptr;
  const EdgeId* postings_ = nullptr;
};

}  // namespace hgmatch

#endif  // HGMATCH_CORE_PARTITION_H_
