#include "core/partition.h"

#include <algorithm>

namespace hgmatch {

std::span<const EdgeId> Partition::Postings(VertexId v) const {
  const TableArrays& a = *arrays_;
  if (size() == 1) {
    const EdgeId* e = a.edges.data() + a.edge_begin[id_];
    const std::span<const VertexId> members = a.graph.edge(*e);
    if (!std::binary_search(members.begin(), members.end(), v)) return {};
    return {e, 1};
  }
  const VertexId* first = a.keys.data() + a.key_begin[id_];
  const VertexId* last = a.keys.data() + a.key_begin[id_ + 1];
  const VertexId* it = std::lower_bound(first, last, v);
  if (it == last || *it != v) return {};
  const uint32_t* offsets = a.offsets.data() + (it - a.keys.data());
  return {a.postings.data() + offsets[0], a.postings.data() + offsets[1]};
}

size_t Partition::NumIndexedVertices() const {
  if (size() == 1) return arrays_->graph.arity(edges()[0]);
  return arrays_->key_begin[id_ + 1] - arrays_->key_begin[id_];
}

}  // namespace hgmatch
