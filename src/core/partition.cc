#include "core/partition.h"

#include <algorithm>

namespace hgmatch {

std::span<const EdgeId> Partition::Postings(VertexId v) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), v);
  if (it == keys_.end() || *it != v) return {};
  const size_t i = static_cast<size_t>(it - keys_.begin());
  return {postings_ + offsets_[i], postings_ + offsets_[i + 1]};
}

}  // namespace hgmatch
