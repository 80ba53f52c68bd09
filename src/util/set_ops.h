#ifndef HGMATCH_UTIL_SET_OPS_H_
#define HGMATCH_UTIL_SET_OPS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"

namespace hgmatch {

/// Sorted-set algebra on duplicate-free ascending uint32 lists (vectors or
/// views into flat arrays).
///
/// These kernels are the workhorse of HGMatch's candidate generation
/// (Algorithm 4): posting lists of the inverted hyperedge index are unioned
/// per incident vertex and the per-vertex unions are intersected. The paper
/// notes these operations "can be implemented very efficiently on modern
/// hardware"; we provide a scalar merge path plus a galloping path that is
/// automatically selected when the input sizes are very asymmetric, and a
/// bitmap union selected when many inputs fall in a dense id span.

/// out = a ∩ b. `out` is cleared first. Aliasing with inputs is not allowed.
void Intersect(std::span<const uint32_t> a, std::span<const uint32_t> b,
               std::vector<uint32_t>* out);

/// Returns |a ∩ b| without materialising the intersection.
size_t IntersectSize(std::span<const uint32_t> a, std::span<const uint32_t> b);

/// out = a ∪ b. `out` is cleared first. Aliasing with inputs is not allowed.
void Union(std::span<const uint32_t> a, std::span<const uint32_t> b,
           std::vector<uint32_t>* out);

/// out = union of all input lists. `inputs` may be empty, in which case
/// `out` is cleared; `out` must not alias an input. Three or more inputs
/// whose id span, in 64-bit words, is at most 4x their total length are
/// unioned through a bitmap over that span (a per-thread buffer that grows
/// to the largest such span); sparser inputs take a k-way heap merge.
void UnionMany(const std::vector<std::span<const uint32_t>>& inputs,
               std::vector<uint32_t>* out);

/// True iff x ∈ a (binary search).
bool Contains(std::span<const uint32_t> a, uint32_t x);

/// True iff a ∩ b is non-empty (early-exit merge/gallop).
bool Intersects(std::span<const uint32_t> a, std::span<const uint32_t> b);

/// Inserts x into sorted vector a, keeping it sorted; no-op if present.
void InsertSorted(std::vector<uint32_t>* a, uint32_t x);

/// Sorts and removes duplicates in place.
void SortUnique(std::vector<uint32_t>* a);

}  // namespace hgmatch

#endif  // HGMATCH_UTIL_SET_OPS_H_
