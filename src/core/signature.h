#ifndef HGMATCH_CORE_SIGNATURE_H_
#define HGMATCH_CORE_SIGNATURE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/hypergraph.h"
#include "core/types.h"

namespace hgmatch {

/// Hyperedge signature S(e) (Definition IV.1): the multiset of vertex labels
/// contained in a hyperedge, canonicalised as a sorted vector (a sorted
/// vector is the canonical form of a multiset over an ordered domain, so two
/// hyperedges have equal signatures iff their label multisets are equal).
using Signature = std::vector<Label>;

/// Signature of hyperedge e of h.
Signature SignatureOf(const Hypergraph& h, EdgeId e);

/// Partition key of hyperedge e: the signature S(e), extended with the
/// hyperedge label when it is non-zero (encoded in the high bit so it can
/// never collide with a vertex label). Two hyperedges fall into the same
/// hyperedge table iff their keys are equal, which realises the paper's
/// footnote-2 extension to edge-labelled hypergraphs: matched hyperedges
/// automatically agree on both the vertex-label multiset and the hyperedge
/// label. For label-0 (unlabelled) hyperedges the key equals the signature.
Signature SignatureKeyOf(const Hypergraph& h, EdgeId e);

/// Marker folded into partition keys for non-zero hyperedge labels.
inline constexpr Label kEdgeLabelKeyBit = 0x80000000u;

/// Signature of an explicit vertex set of h.
Signature SignatureOfVertices(const Hypergraph& h,
                              std::span<const VertexId> vertices);

/// 64-bit hash of a canonical signature, for use as hash-map key.
uint64_t HashSignature(const Signature& s);

/// Hash functor for unordered containers keyed by Signature.
struct SignatureHash {
  size_t operator()(const Signature& s) const {
    return static_cast<size_t>(HashSignature(s));
  }
};

/// Debug rendering, e.g. "{A,A,C}" with labels printed as letters when below
/// 26 and as numbers otherwise.
std::string SignatureToString(const Signature& s);

}  // namespace hgmatch

#endif  // HGMATCH_CORE_SIGNATURE_H_
