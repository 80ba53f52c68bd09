#include "core/signature.h"

#include <algorithm>

#include "util/rng.h"

namespace hgmatch {

Signature SignatureOf(const Hypergraph& h, EdgeId e) {
  return SignatureOfVertices(h, h.edge(e));
}

Signature SignatureKeyOf(const Hypergraph& h, EdgeId e) {
  Signature s = SignatureOfVertices(h, h.edge(e));
  if (h.edge_label(e) != 0) {
    s.push_back(kEdgeLabelKeyBit | h.edge_label(e));
  }
  return s;
}

Signature SignatureOfVertices(const Hypergraph& h,
                              std::span<const VertexId> vertices) {
  Signature s;
  s.reserve(vertices.size());
  for (VertexId v : vertices) s.push_back(h.label(v));
  std::sort(s.begin(), s.end());
  return s;
}

uint64_t HashSignature(const Signature& s) {
  uint64_t h = 0x51ed270b0a3c1b25ULL;
  for (Label l : s) {
    h = Mix64(h ^ (static_cast<uint64_t>(l) + 0x9e3779b97f4a7c15ULL));
  }
  return h;
}

std::string SignatureToString(const Signature& s) {
  std::string out = "{";
  for (size_t i = 0; i < s.size(); ++i) {
    if (i) out += ",";
    if (s[i] < 26) {
      out += static_cast<char>('A' + s[i]);
    } else {
      out += std::to_string(s[i]);
    }
  }
  out += "}";
  return out;
}

}  // namespace hgmatch
