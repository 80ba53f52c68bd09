#include "core/reference.h"

#include <algorithm>
#include <span>
#include <vector>

#include "core/signature.h"
#include "core/validation.h"
#include "util/set_ops.h"
#include "util/timer.h"

namespace hgmatch {

namespace {

struct EdgeTupleSearch {
  const IndexedHypergraph* data;
  const Hypergraph* query;
  const MatchOptions* options;
  EmbeddingSink* sink;
  Deadline deadline;
  MatchStats stats;

  std::vector<EdgeId> order;     // query edge ids 0..n-1
  std::vector<EdgeId> matched;   // data edge per position
  // Per position: the signature table, empty when there is none.
  std::vector<std::span<const EdgeId>> candidates;

  void Recurse(uint32_t depth) {
    const uint32_t n = static_cast<uint32_t>(order.size());
    if (stats.timed_out || stats.limit_hit) return;
    if (deadline.Expired()) {
      stats.timed_out = true;
      return;
    }
    if (depth == n) {
      ++stats.embeddings;
      if (sink != nullptr) sink->Emit(matched.data(), n);
      if (options->limit != 0 && stats.embeddings >= options->limit) {
        stats.limit_hit = true;
      }
      return;
    }
    for (EdgeId c : candidates[depth]) {
      bool used = false;
      for (uint32_t j = 0; j < depth; ++j) {
        if (matched[j] == c) {
          used = true;
          break;
        }
      }
      if (used) continue;
      matched[depth] = c;
      // Exact prefix consistency: a prefix with no consistent bijection can
      // never extend to a full embedding (restriction argument).
      if (EmbeddingConsistent(*query, data->graph(), order.data(),
                              matched.data(), depth + 1)) {
        Recurse(depth + 1);
        if (stats.timed_out || stats.limit_hit) return;
      }
    }
  }
};

}  // namespace

MatchStats ReferenceEdgeTupleMatch(const IndexedHypergraph& data,
                                   const Hypergraph& query,
                                   const MatchOptions& options,
                                   EmbeddingSink* sink) {
  Timer timer;
  EdgeTupleSearch search;
  search.data = &data;
  search.query = &query;
  search.options = &options;
  search.sink = sink;
  search.deadline = Deadline::After(options.timeout_seconds);

  const uint32_t n = static_cast<uint32_t>(query.NumEdges());
  search.order.resize(n);
  search.matched.resize(n, kInvalidEdge);
  search.candidates.resize(n);
  for (EdgeId e = 0; e < n; ++e) {
    search.order[e] = e;
    const Partition* p = data.FindPartition(SignatureKeyOf(query, e));
    if (p != nullptr) search.candidates[e] = p->edges();
  }
  if (n > 0) search.Recurse(0);
  search.stats.seconds = timer.ElapsedSeconds();
  return search.stats;
}

namespace {

struct VertexSearch {
  const Hypergraph* data;
  const Hypergraph* query;
  std::vector<VertexId> mapping;  // f(u) per query vertex, kInvalidVertex=∅
  std::vector<uint8_t> used;      // data vertex already an image
  uint64_t count = 0;

  // Checks Theorem III.2 incrementally: every query hyperedge whose
  // vertices are all mapped after assigning u must map onto a data edge.
  bool EdgesSatisfied(VertexId u) const {
    for (EdgeId e : query->incident(u)) {
      VertexSet image;
      bool complete = true;
      for (VertexId w : query->edge(e)) {
        if (mapping[w] == kInvalidVertex) {
          complete = false;
          break;
        }
        image.push_back(mapping[w]);
      }
      if (!complete) continue;
      SortUnique(&image);
      // Search the image among the incident edges of the first image
      // vertex; hyperedge labels must agree as well (footnote 2).
      bool found = false;
      for (EdgeId de : data->incident(image[0])) {
        if (std::ranges::equal(data->edge(de), image) &&
            data->edge_label(de) == query->edge_label(e)) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  }

  void Recurse(VertexId u) {
    if (u == query->NumVertices()) {
      ++count;
      return;
    }
    for (VertexId v = 0; v < data->NumVertices(); ++v) {
      if (used[v] || data->label(v) != query->label(u)) continue;
      if (data->degree(v) < query->degree(u)) continue;
      mapping[u] = v;
      used[v] = 1;
      if (EdgesSatisfied(u)) Recurse(u + 1);
      used[v] = 0;
      mapping[u] = kInvalidVertex;
    }
  }
};

}  // namespace

uint64_t ReferenceVertexMatchCount(const Hypergraph& data,
                                   const Hypergraph& query) {
  VertexSearch search;
  search.data = &data;
  search.query = &query;
  search.mapping.assign(query.NumVertices(), kInvalidVertex);
  search.used.assign(data.NumVertices(), 0);
  search.Recurse(0);
  return search.count;
}

}  // namespace hgmatch
