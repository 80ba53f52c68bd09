#include "gen/query_gen.h"

#include <algorithm>
#include <unordered_map>

#include "util/set_ops.h"

namespace hgmatch {

namespace {

// One random walk: collects `k` distinct, connected hyperedges of `data`.
// Returns false when the walk gets stuck (isolated component smaller than k).
bool WalkEdges(const Hypergraph& data, uint32_t k, Rng* rng,
               std::vector<EdgeId>* out) {
  out->clear();
  const EdgeId start =
      static_cast<EdgeId>(rng->NextBounded(data.NumEdges()));
  EdgeSet collected = {start};
  out->push_back(start);
  uint32_t stuck = 0;
  while (out->size() < k && stuck < 64) {
    // Pick a random collected hyperedge, then a random vertex in it, then a
    // random incident hyperedge of that vertex.
    const EdgeId from = (*out)[rng->NextBounded(out->size())];
    const std::span<const VertexId> members = data.edge(from);
    const VertexId v = members[rng->NextBounded(members.size())];
    const IncidentEdges incident = data.incident(v);
    const EdgeId next =
        incident[rng->NextBounded(incident.size())];
    if (Contains(collected, next)) {
      ++stuck;
      continue;
    }
    stuck = 0;
    InsertSorted(&collected, next);
    out->push_back(next);
  }
  return out->size() == k;
}

// Builds a standalone query hypergraph from data hyperedges: vertices are
// renumbered densely (in ascending data-vertex order), labels copied.
Hypergraph ExtractQuery(const Hypergraph& data,
                        const std::vector<EdgeId>& edges) {
  VertexSet vertices;
  for (EdgeId e : edges) {
    const std::span<const VertexId> members = data.edge(e);
    vertices.insert(vertices.end(), members.begin(), members.end());
  }
  SortUnique(&vertices);
  std::unordered_map<VertexId, VertexId> remap;
  remap.reserve(vertices.size());
  Hypergraph q;
  for (VertexId v : vertices) {
    remap[v] = q.AddVertex(data.label(v));
  }
  for (EdgeId e : edges) {
    VertexSet members;
    for (VertexId v : data.edge(e)) members.push_back(remap[v]);
    (void)q.AddEdge(members);
  }
  return q;
}

}  // namespace

Result<Hypergraph> SampleQuery(const Hypergraph& data,
                               const QuerySettings& settings, Rng* rng,
                               uint32_t max_attempts) {
  if (data.NumEdges() == 0) {
    return Status::NotFound("data hypergraph has no hyperedges");
  }
  std::vector<EdgeId> edges;
  bool have_fallback = false;
  std::vector<EdgeId> fallback;
  for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (!WalkEdges(data, settings.num_edges, rng, &edges)) continue;
    VertexSet vertices;
    for (EdgeId e : edges) {
      const std::span<const VertexId> members = data.edge(e);
      vertices.insert(vertices.end(), members.begin(), members.end());
    }
    SortUnique(&vertices);
    if (vertices.size() >= settings.min_vertices &&
        vertices.size() <= settings.max_vertices) {
      return ExtractQuery(data, edges);
    }
    fallback = edges;
    have_fallback = true;
  }
  if (have_fallback) return ExtractQuery(data, fallback);
  return Status::NotFound("could not sample a connected query of " +
                          std::to_string(settings.num_edges) + " hyperedges");
}

std::vector<Hypergraph> SampleQueries(const Hypergraph& data,
                                      const QuerySettings& settings,
                                      size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Hypergraph> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Result<Hypergraph> q = SampleQuery(data, settings, &rng);
    if (q.ok()) out.push_back(std::move(q.value()));
  }
  return out;
}

}  // namespace hgmatch
