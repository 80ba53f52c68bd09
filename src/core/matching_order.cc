#include "core/matching_order.h"

#include <algorithm>
#include <limits>

#include "util/set_ops.h"

namespace hgmatch {

std::vector<EdgeId> QueryPlan::Order() const {
  std::vector<EdgeId> order;
  order.reserve(steps.size());
  for (const PlanStep& s : steps) order.push_back(s.query_edge);
  return order;
}

std::vector<EdgeId> ComputeMatchingOrder(const Hypergraph& query,
                                         const IndexedHypergraph& data) {
  const size_t n = query.NumEdges();
  std::vector<EdgeId> order;
  order.reserve(n);
  if (n == 0) return order;

  // Cardinalities are O(1) lookups into the partition headers (Def V.2).
  std::vector<size_t> card(n);
  for (EdgeId e = 0; e < n; ++e) {
    card[e] = data.Cardinality(SignatureKeyOf(query, e));
  }

  std::vector<uint8_t> used(n, 0);
  // V_phi: vertices covered by the partial order so far, sorted.
  VertexSet covered;

  auto append = [&](EdgeId e) {
    order.push_back(e);
    used[e] = 1;
    for (VertexId v : query.edge(e)) InsertSorted(&covered, v);
  };

  // Line 1: start edge = argmin cardinality (ties -> smaller id).
  EdgeId start = 0;
  for (EdgeId e = 1; e < n; ++e) {
    if (card[e] < card[start]) start = e;
  }
  append(start);

  // Lines 3-5: repeatedly add the connected edge minimising Card / overlap.
  while (order.size() < n) {
    EdgeId best = kInvalidEdge;
    double best_score = std::numeric_limits<double>::infinity();
    for (EdgeId e = 0; e < n; ++e) {
      if (used[e]) continue;
      const size_t overlap = IntersectSize(covered, query.edge(e));
      if (overlap == 0) continue;
      const double score =
          static_cast<double>(card[e]) / static_cast<double>(overlap);
      if (score < best_score) {
        best_score = score;
        best = e;
      }
    }
    if (best == kInvalidEdge) {
      // Disconnected query: start the next component at its cheapest edge.
      for (EdgeId e = 0; e < n; ++e) {
        if (used[e]) continue;
        if (best == kInvalidEdge || card[e] < card[best]) best = e;
      }
    }
    append(best);
  }
  return order;
}

namespace {

// Greedy connected order with an arbitrary per-edge score (smaller first).
std::vector<EdgeId> GreedyConnected(const Hypergraph& query,
                                    const std::vector<double>& score) {
  const size_t n = query.NumEdges();
  std::vector<EdgeId> order;
  order.reserve(n);
  std::vector<uint8_t> used(n, 0);
  VertexSet covered;
  while (order.size() < n) {
    EdgeId best = kInvalidEdge;
    bool best_connected = false;
    for (EdgeId e = 0; e < n; ++e) {
      if (used[e]) continue;
      const bool connected =
          order.empty() || IntersectSize(covered, query.edge(e)) > 0;
      const bool better =
          best == kInvalidEdge || (connected && !best_connected) ||
          (connected == best_connected && score[e] < score[best]);
      if (better) {
        best = e;
        best_connected = connected;
      }
    }
    used[best] = 1;
    order.push_back(best);
    for (VertexId v : query.edge(best)) InsertSorted(&covered, v);
  }
  return order;
}

}  // namespace

std::vector<EdgeId> ComputeMatchingOrderVariant(const Hypergraph& query,
                                                const IndexedHypergraph& data,
                                                OrderVariant variant) {
  const size_t n = query.NumEdges();
  switch (variant) {
    case OrderVariant::kCardinality:
      return ComputeMatchingOrder(query, data);
    case OrderVariant::kConnectedOnly: {
      std::vector<double> score(n);
      for (EdgeId e = 0; e < n; ++e) score[e] = static_cast<double>(e);
      return GreedyConnected(query, score);
    }
    case OrderVariant::kMaxCardinality: {
      std::vector<double> score(n);
      for (EdgeId e = 0; e < n; ++e) {
        score[e] =
            -static_cast<double>(data.Cardinality(SignatureKeyOf(query, e)));
      }
      return GreedyConnected(query, score);
    }
    case OrderVariant::kAsGiven: {
      std::vector<EdgeId> order(n);
      for (EdgeId e = 0; e < n; ++e) order[e] = e;
      return order;
    }
  }
  return {};
}

namespace {

// Fills the order-dependent precomputation of one plan step.
void CompileStep(const Hypergraph& query, const std::vector<EdgeId>& order,
                 uint32_t i, PlanStep* step) {
  const EdgeId eq = order[i];
  step->query_edge = eq;
  step->signature = SignatureKeyOf(query, eq);

  const std::span<const VertexId> eq_vertices = query.edge(eq);

  // Partition previous steps into adjacent / non-adjacent (Obs V.2, V.3).
  for (uint32_t j = 0; j < i; ++j) {
    std::vector<VertexId> shared;
    Intersect(query.edge(order[j]), eq_vertices, &shared);
    if (shared.empty()) {
      step->nonadjacent_prev.push_back(j);
    } else {
      step->adjacent_prev.push_back({j, std::move(shared)});
    }
  }

  // Degree of each shared vertex in the partial query BEFORE this step
  // (Obs V.4), i.e. the number of previous steps whose edge contains it.
  step->shared_info.resize(step->adjacent_prev.size());
  for (size_t a = 0; a < step->adjacent_prev.size(); ++a) {
    const auto& ap = step->adjacent_prev[a];
    auto& infos = step->shared_info[a];
    infos.reserve(ap.shared.size());
    for (VertexId u : ap.shared) {
      uint32_t deg = 0;
      for (uint32_t j = 0; j < i; ++j) {
        if (Contains(query.edge(order[j]), u)) ++deg;
      }
      infos.push_back({query.label(u), deg});
    }
  }

  // |V(q')| after this step (Obs V.5).
  VertexSet all;
  for (uint32_t j = 0; j <= i; ++j) {
    const std::span<const VertexId> e = query.edge(order[j]);
    all.insert(all.end(), e.begin(), e.end());
  }
  SortUnique(&all);
  step->num_query_vertices_after = static_cast<uint32_t>(all.size());

  // Query-side profiles of eq's vertices that an earlier step contains,
  // over the steps before this one (Def V.3): since the partial embedding m
  // is duplicate free, comparing sets of matched data hyperedges {f(e)} is
  // equivalent to comparing sets of step indices, which are known
  // statically.
  for (VertexId u : eq_vertices) {
    PlanStep::Profile p;
    p.label = query.label(u);
    for (uint32_t j = 0; j < i; ++j) {
      if (Contains(query.edge(order[j]), u)) p.steps_mask |= 1ULL << j;
    }
    if (p.steps_mask != 0) step->shared_profiles.push_back(p);
  }
  std::sort(step->shared_profiles.begin(), step->shared_profiles.end());
}

Result<QueryPlan> Compile(const Hypergraph& query, std::vector<EdgeId> order) {
  if (query.NumEdges() == 0) {
    return Status::InvalidArgument("query hypergraph has no hyperedges");
  }
  if (query.NumEdges() > 64) {
    return Status::InvalidArgument(
        "query hypergraphs are limited to 64 hyperedges");
  }
  if (order.size() != query.NumEdges()) {
    return Status::InvalidArgument("matching order must cover every query "
                                   "hyperedge exactly once");
  }
  std::vector<uint8_t> seen(query.NumEdges(), 0);
  for (EdgeId e : order) {
    if (e >= query.NumEdges() || seen[e]) {
      return Status::InvalidArgument("matching order is not a permutation");
    }
    seen[e] = 1;
  }
  QueryPlan plan;
  plan.query = &query;
  plan.steps.resize(order.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    CompileStep(query, order, i, &plan.steps[i]);
  }
  return plan;
}

}  // namespace

Result<QueryPlan> BuildQueryPlan(const Hypergraph& query,
                                 const IndexedHypergraph& data) {
  return Compile(query, ComputeMatchingOrder(query, data));
}

Result<QueryPlan> BuildQueryPlanWithOrder(const Hypergraph& query,
                                          std::vector<EdgeId> order) {
  return Compile(query, std::move(order));
}

}  // namespace hgmatch
