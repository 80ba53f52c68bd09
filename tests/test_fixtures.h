#ifndef HGMATCH_TESTS_TEST_FIXTURES_H_
#define HGMATCH_TESTS_TEST_FIXTURES_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/hypergraph.h"
#include "core/matching_order.h"
#include "core/result.h"
#include "gen/generator.h"
#include "parallel/service.h"

namespace hgmatch {

/// A scratch path under ::testing::TempDir() for `name`, with this
/// process's id inserted before the extension ("x.hgb" -> "x_<pid>.hgb"),
/// so two test runs on one host never race on the same file.
inline std::string TempPath(const std::string& name) {
  const size_t dot = std::min(name.rfind('.'), name.size());
  std::string path = ::testing::TempDir();
  path += '/';
  path += name.substr(0, dot);
  path += '_';
  path += std::to_string(::getpid());
  path += name.substr(dot);
  return path;
}

/// The paper's running example (Fig 1b): data hypergraph H with vertices
/// v0..v6 labelled A,C,A,A,B,C,A and hyperedges e1..e6 (ids 0..5 here).
inline Hypergraph PaperDataHypergraph() {
  Hypergraph h;
  const Label A = 0, B = 1, C = 2;
  for (Label l : {A, C, A, A, B, C, A}) h.AddVertex(l);
  (void)h.AddEdge({2, 4});        // e1
  (void)h.AddEdge({4, 6});        // e2
  (void)h.AddEdge({0, 1, 2});     // e3
  (void)h.AddEdge({3, 5, 6});     // e4
  (void)h.AddEdge({0, 1, 4, 6});  // e5
  (void)h.AddEdge({2, 3, 4, 5});  // e6
  return h;
}

/// The paper's query q (Fig 1a): u0(A) u1(C) u2(A) u3(A) u4(B) with
/// hyperedges {u2,u4}, {u0,u1,u2}, {u0,u1,u3,u4}.
inline Hypergraph PaperQueryHypergraph() {
  Hypergraph q;
  const Label A = 0, B = 1, C = 2;
  for (Label l : {A, C, A, A, B}) q.AddVertex(l);
  (void)q.AddEdge({2, 4});
  (void)q.AddEdge({0, 1, 2});
  (void)q.AddEdge({0, 1, 3, 4});
  return q;
}

/// Applies a vertex permutation `perm` (old id -> new id) to `q`, adding
/// the hyperedges in the order given by `edge_order`: hyperedge i of the
/// result is hyperedge edge_order[i] of `q`.
inline Hypergraph Permuted(const Hypergraph& q,
                           const std::vector<VertexId>& perm,
                           const std::vector<EdgeId>& edge_order) {
  Hypergraph out;
  std::vector<Label> labels(q.NumVertices());
  for (VertexId v = 0; v < q.NumVertices(); ++v) labels[perm[v]] = q.label(v);
  for (Label l : labels) out.AddVertex(l);
  for (EdgeId e : edge_order) {
    VertexSet members;
    for (VertexId v : q.edge(e)) members.push_back(perm[v]);
    (void)out.AddEdge(std::move(members), q.edge_label(e));
  }
  return out;
}

/// Small random hypergraph configurations used by cross-engine property
/// sweeps. Sized so brute-force oracles stay fast.
inline GeneratorConfig SmallRandomConfig(uint64_t seed) {
  GeneratorConfig c;
  c.seed = seed;
  c.num_vertices = 20 + seed % 21;           // 20..40
  c.num_edges = 25 + (seed * 7) % 36;        // 25..60
  c.num_labels = 2 + seed % 3;               // 2..4
  c.arity_min = 2;
  c.arity_max = 4 + seed % 3;                // 4..6
  c.arity_dist = ArityDistribution::kUniform;
  c.vertex_skew = 0.4;
  c.label_skew = 0.4;
  return c;
}

/// Queries of a RunBatch call that ran to completion (QueryStatus::kOk):
/// planned, and stopped by no timeout, limit, cancellation or rejection.
inline size_t Completed(const BatchRun& run) {
  return std::count_if(
      run.tickets.begin(), run.tickets.end(),
      [](const Ticket& t) { return t.Wait().status == QueryStatus::kOk; });
}

/// Normalises a list of embeddings (each given in some per-engine order)
/// by the provided query-edge order into query-edge-id indexed tuples, then
/// sorts, so results from different engines compare with ==.
inline std::vector<Embedding> NormalizeEmbeddings(
    const std::vector<Embedding>& embeddings,
    const std::vector<EdgeId>& query_edge_order) {
  std::vector<Embedding> out;
  out.reserve(embeddings.size());
  for (const Embedding& m : embeddings) {
    Embedding by_query_edge(m.size());
    for (size_t i = 0; i < m.size(); ++i) {
      by_query_edge[query_edge_order[i]] = m[i];
    }
    out.push_back(std::move(by_query_edge));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hgmatch

#endif  // HGMATCH_TESTS_TEST_FIXTURES_H_
