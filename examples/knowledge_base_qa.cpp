// Case study (paper Section VII.D): question answering over a hypergraph
// knowledge base. Reproduces the two JF17K queries of Fig 13 on the
// synthetic JF17K-like knowledge hypergraph:
//   Query 1: players who represented different teams in different matches.
//   Query 2: actors who played the same character in a TV show on
//            different seasons.

#include <cstdio>

#include "core/hgmatch.h"
#include "gen/knowledge_base.h"
#include "parallel/dataflow.h"

using namespace hgmatch;  // NOLINT: example brevity

namespace {

// Prints one embedding as a human-readable fact pair.
void PrintEmbedding(const Hypergraph& kb, const Embedding& m) {
  std::printf("  {");
  for (size_t i = 0; i < m.size(); ++i) {
    if (i) std::printf("} & {");
    const std::span<const VertexId> fact = kb.edge(m[i]);
    for (size_t j = 0; j < fact.size(); ++j) {
      if (j) std::printf(", ");
      std::printf("%s#%u", KbTypeName(kb.label(fact[j])), fact[j]);
    }
  }
  std::printf("}\n");
}

void RunQuery(const IndexedHypergraph& kb, const Hypergraph& query,
              const char* question) {
  std::printf("\nQ: %s\n", question);
  Result<QueryPlan> plan = BuildQueryPlan(query, kb);
  if (!plan.ok()) {
    std::printf("planning failed: %s\n", plan.status().ToString().c_str());
    return;
  }
  std::printf("plan:\n%s",
              DataflowGraph::FromPlan(plan.value()).ToString(&kb).c_str());
  CollectSink sink(/*cap=*/3);
  MatchStats stats =
      ExecutePlanSequential(kb, plan.value(), MatchOptions{}, &sink);
  std::printf("HGMatch finds %llu embeddings in %s; first %zu:\n",
              static_cast<unsigned long long>(stats.embeddings),
              stats.seconds < 1e-3
                  ? "<1ms"
                  : (std::to_string(stats.seconds * 1e3) + "ms").c_str(),
              sink.embeddings().size());
  for (const Embedding& m : sink.embeddings()) PrintEmbedding(kb.graph(), m);
}

}  // namespace

int main() {
  KbConfig config;
  Hypergraph kb_graph = GenerateKnowledgeBase(config);
  std::printf("knowledge base: %zu entities, %zu n-ary facts\n",
              kb_graph.NumVertices(), kb_graph.NumEdges());
  IndexedHypergraph kb = IndexedHypergraph::Build(std::move(kb_graph));

  RunQuery(kb, KbQueryMultiTeamPlayer(),
           "Football players who represented different teams in different "
           "matches (Fig 13a)");
  RunQuery(kb, KbQueryRecastCharacter(),
           "Actors who played the same character in a TV show on different "
           "seasons (Fig 13b)");

  // Beyond the paper: the same query answered with the aggregation
  // extension operator — count answers per player entity.
  std::printf("\nExtension: answers grouped by player entity "
              "(GroupCount operator):\n");
  Result<QueryPlan> plan = BuildQueryPlan(KbQueryMultiTeamPlayer(), kb);
  if (plan.ok()) {
    const Hypergraph& g = kb.graph();
    GroupCountSink groups([&g](const EdgeId* edges, uint32_t) {
      // The shared player is the unique kPlayer vertex of the first fact.
      for (VertexId v : g.edge(edges[0])) {
        if (g.label(v) == kPlayer) return uint64_t{v};
      }
      return uint64_t{0};
    });
    ExecutePlanSequential(kb, plan.value(), MatchOptions{}, &groups);
    int shown = 0;
    for (const auto& [player, count] : groups.counts()) {
      if (++shown > 5) break;
      std::printf("  Player#%llu: %llu team-switch pairs\n",
                  static_cast<unsigned long long>(player),
                  static_cast<unsigned long long>(count));
    }
    std::printf("  (%zu players total)\n", groups.counts().size());
  }
  return 0;
}
