// Coverage of the sharding layer: the storage split (core/shard.h) — edge
// partition/replication invariants and the split/merge/save/load
// round-trips — and scatter-gather execution (ServiceOptions::shards),
// whose merged counts must be exactly those of an unsharded run at every
// fan-out. The parity sweeps are the acceptance bar of the sharded serving
// tier: sharding is a throughput lever, never an approximation.

#include "core/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/hgmatch.h"
#include "gen/generator.h"
#include "io/shard_io.h"
#include "parallel/service.h"
#include "tests/test_fixtures.h"

namespace hgmatch {
namespace {

// A hyperedge as comparable content: (edge label, sorted vertex ids).
// Shards renumber edge ids, so equality of hypergraphs under sharding is
// equality of these multisets plus the vertex labelling.
using EdgeKey = std::pair<Label, std::vector<VertexId>>;

std::vector<EdgeKey> EdgeContents(const Hypergraph& h) {
  std::vector<EdgeKey> keys;
  keys.reserve(h.NumEdges());
  for (EdgeId e = 0; e < h.NumEdges(); ++e) {
    std::vector<VertexId> vs(h.edge(e).begin(), h.edge(e).end());
    std::sort(vs.begin(), vs.end());
    keys.emplace_back(h.edge_label(e), std::move(vs));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void ExpectSameContent(const Hypergraph& a, const Hypergraph& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    ASSERT_EQ(a.label(v), b.label(v));
  }
  EXPECT_EQ(EdgeContents(a), EdgeContents(b));
}

TEST(ShardSplitTest, AssignCoversEveryEdgeWithinBounds) {
  const Hypergraph h = PaperDataHypergraph();
  for (uint32_t k : {1u, 2u, 3u, 8u}) {
    const std::vector<uint32_t> assign = AssignShards(h, k);
    ASSERT_EQ(assign.size(), h.NumEdges());
    for (uint32_t part : assign) EXPECT_LT(part, k);
  }
}

TEST(ShardSplitTest, SplitReplicatesVerticesAndPartitionsEdges) {
  Hypergraph h = GenerateHypergraph(SmallRandomConfig(11));
  for (uint32_t k : {1u, 2u, 4u, 8u}) {
    const std::vector<Hypergraph> parts = SplitHypergraph(h, k);
    ASSERT_EQ(parts.size(), k);
    size_t total_edges = 0;
    for (const Hypergraph& p : parts) {
      ASSERT_EQ(p.NumVertices(), h.NumVertices());
      total_edges += p.NumEdges();
    }
    EXPECT_EQ(total_edges, h.NumEdges());

    Result<Hypergraph> merged = MergeShards(parts);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ExpectSameContent(h, merged.value());
  }
}

TEST(ShardSplitTest, MoreShardsThanEdgesLeavesEmptyParts) {
  Hypergraph h;
  h.AddVertices(4, 0);
  (void)h.AddEdge({0, 1});
  (void)h.AddEdge({2, 3});
  const std::vector<Hypergraph> parts = SplitHypergraph(h, 8);
  ASSERT_EQ(parts.size(), 8u);
  size_t total = 0;
  for (const Hypergraph& p : parts) total += p.NumEdges();
  EXPECT_EQ(total, 2u);
  Result<Hypergraph> merged = MergeShards(parts);
  ASSERT_TRUE(merged.ok());
  ExpectSameContent(h, merged.value());
}

TEST(ShardIoTest, SaveLoadRoundTripsAtSeveralFanouts) {
  Hypergraph h = GenerateHypergraph(SmallRandomConfig(3));
  for (uint32_t k : {1u, 2u, 8u}) {
    const std::string prefix =
        TempPath("shard_io_" + std::to_string(k));
    Result<std::vector<std::string>> paths = SaveShards(h, prefix, k);
    ASSERT_TRUE(paths.ok()) << paths.status().ToString();
    ASSERT_EQ(paths.value().size(), k);
    for (uint32_t i = 0; i < k; ++i) {
      EXPECT_EQ(paths.value()[i], ShardPath(prefix, i, k));
    }
    Result<Hypergraph> reloaded = LoadShards(paths.value());
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    ExpectSameContent(h, reloaded.value());
  }
}

TEST(ShardIoTest, LoadShardsRejectsMissingFile) {
  Result<Hypergraph> r = LoadShards({"/nonexistent/shard0.hgb"});
  EXPECT_FALSE(r.ok());
}

// Thread-safe embedding collector: slices emit concurrently.
class CollectingSink : public EmbeddingSink {
 public:
  void Emit(const EdgeId* edges, uint32_t size) override {
    std::lock_guard<std::mutex> lock(mutex_);
    embeddings_.emplace_back(edges, edges + size);
  }

  std::vector<Embedding> Sorted() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Embedding> out = embeddings_;
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::mutex mutex_;
  std::vector<Embedding> embeddings_;
};

ServiceOptions ShardedOptions(uint32_t shards) {
  ServiceOptions o;
  o.parallel.num_threads = 4;
  o.parallel.scan_grain = 1;
  o.shards = shards;
  return o;
}

// The acceptance bar: merged sharded counts equal MatchSequential at
// K in {1, 2, 8}, across several query shapes and datasets.
TEST(ShardExecTest, MergedCountsMatchSequentialAtEveryFanout) {
  for (uint64_t seed : {5u, 9u}) {
    IndexedHypergraph idx =
        IndexedHypergraph::Build(GenerateHypergraph(SmallRandomConfig(seed)));
    std::vector<Hypergraph> queries;
    queries.push_back(PaperQueryHypergraph());
    {
      Hypergraph path;
      path.AddVertices(3, 0);
      (void)path.AddEdge({0, 1});
      (void)path.AddEdge({1, 2});
      queries.push_back(std::move(path));
    }
    for (const Hypergraph& q : queries) {
      Result<MatchStats> expected = MatchSequential(idx, q);
      for (uint32_t k : {1u, 2u, 8u}) {
        MatchService service(idx, ShardedOptions(k));
        Ticket t = service.Submit(q.Clone());
        const QueryOutcome& out = t.Wait();
        if (!expected.ok()) {
          EXPECT_EQ(out.status, QueryStatus::kPlanError);
          continue;
        }
        EXPECT_EQ(out.status, QueryStatus::kOk)
            << "seed " << seed << " shards " << k;
        EXPECT_EQ(out.stats.embeddings, expected.value().embeddings)
            << "seed " << seed << " shards " << k;
      }
    }
  }
}

// Sharded slices partition the embedding *set*, not just its count: a
// sink over K slices collects exactly the unsharded embeddings.
TEST(ShardExecTest, SinkCollectsIdenticalEmbeddingSet) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  const Hypergraph query = PaperQueryHypergraph();

  CollectingSink unsharded;
  {
    MatchService service(idx, ShardedOptions(1));
    SubmitOptions so;
    so.sink = &unsharded;
    service.Submit(query.Clone(), so).Wait();
  }
  ASSERT_FALSE(unsharded.Sorted().empty());

  for (uint32_t k : {2u, 8u}) {
    CollectingSink sharded;
    MatchService service(idx, ShardedOptions(k));
    SubmitOptions so;
    so.sink = &sharded;
    const QueryOutcome& out = service.Submit(query.Clone(), so).Wait();
    EXPECT_EQ(out.status, QueryStatus::kOk);
    EXPECT_EQ(sharded.Sorted(), unsharded.Sorted()) << "shards " << k;
  }
}

// Status merge severity: one slice hitting its embedding limit makes the
// whole merged outcome kLimit (limit outranks ok). With more embeddings
// than slices and limit 1, some slice must stop early (pigeonhole).
TEST(ShardExecTest, SliceLimitSurfacesAsMergedLimitStatus) {
  Hypergraph data;
  data.AddVertices(10, 0);
  for (VertexId i = 0; i < 10; ++i) {
    for (VertexId j = i + 1; j < 10; ++j) (void)data.AddEdge({i, j});
  }
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(data));
  Hypergraph query;
  query.AddVertices(3, 0);
  (void)query.AddEdge({0, 1});
  (void)query.AddEdge({1, 2});

  Result<MatchStats> full = MatchSequential(idx, query);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.value().embeddings, 2u);

  MatchService service(idx, ShardedOptions(2));
  SubmitOptions so;
  so.limit = 1;
  const QueryOutcome& out = service.Submit(query.Clone(), so).Wait();
  EXPECT_EQ(out.status, QueryStatus::kLimit);
  EXPECT_TRUE(out.stats.limit_hit);
  // The per-slice limit may overshoot (documented), but never below the
  // single-slice bound and never past one hit per slice.
  EXPECT_GE(out.stats.embeddings, 1u);
  EXPECT_LE(out.stats.embeddings, 2u);
}

// Sharded submissions interleaved with plain ones on one service: each
// ticket still resolves to its own exact counts.
TEST(ShardExecTest, ShardedBatchMatchesPerQuerySequential) {
  IndexedHypergraph idx =
      IndexedHypergraph::Build(GenerateHypergraph(SmallRandomConfig(7)));
  std::vector<Hypergraph> queries;
  for (uint32_t edges : {1u, 2u, 3u}) {
    Hypergraph q;
    q.AddVertices(edges + 1, 0);
    for (VertexId v = 0; v < edges; ++v) (void)q.AddEdge({v, v + 1});
    queries.push_back(std::move(q));
  }

  MatchService service(idx, ShardedOptions(2));
  std::vector<BatchSubmission> batch;
  for (const Hypergraph& q : queries) batch.push_back({q.Clone(), {}});
  std::vector<Ticket> tickets = service.SubmitBatch(std::move(batch));
  ASSERT_EQ(tickets.size(), queries.size());
  for (size_t i = 0; i < tickets.size(); ++i) {
    Result<MatchStats> expected = MatchSequential(idx, queries[i]);
    ASSERT_TRUE(expected.ok());
    const QueryOutcome& out = tickets[i].Wait();
    EXPECT_EQ(out.status, QueryStatus::kOk);
    EXPECT_EQ(out.stats.embeddings, expected.value().embeddings) << i;
  }
}

}  // namespace
}  // namespace hgmatch
