// Tests of the hypergraph statistics module, the binary serialization
// format, the matching-order ablation variants, and the generator's label
// locality.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/hgmatch.h"
#include "core/hypergraph_stats.h"
#include "gen/query_gen.h"
#include "io/binary_format.h"
#include "io/writer.h"
#include "tests/test_fixtures.h"

namespace hgmatch {
namespace {

TEST(HypergraphStatsTest, PaperExample) {
  HypergraphStats s = ComputeStats(PaperDataHypergraph());
  EXPECT_EQ(s.num_vertices, 7u);
  EXPECT_EQ(s.num_edges, 6u);
  EXPECT_EQ(s.num_labels, 3u);
  EXPECT_EQ(s.num_incidences, 18u);
  EXPECT_EQ(s.max_arity, 4u);
  EXPECT_DOUBLE_EQ(s.avg_arity, 3.0);
  EXPECT_EQ(s.max_degree, 4u);  // v4
  EXPECT_TRUE(s.connected);
  // Arity histogram: two 2-edges, two 3-edges, two 4-edges.
  ASSERT_EQ(s.arity_histogram.size(), 5u);
  EXPECT_EQ(s.arity_histogram[2], 2u);
  EXPECT_EQ(s.arity_histogram[3], 2u);
  EXPECT_EQ(s.arity_histogram[4], 2u);
  // Label counts: 4 A, 1 B, 2 C.
  EXPECT_EQ(s.label_counts, (std::vector<uint64_t>{4, 1, 2}));
  // Degree histogram sums to |V|.
  uint64_t sum = 0;
  for (uint64_t c : s.degree_histogram) sum += c;
  EXPECT_EQ(sum, 7u);
  EXPECT_FALSE(s.ToString().empty());
}

TEST(HypergraphStatsTest, GiniDetectsSkew) {
  // Uniform degrees -> gini near 0.
  Hypergraph even;
  even.AddVertices(20, 0);
  for (VertexId v = 0; v < 20; v += 2) (void)even.AddEdge({v, v + 1});
  EXPECT_LT(ComputeStats(even).degree_gini, 0.05);

  // One hub in every edge -> high gini.
  Hypergraph hub;
  hub.AddVertices(21, 0);
  for (VertexId v = 1; v < 21; ++v) (void)hub.AddEdge({0, v});
  EXPECT_GT(ComputeStats(hub).degree_gini, 0.4);
}

TEST(PartitionStatsTest, PaperExample) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  PartitionStats s = ComputePartitionStats(idx);
  EXPECT_EQ(s.num_partitions, 3u);
  EXPECT_EQ(s.largest_partition, 2u);
  EXPECT_DOUBLE_EQ(s.avg_partition_size, 2.0);
  EXPECT_DOUBLE_EQ(s.top10_fraction, 1.0);
  EXPECT_FALSE(s.ToString().empty());
}

TEST(BinaryFormatTest, RoundTrip) {
  Hypergraph h = GenerateHypergraph(SmallRandomConfig(12));
  const std::string path = TempPath("hg_binary_test.hgb");
  ASSERT_TRUE(SaveHypergraphBinary(h, path).ok());
  Result<Hypergraph> loaded = LoadHypergraphBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(FormatHypergraph(loaded.value()), FormatHypergraph(h));
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsGarbage) {
  const std::string path = TempPath("hg_binary_garbage.hgb");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "this is not a hypergraph";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  Result<Hypergraph> r = LoadHypergraphBinary(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
  EXPECT_FALSE(LoadHypergraphBinary("/nonexistent/x.hgb").ok());
}

TEST(BinaryFormatTest, RejectsTruncation) {
  Hypergraph h = PaperDataHypergraph();
  const std::string path = TempPath("hg_binary_trunc.hgb");
  ASSERT_TRUE(SaveHypergraphBinary(h, path).ok());
  // Truncate the file in the middle of the hyperedge section.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long full = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), full - 6), 0);
  EXPECT_FALSE(LoadHypergraphBinary(path).ok());
  std::remove(path.c_str());
}

TEST(OrderVariantTest, AllVariantsYieldSameCounts) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Hypergraph data = GenerateHypergraph(SmallRandomConfig(seed));
    Rng rng(seed + 500);
    Result<Hypergraph> q =
        SampleQuery(data, QuerySettings{"t", 3, 2, 100}, &rng);
    ASSERT_TRUE(q.ok());
    IndexedHypergraph idx = IndexedHypergraph::Build(std::move(data));

    uint64_t expected = UINT64_MAX;
    for (OrderVariant variant :
         {OrderVariant::kCardinality, OrderVariant::kConnectedOnly,
          OrderVariant::kMaxCardinality, OrderVariant::kAsGiven}) {
      std::vector<EdgeId> order =
          ComputeMatchingOrderVariant(q.value(), idx, variant);
      Result<QueryPlan> plan =
          BuildQueryPlanWithOrder(q.value(), std::move(order));
      ASSERT_TRUE(plan.ok());
      const MatchStats stats =
          ExecutePlanSequential(idx, plan.value(), MatchOptions{}, nullptr);
      if (expected == UINT64_MAX) {
        expected = stats.embeddings;
      } else {
        EXPECT_EQ(stats.embeddings, expected)
            << "variant " << static_cast<int>(variant) << " seed " << seed;
      }
    }
  }
}

TEST(GeneratorLocalityTest, LocalityConcentratesSignatures) {
  GeneratorConfig base = SmallRandomConfig(3);
  base.num_vertices = 400;
  base.num_edges = 1500;
  base.num_labels = 12;
  base.label_locality = 0.0;
  GeneratorConfig local = base;
  local.label_locality = 0.9;

  IndexedHypergraph spread =
      IndexedHypergraph::Build(GenerateHypergraph(base));
  IndexedHypergraph themed =
      IndexedHypergraph::Build(GenerateHypergraph(local));
  // Thematic hyperedges collide in far fewer signature tables.
  EXPECT_LT(themed.partitions().size(), spread.partitions().size());
  const PartitionStats ps = ComputePartitionStats(themed);
  const PartitionStats pb = ComputePartitionStats(spread);
  EXPECT_GT(ps.avg_partition_size, pb.avg_partition_size);
}

}  // namespace
}  // namespace hgmatch
