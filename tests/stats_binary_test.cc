// Tests of the hypergraph statistics module, the binary serialization
// format, the matching-order ablation variants, and the generator's label
// locality.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>

#include "core/hgmatch.h"
#include "core/hypergraph_stats.h"
#include "gen/query_gen.h"
#include "io/binary_format.h"
#include "io/loader.h"
#include "io/writer.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"

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

// A decoded graph must hold together: every hyperedge names vertices
// below NumVertices(), and every vertex's incidence list reads back, lists
// only hyperedges that contain the vertex, and all lists together hold
// every incidence once.
void ExpectWellFormed(const Hypergraph& h) {
  for (EdgeId e = 0; e < h.NumEdges(); ++e) {
    for (VertexId v : h.edge(e)) ASSERT_LT(v, h.NumVertices());
  }
  uint64_t incidences = 0;
  for (VertexId v = 0; v < h.NumVertices(); ++v) {
    for (EdgeId e : h.incident(v)) {
      ASSERT_LT(e, h.NumEdges());
      const std::span<const VertexId> members = h.edge(e);
      ASSERT_TRUE(std::binary_search(members.begin(), members.end(), v));
      ++incidences;
    }
  }
  EXPECT_EQ(incidences, h.NumIncidences());
}

// One to three seeded mutations of `image`, each a bit flip, a byte
// overwrite, a byte insertion or a truncation.
std::string Mutate(const std::string& image, Rng* rng) {
  std::string m = image;
  for (uint64_t n = 1 + rng->NextBounded(3); n > 0; --n) {
    const size_t pos = rng->NextBounded(m.size() + 1);
    const char byte = static_cast<char>(rng->NextBounded(256));
    switch (rng->NextBounded(4)) {
      case 0:
        if (pos < m.size()) {
          m[pos] ^= static_cast<char>(1u << rng->NextBounded(8));
        }
        break;
      case 1:
        if (pos < m.size()) m[pos] = byte;
        break;
      case 2:
        m.insert(m.begin() + static_cast<ptrdiff_t>(pos), byte);
        break;
      default:
        m.resize(pos);
        break;
    }
  }
  return m;
}

// Seeded mutations of valid v1 and v2 images: each decode is either an
// error or a well-formed graph, never a crash or a sanitizer report.
TEST(BinaryFormatTest, MutatedImagesDecodeToErrorsOrWellFormedGraphs) {
  constexpr int kMutations = 5000;
  const Hypergraph graphs[] = {PaperDataHypergraph(),
                               GenerateHypergraph(SmallRandomConfig(12))};
  Rng rng(0xF022);
  for (bool compressed : {false, true}) {
    for (const Hypergraph& h : graphs) {
      std::string image;
      if (compressed) {
        AppendHypergraphCompressed(h, &image);
      } else {
        AppendHypergraphBinary(h, &image);
      }
      int accepted = 0;
      for (int i = 0; i < kMutations / 2; ++i) {
        const std::string m = Mutate(image, &rng);
        Result<Hypergraph> r = DecodeHypergraphBinary(m.data(), m.size());
        if (!r.ok()) continue;
        ++accepted;
        SCOPED_TRACE(std::string(compressed ? "v2" : "v1") + " mutation " +
                     std::to_string(i));
        ExpectWellFormed(r.value());
        if (HasFatalFailure()) return;
      }
      // The loop must reach past the header checks, not only bounce off
      // them: some mutations (say, a flipped label bit) still decode.
      EXPECT_GT(accepted, 0) << (compressed ? "v2" : "v1");
    }
  }
}

// The same loop over the text format.
TEST(BinaryFormatTest, MutatedTextParsesToErrorsOrWellFormedGraphs) {
  constexpr int kMutations = 5000;
  const std::string texts[] = {
      FormatHypergraph(PaperDataHypergraph()),
      FormatHypergraph(GenerateHypergraph(SmallRandomConfig(12)))};
  Rng rng(0x7E47);
  for (const std::string& text : texts) {
    int accepted = 0;
    for (int i = 0; i < kMutations / 2; ++i) {
      Result<Hypergraph> r = ParseHypergraph(Mutate(text, &rng));
      if (!r.ok()) continue;
      ++accepted;
      SCOPED_TRACE("text mutation " + std::to_string(i));
      ExpectWellFormed(r.value());
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(accepted, 0);
  }
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
