#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/hgmatch.h"
#include "gen/dataset_profiles.h"
#include "gen/generator.h"
#include "gen/knowledge_base.h"
#include "gen/query_gen.h"
#include "io/binary_format.h"
#include "io/loader.h"
#include "io/writer.h"
#include "tests/test_fixtures.h"

namespace hgmatch {
namespace {

TEST(GeneratorTest, Deterministic) {
  GeneratorConfig c = SmallRandomConfig(9);
  Hypergraph a = GenerateHypergraph(c);
  Hypergraph b = GenerateHypergraph(c);
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (EdgeId e = 0; e < a.NumEdges(); ++e) {
    EXPECT_TRUE(std::ranges::equal(a.edge(e), b.edge(e))) << "edge " << e;
  }
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    EXPECT_EQ(a.label(v), b.label(v));
  }
}

TEST(GeneratorTest, RespectsConfigBounds) {
  GeneratorConfig c;
  c.seed = 4;
  c.num_vertices = 120;
  c.num_edges = 300;
  c.num_labels = 5;
  c.arity_min = 2;
  c.arity_max = 7;
  Hypergraph h = GenerateHypergraph(c);
  EXPECT_EQ(h.NumVertices(), 120u);
  EXPECT_LE(h.NumEdges(), 300u);
  EXPECT_GE(h.NumEdges(), 250u);  // dedup loses a few at most here
  EXPECT_LE(h.MaxArity(), 7u);
  EXPECT_LE(h.NumLabels(), 5u);
  for (EdgeId e = 0; e < h.NumEdges(); ++e) {
    EXPECT_GE(h.arity(e), 2u);
  }
}

TEST(GeneratorTest, ArityDistributions) {
  GeneratorConfig c;
  c.arity_min = 3;
  c.arity_max = 9;
  Rng rng(1);
  c.arity_dist = ArityDistribution::kUniform;
  for (int i = 0; i < 200; ++i) {
    const uint32_t a = SampleArity(c, &rng);
    EXPECT_GE(a, 3u);
    EXPECT_LE(a, 9u);
  }
  c.arity_dist = ArityDistribution::kGeometric;
  c.arity_param = 0.5;
  double sum = 0;
  for (int i = 0; i < 5000; ++i) {
    const uint32_t a = SampleArity(c, &rng);
    EXPECT_GE(a, 3u);
    EXPECT_LE(a, 9u);
    sum += a;
  }
  EXPECT_NEAR(sum / 5000, 4.0, 0.3);  // 3 + 1/p - 1 = 4
  c.arity_dist = ArityDistribution::kZipf;
  c.arity_param = 1.2;
  for (int i = 0; i < 200; ++i) {
    const uint32_t a = SampleArity(c, &rng);
    EXPECT_GE(a, 3u);
    EXPECT_LE(a, 9u);
  }
}

TEST(GeneratorTest, SkewProducesHeavyTail) {
  GeneratorConfig c;
  c.seed = 10;
  c.num_vertices = 500;
  c.num_edges = 800;
  c.num_labels = 3;
  c.vertex_skew = 1.0;
  Hypergraph h = GenerateHypergraph(c);
  uint32_t max_deg = 0;
  uint64_t sum_deg = 0;
  for (VertexId v = 0; v < h.NumVertices(); ++v) {
    max_deg = std::max(max_deg, h.degree(v));
    sum_deg += h.degree(v);
  }
  const double avg = static_cast<double>(sum_deg) / h.NumVertices();
  EXPECT_GT(max_deg, 5 * avg) << "expected a heavy-tailed degree sequence";
}

TEST(DatasetProfilesTest, AllTenPresentInPaperOrder) {
  const auto& profiles = AllDatasetProfiles();
  ASSERT_EQ(profiles.size(), 10u);
  const char* expected[] = {"HC", "MA", "CH", "CP", "SB",
                            "HB", "WT", "TC", "SA", "AR"};
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(profiles[i].name, expected[i]);
  EXPECT_NE(FindDatasetProfile("WT"), nullptr);
  EXPECT_EQ(FindDatasetProfile("XX"), nullptr);
}

TEST(DatasetProfilesTest, SmallProfilesMatchPaperShape) {
  // Generate the small datasets at full scale and check the shape stats
  // land near Table II.
  for (const char* name : {"HC", "CH", "CP", "SB"}) {
    const DatasetProfile* p = FindDatasetProfile(name);
    ASSERT_NE(p, nullptr);
    Hypergraph h = p->Generate(1.0);
    EXPECT_EQ(h.NumVertices(), p->paper_vertices) << name;
    EXPECT_GE(h.NumEdges(), p->paper_edges * 9 / 10) << name;
    EXPECT_LE(h.MaxArity(), p->paper_max_arity) << name;
    EXPECT_LE(h.NumLabels(), p->paper_labels) << name;
    // Average arity within a factor ~2 of the paper's.
    EXPECT_GT(h.AverageArity(), p->paper_avg_arity / 2.5) << name;
    EXPECT_LT(h.AverageArity(), p->paper_avg_arity * 2.5) << name;
  }
}

TEST(DatasetProfilesTest, LargeProfilesDefaultScaledDown) {
  EXPECT_LT(FindDatasetProfile("SA")->default_scale, 1.0);
  EXPECT_LT(FindDatasetProfile("AR")->default_scale, 1.0);
  EXPECT_DOUBLE_EQ(FindDatasetProfile("HC")->default_scale, 1.0);
}

TEST(QueryGenTest, SamplesSatisfyTableThreeOrFallBack) {
  const DatasetProfile* p = FindDatasetProfile("SB");
  Hypergraph data = p->Generate(0.5);
  Rng rng(3);
  for (const QuerySettings& settings : kAllQuerySettings) {
    Result<Hypergraph> q = SampleQuery(data, settings, &rng);
    ASSERT_TRUE(q.ok()) << settings.name;
    EXPECT_EQ(q.value().NumEdges(), settings.num_edges);
    EXPECT_TRUE(q.value().IsConnected());
  }
}

TEST(QueryGenTest, SampledQueryAlwaysHasAnEmbedding) {
  Hypergraph data = GenerateHypergraph(SmallRandomConfig(6));
  IndexedHypergraph idx = IndexedHypergraph::Build(data.Clone());
  Rng rng(66);
  for (int i = 0; i < 5; ++i) {
    QuerySettings settings{"t", 3, 2, 100};
    Result<Hypergraph> q = SampleQuery(data, settings, &rng);
    ASSERT_TRUE(q.ok());
    Result<MatchStats> stats = MatchSequential(idx, q.value());
    ASSERT_TRUE(stats.ok());
    EXPECT_GE(stats.value().embeddings, 1u);
  }
}

TEST(QueryGenTest, SampleQueriesReturnsRequestedCount) {
  Hypergraph data = GenerateHypergraph(SmallRandomConfig(8));
  auto queries = SampleQueries(data, kQ2, 10, 99);
  EXPECT_EQ(queries.size(), 10u);
  // Deterministic in the seed.
  auto again = SampleQueries(data, kQ2, 10, 99);
  ASSERT_EQ(again.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(FormatHypergraph(queries[i]), FormatHypergraph(again[i]));
  }
}

TEST(KnowledgeBaseTest, PlantedPatternsAreFound) {
  KbConfig config;
  Hypergraph kb = GenerateKnowledgeBase(config);
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(kb));

  Result<MatchStats> q1 = MatchSequential(idx, KbQueryMultiTeamPlayer());
  ASSERT_TRUE(q1.ok());
  // Each planted player contributes at least one (unordered pair counted
  // twice by edge-tuple order) match; background facts may add more.
  EXPECT_GE(q1.value().embeddings,
            2u * (config.planted_multi_team_players - 1));

  Result<MatchStats> q2 = MatchSequential(idx, KbQueryRecastCharacter());
  ASSERT_TRUE(q2.ok());
  EXPECT_GE(q2.value().embeddings,
            2u * (config.planted_recast_characters - 1));
}

TEST(KnowledgeBaseTest, TypeNames) {
  EXPECT_STREQ(KbTypeName(kPlayer), "Player");
  EXPECT_STREQ(KbTypeName(kSeason), "Season");
  EXPECT_STREQ(KbTypeName(99), "Unknown");
}

TEST(IoTest, RoundTrip) {
  Hypergraph h = PaperDataHypergraph();
  const std::string text = FormatHypergraph(h);
  Result<Hypergraph> parsed = ParseHypergraph(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Hypergraph& g = parsed.value();
  ASSERT_EQ(g.NumVertices(), h.NumVertices());
  ASSERT_EQ(g.NumEdges(), h.NumEdges());
  for (VertexId v = 0; v < h.NumVertices(); ++v) {
    EXPECT_EQ(g.label(v), h.label(v));
  }
  for (EdgeId e = 0; e < h.NumEdges(); ++e) {
    EXPECT_TRUE(std::ranges::equal(g.edge(e), h.edge(e))) << "edge " << e;
  }
}

TEST(IoTest, FileRoundTrip) {
  Hypergraph h = GenerateHypergraph(SmallRandomConfig(2));
  const std::string path = TempPath("hg_io_test.hg");
  ASSERT_TRUE(SaveHypergraph(h, path).ok());
  Result<Hypergraph> loaded = LoadHypergraph(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(FormatHypergraph(loaded.value()), FormatHypergraph(h));
  std::remove(path.c_str());
}

TEST(IoTest, BinaryFileRoundTripsInBothOnDiskVersions) {
  // The binary writer defaults to the compressed v2 (HGM2) layout; the
  // --v1 escape hatch writes the uncompressed v1 layout. Both must load
  // back to an identical hypergraph through the same entry point.
  Hypergraph h = GenerateHypergraph(SmallRandomConfig(2));
  const std::string v2 = TempPath("hg_io_test_v2.hgb");
  const std::string v1 = TempPath("hg_io_test_v1.hgb");
  ASSERT_TRUE(SaveHypergraphBinary(h, v2).ok());
  ASSERT_TRUE(SaveHypergraphBinary(h, v1, /*compress=*/false).ok());
  for (const std::string& path : {v2, v1}) {
    Result<Hypergraph> loaded = LoadHypergraphBinary(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(FormatHypergraph(loaded.value()), FormatHypergraph(h)) << path;
  }
  std::remove(v2.c_str());
  std::remove(v1.c_str());
}

TEST(IoTest, ParserAcceptsCommentsAndBlankLines) {
  Result<Hypergraph> h = ParseHypergraph(
      "# a comment\n"
      "\n"
      "v 0 3\n"
      "v 1 4\n"
      "e 0 1\n");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.value().NumVertices(), 2u);
  EXPECT_EQ(h.value().NumEdges(), 1u);
  EXPECT_EQ(h.value().label(1), 4u);
}

TEST(IoTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseHypergraph("x 1 2\n").ok());          // unknown tag
  EXPECT_FALSE(ParseHypergraph("v 0\n").ok());            // missing label
  EXPECT_FALSE(ParseHypergraph("v 0 1\ne\n").ok());       // empty edge
  EXPECT_FALSE(ParseHypergraph("v 0 1\nv 0 2\ne 0\n").ok());  // dup vertex
  EXPECT_FALSE(ParseHypergraph("v 0 1\nv 2 1\ne 0\n").ok());  // sparse ids
  EXPECT_FALSE(ParseHypergraph("v 0 1\ne 0 5\n").ok());   // unknown vertex
  EXPECT_FALSE(LoadHypergraph("/nonexistent/p.hg").ok()); // io error
}

TEST(QuerySetIoTest, ParseSeparatorsAndSampleOutput) {
  const Hypergraph q = PaperQueryHypergraph();
  const std::string one = FormatHypergraph(q);
  // "# query i" headers (hgmatch sample output) and "---" both separate.
  const std::string text =
      "# query 0\n" + one + "---\n" + one + "\n# query 2\n" + one;
  Result<std::vector<Hypergraph>> set = ParseQuerySet(text);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_EQ(set.value().size(), 3u);
  for (const Hypergraph& parsed : set.value()) {
    EXPECT_EQ(parsed.NumVertices(), q.NumVertices());
    EXPECT_EQ(parsed.NumEdges(), q.NumEdges());
  }
}

TEST(QuerySetIoTest, BadBlockReportsIndex) {
  Result<std::vector<Hypergraph>> set =
      ParseQuerySet("v 0 0\ne 0\n---\nnonsense line\n");
  ASSERT_FALSE(set.ok());
  EXPECT_NE(set.status().message().find("query block 1"), std::string::npos);
}

TEST(QuerySetIoTest, EmptyAndWhitespaceBlocksSkipped) {
  Result<std::vector<Hypergraph>> set =
      ParseQuerySet("---\n\n---\nv 0 0\ne 0\n---\n  \n");
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set.value().size(), 1u);
}

}  // namespace
}  // namespace hgmatch
