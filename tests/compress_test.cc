// Tests of the LZSS codec (io/compress.h), the varint layer (io/byte_io.h),
// and the v2 compressed on-disk hypergraph format built on both
// (io/binary_format.h), with the hostile-header checks of v1 beside v2's.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>
#include <string>

#include "gen/generator.h"
#include "io/binary_format.h"
#include "io/byte_io.h"
#include "io/compress.h"
#include "tests/test_fixtures.h"

// The largest single operator new request since the last reset, so a test
// can check that decoding never sizes an allocation from a header's counts.
std::atomic<size_t> largest_new_request{0};

// The replacements stay out of line: inlined, GCC sees the malloc inside
// operator new paired with the free inside operator delete at every
// `new`/`delete` of the file (gtest's test objects included) and reports
// -Wmismatched-new-delete, although the pair is consistent.
[[gnu::noinline]] void* operator new(size_t bytes) {
  size_t seen = largest_new_request.load(std::memory_order_relaxed);
  while (bytes > seen && !largest_new_request.compare_exchange_weak(
                             seen, bytes, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace hgmatch {
namespace {

std::string RoundTrip(const std::string& raw) {
  std::string packed;
  LzssCompress(raw, &packed);
  std::string back;
  Status s = LzssDecompress(packed, raw.size(), &back);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return back;
}

TEST(LzssTest, EmptyInput) {
  std::string packed;
  LzssCompress("", &packed);
  EXPECT_TRUE(packed.empty());
  std::string back;
  EXPECT_TRUE(LzssDecompress(packed, 0, &back).ok());
  EXPECT_TRUE(back.empty());
}

TEST(LzssTest, ShortLiteralsRoundTrip) {
  for (const std::string raw : {"a", "ab", "abc", "hello, world"}) {
    EXPECT_EQ(RoundTrip(raw), raw);
  }
}

TEST(LzssTest, RunsCollapseAndRoundTrip) {
  const std::string raw(100000, 'x');
  std::string packed;
  LzssCompress(raw, &packed);
  // A pure run is matches overlapping their own output: ~2.25 bytes per 18.
  EXPECT_LT(packed.size(), raw.size() / 6);
  std::string back;
  ASSERT_TRUE(LzssDecompress(packed, raw.size(), &back).ok());
  EXPECT_EQ(back, raw);
}

TEST(LzssTest, RepeatedStructureCompresses) {
  // The shape of a batched SUBMIT payload: many near-identical records.
  std::string raw;
  for (int i = 0; i < 2000; ++i) {
    raw += "record with mostly shared bytes #";
    raw += static_cast<char>('a' + i % 7);
  }
  std::string packed;
  LzssCompress(raw, &packed);
  EXPECT_LT(packed.size(), raw.size() / 4);
  std::string back;
  ASSERT_TRUE(LzssDecompress(packed, raw.size(), &back).ok());
  EXPECT_EQ(back, raw);
}

TEST(LzssTest, RandomInputsRoundTripExactly) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t len = static_cast<size_t>(rng() % 5000);
    // Small alphabets make matches common; large ones make literals common.
    const int alphabet = 1 + static_cast<int>(rng() % 255);
    std::string raw(len, '\0');
    for (char& c : raw) c = static_cast<char>(rng() % alphabet);
    EXPECT_EQ(RoundTrip(raw), raw);
  }
}

TEST(LzssTest, IncompressibleInputStaysBounded) {
  std::mt19937_64 rng(11);
  std::string raw(8192, '\0');
  for (char& c : raw) c = static_cast<char>(rng());
  std::string packed;
  LzssCompress(raw, &packed);
  // Documented worst case: one control byte per eight items, plus one group.
  EXPECT_LE(packed.size(), raw.size() + raw.size() / 8 + 1);
}

TEST(LzssTest, DecompressRejectsTruncatedToken) {
  std::string packed;
  LzssCompress(std::string(500, 'q'), &packed);
  ASSERT_GT(packed.size(), 3u);
  std::string back;
  EXPECT_FALSE(
      LzssDecompress(std::string_view(packed).substr(0, packed.size() - 1),
                     500, &back)
          .ok());
}

TEST(LzssTest, DecompressRejectsMatchBeforeStart) {
  // Control byte tagging item 0 as a match, then a token with distance 9
  // into an empty output.
  const std::string bad = {'\x01', '\x80', '\x00'};
  std::string back;
  Status s = LzssDecompress(bad, 100, &back);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(LzssTest, DecompressBoundsOutputSize) {
  // An inflation bomb: a valid stream decoding to far more than the bound
  // claimed out of band must fail instead of allocating.
  const std::string raw(100000, 'z');
  std::string packed;
  LzssCompress(raw, &packed);
  std::string back;
  EXPECT_FALSE(LzssDecompress(packed, 1000, &back).ok());
  EXPECT_LE(back.size(), 1000u + kLzssMaxMatch);
}

TEST(LzssTest, AdversarialRandomStreamsNeverOverrun) {
  // Random bytes fed straight to the decoder: any outcome is fine except a
  // crash or output past the declared bound.
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(rng() % 300, '\0');
    for (char& c : garbage) c = static_cast<char>(rng());
    const size_t bound = rng() % 600;
    std::string back;
    (void)LzssDecompress(garbage, bound, &back);
    EXPECT_LE(back.size(), bound + kLzssMaxMatch);
  }
}

TEST(VarintTest, RoundTripBoundaries) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             ~uint64_t{0}};
  std::string buf;
  for (uint64_t v : values) AppendVarint(v, &buf);
  ByteReader r(buf);
  for (uint64_t v : values) EXPECT_EQ(ReadVarint(r), v);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(VarintTest, TruncatedStreamFailsReader) {
  std::string buf;
  AppendVarint(1ull << 40, &buf);
  ByteReader r(std::string_view(buf).substr(0, 2));
  (void)ReadVarint(r);
  EXPECT_FALSE(r.ok());
}

TEST(VarintTest, OverlongEncodingFailsReader) {
  // Eleven continuation bytes: more than any 64-bit value needs.
  const std::string overlong(11, '\x80');
  ByteReader r(overlong);
  (void)ReadVarint(r);
  EXPECT_FALSE(r.ok());

  // Ten bytes whose last carries bits past the 64th.
  std::string past(9, '\x80');
  past.push_back('\x7f');
  ByteReader r2(past);
  (void)ReadVarint(r2);
  EXPECT_FALSE(r2.ok());
}

TEST(BinaryV2Test, InMemoryRoundTripMatchesV1) {
  const Hypergraph h = PaperDataHypergraph();
  std::string v2;
  AppendHypergraphCompressed(h, &v2);
  Result<Hypergraph> back = DecodeHypergraphBinary(v2.data(), v2.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  std::string v1_orig, v1_back;
  AppendHypergraphBinary(h, &v1_orig);
  AppendHypergraphBinary(back.value(), &v1_back);
  EXPECT_EQ(v1_orig, v1_back);
}

TEST(BinaryV2Test, GeneratedGraphRoundTripsAndShrinks) {
  const Hypergraph h = GenerateHypergraph(SmallRandomConfig(99));

  std::string v1, v2;
  AppendHypergraphBinary(h, &v1);
  AppendHypergraphCompressed(h, &v2);
  // Delta+varint alone beats fixed-width ids; LZSS only helps further.
  EXPECT_LT(v2.size(), v1.size());

  Result<Hypergraph> back = DecodeHypergraphBinary(v2.data(), v2.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  std::string v1_back;
  AppendHypergraphBinary(back.value(), &v1_back);
  EXPECT_EQ(v1_back, v1);
}

TEST(BinaryV2Test, MultiChunkBodyRoundTrips) {
  // Enough incidences that the compact body spans several chunks.
  Hypergraph h;
  h.AddVertices(200000, 0);
  std::mt19937_64 rng(3);
  for (int e = 0; e < 120000; ++e) {
    VertexSet m;
    const int arity = 2 + static_cast<int>(rng() % 5);
    for (int k = 0; k < arity; ++k) {
      m.push_back(static_cast<VertexId>(rng() % 200000));
    }
    (void)h.AddEdge(std::move(m));
  }
  std::string v2;
  AppendHypergraphCompressed(h, &v2);
  ASSERT_GT(v2.size(), 4u + 24u + 9u);  // sanity: header + >=1 chunk

  Result<Hypergraph> back = DecodeHypergraphBinary(v2.data(), v2.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  std::string a, b;
  AppendHypergraphBinary(h, &a);
  AppendHypergraphBinary(back.value(), &b);
  EXPECT_EQ(a, b);
}

TEST(BinaryV2Test, TruncationAtEveryPrefixFailsCleanly) {
  const Hypergraph h = PaperDataHypergraph();
  std::string v2;
  AppendHypergraphCompressed(h, &v2);
  for (size_t cut = 0; cut < v2.size(); ++cut) {
    Result<Hypergraph> r = DecodeHypergraphBinary(v2.data(), cut);
    EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes decoded";
  }
}

TEST(BinaryV2Test, MutatedImagesNeverCrash) {
  const Hypergraph h = GenerateHypergraph(SmallRandomConfig(5));
  std::string v2;
  AppendHypergraphCompressed(h, &v2);
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bad = v2;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      bad[rng() % bad.size()] ^= static_cast<char>(1u << (rng() % 8));
    }
    // Must return (ok or error), not crash, hang, or over-allocate.
    (void)DecodeHypergraphBinary(bad.data(), bad.size());
  }
}

TEST(BinaryV2Test, HostileHeaderCountsAreBoundedByInput)
{
  // A tiny image declaring 2^40 vertices must fail from input exhaustion,
  // not attempt the full loop.
  std::string bad;
  AppendValue<uint32_t>(kBinaryMagicV2, &bad);
  AppendValue<uint64_t>(1ull << 40, &bad);  // |V|
  AppendValue<uint64_t>(0, &bad);           // |E|
  AppendValue<uint64_t>(0, &bad);           // incidences
  Result<Hypergraph> r = DecodeHypergraphBinary(bad.data(), bad.size());
  EXPECT_FALSE(r.ok());
}

TEST(BinaryFormatTest, HostileHeaderCountsFailWithoutLargeAllocations) {
  // v1 and v2 images whose headers claim 2^40 hyperedges (and 2^40 or 2
  // vertices) over a body of two labels and one hyperedge {0}. Each must
  // fail as corrupt, and no allocation may be sized from the claims.
  constexpr uint64_t kHuge = uint64_t{1} << 40;
  for (const uint64_t num_vertices : {kHuge, uint64_t{2}}) {
    std::string v1;
    AppendValue<uint32_t>(kBinaryMagic, &v1);
    for (const uint64_t count : {num_vertices, kHuge, kHuge}) {
      AppendValue<uint64_t>(count, &v1);
    }
    for (const uint32_t word : {0u, 0u, 1u, 0u, 0u}) {  // labels, {0}
      AppendValue<uint32_t>(word, &v1);
    }
    std::string v2;
    AppendValue<uint32_t>(kBinaryMagicV2, &v2);
    for (const uint64_t count : {num_vertices, kHuge, kHuge}) {
      AppendValue<uint64_t>(count, &v2);
    }
    const std::string body("\0\0\1\0\0", 5);  // varints: labels, {0}
    AppendValue<uint32_t>(static_cast<uint32_t>(body.size()), &v2);  // raw
    AppendValue<uint32_t>(static_cast<uint32_t>(body.size()), &v2);  // kept
    AppendValue<uint8_t>(0, &v2);                                    // raw
    v2 += body;
    for (const std::string* image : {&v1, &v2}) {
      largest_new_request.store(0);
      const Result<Hypergraph> r =
          DecodeHypergraphBinary(image->data(), image->size());
      const size_t largest = largest_new_request.load();
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
          << (image == &v1 ? "v1" : "v2") << " |V| " << num_vertices;
      EXPECT_LT(largest, size_t{1} << 16)
          << (image == &v1 ? "v1" : "v2") << " |V| " << num_vertices;
    }
  }
}

TEST(BinaryV2Test, ChunkDeclaringOversizeRawIsRejected) {
  std::string bad;
  AppendValue<uint32_t>(kBinaryMagicV2, &bad);
  AppendValue<uint64_t>(1, &bad);
  AppendValue<uint64_t>(0, &bad);
  AppendValue<uint64_t>(0, &bad);
  AppendValue<uint32_t>(kBinaryChunkBytes + 1, &bad);  // raw too large
  AppendValue<uint32_t>(1, &bad);
  AppendValue<uint8_t>(0, &bad);
  bad.push_back('\0');
  Result<Hypergraph> r = DecodeHypergraphBinary(bad.data(), bad.size());
  EXPECT_FALSE(r.ok());
}

TEST(BinaryV2Test, SaveLoadParityBothVersions) {
  const Hypergraph h = GenerateHypergraph(SmallRandomConfig(23));
  for (const bool compress : {false, true}) {
    const std::string path =
        TempPath(compress ? "parity_v2.hgb" : "parity_v1.hgb");
    ASSERT_TRUE(SaveHypergraphBinary(h, path, compress).ok());
    Result<Hypergraph> back = LoadHypergraphBinary(path);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    std::string a, b;
    AppendHypergraphBinary(h, &a);
    AppendHypergraphBinary(back.value(), &b);
    EXPECT_EQ(a, b) << "compress=" << compress;
    std::remove(path.c_str());
  }
}

TEST(BinaryV2Test, V1FilesStillLoad) {
  // Backward compatibility: files written before the v2 bump (i.e. with
  // compress=false, the old writer's exact image) load unchanged.
  const Hypergraph h = PaperDataHypergraph();
  const std::string path = TempPath("legacy_v1.hgb");
  ASSERT_TRUE(SaveHypergraphBinary(h, path, /*compress=*/false).ok());

  std::string v1;
  AppendHypergraphBinary(h, &v1);
  // The uncompressed file image is byte-identical to the v1 wire image.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string file_bytes(v1.size() + 1, '\0');
  const size_t got = std::fread(file_bytes.data(), 1, file_bytes.size(), f);
  std::fclose(f);
  file_bytes.resize(got);
  EXPECT_EQ(file_bytes, v1);

  Result<Hypergraph> back = LoadHypergraphBinary(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().NumEdges(), h.NumEdges());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hgmatch
