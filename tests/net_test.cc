// Loopback coverage of the wire front end: frame encode/decode round
// trips and malformed-input rejection (net/protocol.h, no sockets), then
// a real MatchServer + MatchClient over 127.0.0.1 — submit/outcome parity
// with MatchSequential, pipelining, concurrent clients, cancel over the
// wire, connection drops cancelling in-flight queries, protocol errors
// closing the connection, and queue-depth backpressure surfacing as
// kRejected while admitted queries keep exact stats (the acceptance bar
// of the serve subsystem). Socket tests are POSIX-only and skip elsewhere.

#include "net/async_client.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/reactor.h"
#include "net/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/hgmatch.h"
#include "io/binary_format.h"
#include "io/byte_io.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"
#include "util/timer.h"

#if defined(__unix__) || defined(__APPLE__)
#define HGMATCH_NET_TEST_SOCKETS 1
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace hgmatch {
namespace {

// ------------------------------------------------ protocol (no sockets) --

TEST(ProtocolTest, SubmitFrameRoundTripsOptionsAndQuery) {
  WireSubmit submit;
  submit.request_id = 77;
  submit.tenant_id = 5;
  submit.priority = -3;
  submit.weight = 2.5;
  submit.timeout_seconds = 1.25;
  submit.limit = 42;
  submit.query = PaperQueryHypergraph();

  Result<WireSubmit> decoded = DecodeSubmit(EncodeSubmit(submit));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().request_id, 77u);
  EXPECT_EQ(decoded.value().tenant_id, 5u);
  EXPECT_EQ(decoded.value().priority, -3);
  EXPECT_EQ(decoded.value().weight, 2.5);
  EXPECT_EQ(decoded.value().timeout_seconds, 1.25);
  EXPECT_EQ(decoded.value().limit, 42u);
  EXPECT_EQ(decoded.value().query.NumVertices(), 5u);
  EXPECT_EQ(decoded.value().query.NumEdges(), 3u);
  EXPECT_TRUE(std::ranges::equal(decoded.value().query.edge(2),
                                 PaperQueryHypergraph().edge(2)));
}

TEST(ProtocolTest, OutcomeFrameRoundTripsFullStats) {
  WireOutcome wire;
  wire.request_id = 9;
  wire.outcome.status = QueryStatus::kLimit;
  wire.outcome.mirrored = true;
  wire.outcome.stats.embeddings = 101;
  wire.outcome.stats.candidates = 202;
  wire.outcome.stats.filtered = 150;
  wire.outcome.stats.expansions = 77;
  wire.outcome.stats.limit_hit = true;
  wire.outcome.stats.seconds = 0.5;
  wire.outcome.admit_seconds = 0.25;
  wire.outcome.finish_seconds = 0.75;
  wire.outcome.admit_index = 13;

  Result<WireOutcome> decoded = DecodeOutcome(EncodeOutcome(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const QueryOutcome& out = decoded.value().outcome;
  EXPECT_EQ(decoded.value().request_id, 9u);
  EXPECT_EQ(out.status, QueryStatus::kLimit);
  EXPECT_TRUE(out.mirrored);
  EXPECT_EQ(out.stats.embeddings, 101u);
  EXPECT_EQ(out.stats.candidates, 202u);
  EXPECT_EQ(out.stats.filtered, 150u);
  EXPECT_EQ(out.stats.expansions, 77u);
  EXPECT_TRUE(out.stats.limit_hit);
  EXPECT_EQ(out.stats.seconds, 0.5);
  EXPECT_EQ(out.admit_index, 13u);
}

TEST(ProtocolTest, RejectedFrameRoundTripsReason) {
  for (RejectReason reason :
       {RejectReason::kQueueFull, RejectReason::kRateLimited}) {
    WireRejected rejected;
    rejected.request_id = 321;
    rejected.reason = reason;
    Result<WireRejected> decoded = DecodeRejected(EncodeRejected(rejected));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().request_id, 321u);
    EXPECT_EQ(decoded.value().reason, reason);
  }
  EXPECT_STREQ(RejectReasonName(RejectReason::kQueueFull), "queue-full");
  EXPECT_STREQ(RejectReasonName(RejectReason::kRateLimited), "rate-limited");

  // Truncated, oversized and unknown-reason payloads are corruption.
  const std::string good = EncodeRejected(WireRejected{});
  EXPECT_FALSE(DecodeRejected(good.substr(0, good.size() - 1)).ok());
  EXPECT_FALSE(DecodeRejected(good + "x").ok());
  std::string bad_reason = good;
  bad_reason.back() = 7;
  EXPECT_FALSE(DecodeRejected(bad_reason).ok());
}

TEST(ProtocolTest, StatsFrameRoundTripsIoThreadRows) {
  WireStats stats;
  stats.num_threads = 3;
  stats.connections = 2;
  stats.submitted = 100;
  stats.completed = 90;
  stats.rejected = 4;
  stats.rate_limited = 6;
  stats.cancelled_by_disconnect = 1;
  stats.inflight = 5;
  stats.service_finished = 95;
  stats.service_live_contexts = 3;
  for (uint64_t i = 0; i < 2; ++i) {
    WireIoThreadStats row;
    row.connections = i + 1;
    row.frames_in = 10 * (i + 1);
    row.frames_out = 11 * (i + 1);
    row.bytes_in = 1000 * (i + 1);
    row.bytes_out = 1001 * (i + 1);
    row.rejects = i;
    stats.io_threads.push_back(row);
  }

  Result<WireStats> decoded = DecodeStats(EncodeStats(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().rate_limited, 6u);
  EXPECT_EQ(decoded.value().service_finished, 95u);
  EXPECT_EQ(decoded.value().service_live_contexts, 3u);
  ASSERT_EQ(decoded.value().io_threads.size(), 2u);
  EXPECT_EQ(decoded.value().io_threads[1].frames_in, 20u);
  EXPECT_EQ(decoded.value().io_threads[1].bytes_out, 2002u);

  // A row-count that disagrees with the remaining bytes is corruption,
  // not an allocation request.
  std::string encoded = EncodeStats(stats);
  EXPECT_FALSE(DecodeStats(encoded.substr(0, encoded.size() - 8)).ok());
}

TEST(ProtocolTest, StatsFrameRoundTripsGraphRows) {
  WireStats stats;
  stats.num_threads = 1;
  WireGraphStats g;
  g.name = "orders";
  g.is_default = true;
  g.queries = 42;
  g.live_tickets = 3;
  g.index_bytes = 123456;
  stats.graphs.push_back(g);
  g = WireGraphStats();
  g.name = "users";
  stats.graphs.push_back(g);

  Result<WireStats> decoded = DecodeStats(EncodeStats(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().graphs.size(), 2u);
  EXPECT_EQ(decoded.value().graphs[0].name, "orders");
  EXPECT_TRUE(decoded.value().graphs[0].is_default);
  EXPECT_EQ(decoded.value().graphs[0].queries, 42u);
  EXPECT_EQ(decoded.value().graphs[0].live_tickets, 3u);
  EXPECT_EQ(decoded.value().graphs[0].index_bytes, 123456u);
  EXPECT_EQ(decoded.value().graphs[1].name, "users");
  EXPECT_FALSE(decoded.value().graphs[1].is_default);
}

TEST(ProtocolTest, SubmitFrameCarriesGraphName) {
  WireSubmit submit;
  submit.request_id = 9;
  submit.query = PaperQueryHypergraph();
  submit.graph = "orders";

  Result<WireSubmit> routed = DecodeSubmit(EncodeSubmit(submit));
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed.value().graph, "orders");
  EXPECT_EQ(routed.value().request_id, 9u);
  EXPECT_EQ(routed.value().query.NumEdges(), submit.query.NumEdges());

  // The empty name (the default graph) travels as a zero-length string.
  WireSubmit plain;
  plain.request_id = 9;
  plain.query = PaperQueryHypergraph();
  Result<WireSubmit> unrouted = DecodeSubmit(EncodeSubmit(plain));
  ASSERT_TRUE(unrouted.ok());
  EXPECT_TRUE(unrouted.value().graph.empty());

  // A graph-name length running past the payload is corruption.
  std::string truncated = EncodeSubmit(submit);
  truncated.resize(20);
  EXPECT_FALSE(DecodeSubmit(truncated).ok());
}

TEST(ProtocolTest, OutcomeFrameCarriesTraceOnlyWhenNegotiated) {
  WireOutcome wire;
  wire.request_id = 11;
  wire.outcome.stats.embeddings = 7;
  wire.outcome.span.enabled = true;
  wire.outcome.span.submit_seconds = 1.0;
  wire.outcome.span.admit_seconds = 1.25;
  wire.outcome.span.first_task_seconds = 1.5;
  wire.outcome.span.last_task_seconds = 2.0;
  wire.outcome.span.resolve_seconds = 2.25;
  wire.outcome.span.deliver_seconds = 2.5;

  // Negotiated peers round-trip the whole timeline.
  Result<WireOutcome> traced =
      DecodeOutcome(EncodeOutcome(wire, /*with_trace=*/true),
                    /*with_trace=*/true);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  const QuerySpan& span = traced.value().outcome.span;
  EXPECT_TRUE(span.enabled);
  EXPECT_EQ(span.submit_seconds, 1.0);
  EXPECT_EQ(span.admit_seconds, 1.25);
  EXPECT_EQ(span.first_task_seconds, 1.5);
  EXPECT_EQ(span.last_task_seconds, 2.0);
  EXPECT_EQ(span.resolve_seconds, 2.25);
  EXPECT_EQ(span.deliver_seconds, 2.5);

  // Without the feature the section never reaches the wire: the payload
  // is byte-identical to a pre-trace encoding of the same outcome.
  WireOutcome plain;
  plain.request_id = 11;
  plain.outcome.stats.embeddings = 7;
  EXPECT_EQ(EncodeOutcome(wire, /*with_trace=*/false), EncodeOutcome(plain));
  Result<WireOutcome> untraced = DecodeOutcome(EncodeOutcome(wire));
  ASSERT_TRUE(untraced.ok());
  EXPECT_FALSE(untraced.value().outcome.span.enabled);

  // An untraced submission on a traced connection carries one "disabled"
  // byte; anything other than 0/1 there is corruption, as is truncation
  // anywhere inside the section.
  WireOutcome quiet;
  std::string encoded = EncodeOutcome(quiet, /*with_trace=*/true);
  Result<WireOutcome> off = DecodeOutcome(encoded, /*with_trace=*/true);
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off.value().outcome.span.enabled);
  encoded.back() = 7;
  EXPECT_FALSE(DecodeOutcome(encoded, /*with_trace=*/true).ok());
  std::string full = EncodeOutcome(wire, /*with_trace=*/true);
  for (size_t cut : {size_t{1}, size_t{8}, size_t{20}}) {
    EXPECT_FALSE(
        DecodeOutcome(std::string_view(full).substr(0, full.size() - cut),
                      /*with_trace=*/true)
            .ok())
        << "cut " << cut;
  }
}

TEST(ProtocolTest, TracedOutcomeRejectsTruncatedStampsAndTrailingBytes) {
  // The span is plain data, so the decoder has no length field to trust:
  // hostile input can fail the bounds checks but never size an
  // allocation.
  static_assert(std::is_trivially_copyable_v<QuerySpan>);
  WireOutcome wire;
  wire.request_id = 5;
  wire.outcome.span.enabled = true;
  wire.outcome.span.submit_seconds = 1.0;
  wire.outcome.span.deliver_seconds = 2.0;
  const std::string full = EncodeOutcome(wire, /*with_trace=*/true);

  // A cut anywhere inside the six stamps leaves one truncated.
  for (size_t cut = 1; cut < 6 * sizeof(double); ++cut) {
    Result<WireOutcome> r = DecodeOutcome(
        std::string_view(full).substr(0, full.size() - cut),
        /*with_trace=*/true);
    ASSERT_FALSE(r.ok()) << "cut " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << "cut " << cut;
  }

  // Bytes after the section, shaped like a huge varint row count, on a
  // traced and an untraced outcome alike.
  for (bool enabled : {true, false}) {
    wire.outcome.span.enabled = enabled;
    std::string padded = EncodeOutcome(wire, /*with_trace=*/true);
    padded.append("\xff\xff\xff\xff\xff\xff\xff\xff\x7f");
    Result<WireOutcome> r = DecodeOutcome(padded, /*with_trace=*/true);
    ASSERT_FALSE(r.ok()) << "enabled " << enabled;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
}

TEST(ProtocolTest, StatsFrameRoundTripsUptimeAndSlowQueries) {
  WireStats stats;
  stats.num_threads = 1;
  stats.uptime_seconds = 12.5;
  stats.monotonic_seconds = 99.25;
  WireSlowQuery slow;
  slow.request_id = 42;
  slow.tenant_id = 3;
  slow.graph = "orders";
  slow.total_seconds = 0.5;
  slow.queue_seconds = 0.1;
  slow.run_seconds = 0.3;
  slow.deliver_seconds = 0.05;
  stats.slow_queries.push_back(slow);
  stats.slow_queries.push_back(WireSlowQuery{});

  Result<WireStats> decoded = DecodeStats(EncodeStats(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().uptime_seconds, 12.5);
  EXPECT_EQ(decoded.value().monotonic_seconds, 99.25);
  ASSERT_EQ(decoded.value().slow_queries.size(), 2u);
  EXPECT_EQ(decoded.value().slow_queries[0].request_id, 42u);
  EXPECT_EQ(decoded.value().slow_queries[0].tenant_id, 3u);
  EXPECT_EQ(decoded.value().slow_queries[0].graph, "orders");
  EXPECT_EQ(decoded.value().slow_queries[0].total_seconds, 0.5);
  EXPECT_EQ(decoded.value().slow_queries[0].queue_seconds, 0.1);
  EXPECT_EQ(decoded.value().slow_queries[0].run_seconds, 0.3);
  EXPECT_EQ(decoded.value().slow_queries[0].deliver_seconds, 0.05);
  EXPECT_EQ(decoded.value().slow_queries[1].request_id, 0u);
}

TEST(ProtocolTest, StatsFrameCutAtAnyByteIsCorruption) {
  // One fixed layout: every section is required, so a payload cut at any
  // byte — inside the IO rows, the graph rows, the uptime fields or a slow
  // row — is corruption, never a shorter valid snapshot.
  WireStats stats;
  stats.num_threads = 2;
  stats.io_threads.resize(2);
  WireGraphStats g;
  g.name = "orders";
  stats.graphs.push_back(g);
  stats.uptime_seconds = 1.5;
  WireSlowQuery slow;
  slow.graph = "orders";
  stats.slow_queries.push_back(slow);
  const std::string full = EncodeStats(stats);
  ASSERT_TRUE(DecodeStats(full).ok());
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Result<WireStats> decoded = DecodeStats(full.substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << "cut " << cut;
  }
  EXPECT_FALSE(DecodeStats(full + "x").ok());

  // Hostile graph-row counts are refused before anything is allocated.
  WireStats bare;
  std::string bomb = EncodeStats(bare);
  const size_t graphs_at = 4 + 10 * 8 + 4;  // counters, then IO-row count
  bomb.resize(graphs_at);
  AppendVarint(uint64_t{1} << 40, &bomb);
  bomb.append(64, '\0');
  EXPECT_FALSE(DecodeStats(bomb).ok());
}

TEST(ProtocolTest, CatalogRequestAndReplyRoundTrip) {
  WireCatalogRequest request;
  request.name = "fresh";
  request.path = "/data/fresh.hgb";
  Result<WireCatalogRequest> req =
      DecodeCatalogRequest(EncodeCatalogRequest(request));
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().name, "fresh");
  EXPECT_EQ(req.value().path, "/data/fresh.hgb");

  WireCatalogReply reply;
  reply.ok = false;
  reply.message = "remote graph loading is disabled";
  WireGraphStats g;
  g.name = "default";
  g.is_default = true;
  reply.graphs.push_back(g);
  Result<WireCatalogReply> rep =
      DecodeCatalogReply(EncodeCatalogReply(reply));
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_FALSE(rep.value().ok);
  EXPECT_EQ(rep.value().message, reply.message);
  ASSERT_EQ(rep.value().graphs.size(), 1u);
  EXPECT_EQ(rep.value().graphs[0].name, "default");

  // Hostile row counts and truncations are corruption, not allocations.
  std::string encoded = EncodeCatalogReply(reply);
  EXPECT_FALSE(DecodeCatalogReply(encoded.substr(0, 4)).ok());
  EXPECT_FALSE(DecodeCatalogRequest("").ok());
  std::string bomb;
  bomb.push_back(1);           // ok
  AppendVarint(0, &bomb);      // empty message
  AppendVarint(1u << 30, &bomb);  // a billion rows, three bytes left
  bomb.append("abc");
  EXPECT_FALSE(DecodeCatalogReply(bomb).ok());
}

TEST(ProtocolTest, RejectedFrameRoundTripsUnknownGraphReason) {
  WireRejected rejected;
  rejected.request_id = 77;
  rejected.reason = RejectReason::kUnknownGraph;
  Result<WireRejected> decoded = DecodeRejected(EncodeRejected(rejected));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().reason, RejectReason::kUnknownGraph);
  EXPECT_STREQ(RejectReasonName(RejectReason::kUnknownGraph),
               "unknown-graph");
}

TEST(ProtocolTest, FrameReaderReassemblesFragmentedStreams) {
  std::string stream;
  AppendFrame(FrameType::kPing, "hello", &stream);
  AppendFrame(FrameType::kCancel, EncodeRequestId(4), &stream);

  FrameReader reader;
  FrameReader::Frame frame;
  // Feed one byte at a time: frames must surface exactly at completion.
  std::vector<FrameReader::Frame> frames;
  for (char c : stream) {
    reader.Feed(&c, 1);
    Result<bool> next = reader.Next(&frame);
    ASSERT_TRUE(next.ok());
    if (next.value()) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kPing);
  EXPECT_EQ(frames[0].payload, "hello");
  EXPECT_EQ(frames[1].type, FrameType::kCancel);
  EXPECT_EQ(DecodeRequestId(frames[1].payload).value(), 4u);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(ProtocolTest, FrameReaderRejectsMalformedHeaders) {
  {
    FrameReader reader;  // wrong magic
    const char garbage[16] = {'X', 'X', 'X', 'X', 1, 0, 0, 0, 0};
    reader.Feed(garbage, sizeof(garbage));
    FrameReader::Frame frame;
    EXPECT_FALSE(reader.Next(&frame).ok());
  }
  for (const char* magic : {"HGN2", "HGN3"}) {
    FrameReader reader;  // earlier protocol revisions' magics
    std::string header = magic;
    header.push_back(static_cast<char>(FrameType::kPing));
    header.append(4, '\0');
    reader.Feed(header.data(), header.size());
    FrameReader::Frame frame;
    EXPECT_FALSE(reader.Next(&frame).ok()) << magic;
  }
  // Unknown frame types, among them 1 and 2: the single-entry SUBMIT and
  // OUTCOME of HGN3, retired since every submission is a list.
  for (const uint8_t type : {uint8_t{0}, uint8_t{1}, uint8_t{2}, uint8_t{99}}) {
    FrameReader reader;
    std::string header;
    header.append(reinterpret_cast<const char*>(&kWireMagic), 4);
    header.push_back(static_cast<char>(type));
    header.append(4, '\0');
    reader.Feed(header.data(), header.size());
    FrameReader::Frame frame;
    EXPECT_FALSE(reader.Next(&frame).ok()) << int{type};
  }
  {
    FrameReader reader;  // oversized payload announcement
    std::string header;
    header.append(reinterpret_cast<const char*>(&kWireMagic), 4);
    header.push_back(static_cast<char>(FrameType::kPing));
    const uint32_t huge = kMaxWirePayload + 1;
    header.append(reinterpret_cast<const char*>(&huge), 4);
    reader.Feed(header.data(), header.size());
    FrameReader::Frame frame;
    EXPECT_FALSE(reader.Next(&frame).ok());
  }
}

TEST(ProtocolTest, TruncatedPayloadsAreCorruption) {
  WireSubmit submit;
  submit.query = PaperQueryHypergraph();
  const std::string payload = EncodeSubmit(submit);
  for (size_t cut : {size_t{0}, size_t{8}, size_t{30}, payload.size() - 1}) {
    EXPECT_FALSE(DecodeSubmit(payload.substr(0, cut)).ok()) << cut;
  }
  EXPECT_FALSE(DecodeOutcome("short").ok());
  EXPECT_FALSE(DecodeRequestId("1234").ok());
  EXPECT_FALSE(DecodeStats("x").ok());
  // Trailing junk is as corrupt as missing bytes.
  EXPECT_FALSE(DecodeSubmit(payload + "junk").ok());
}

TEST(ProtocolTest, FeaturesFrameRoundTrips) {
  for (uint32_t features :
       {0u, kFeatureCompression, kFeatureTrace,
        kFeatureCompression | kFeatureTrace, 0xffffffffu}) {
    Result<uint32_t> decoded = DecodeFeatures(EncodeFeatures(features));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), features);
  }
  EXPECT_FALSE(DecodeFeatures("abc").ok());    // short
  EXPECT_FALSE(DecodeFeatures("abcde").ok());  // trailing byte
}

TEST(ProtocolTest, EntryListRoundTripsEntriesInOrder) {
  WireSubmit submit;
  submit.request_id = 5;
  submit.query = PaperQueryHypergraph();
  const std::vector<std::string> entries = {EncodeSubmit(submit), "",
                                            std::string(300, 'x'), "tail"};
  const std::string payload = EncodeEntryList(entries);
  Result<std::vector<std::string_view>> decoded = DecodeEntryList(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded.value()[i], entries[i]) << "entry " << i;
  }
  // The first entry decodes back to the original submission.
  Result<WireSubmit> back = DecodeSubmit(decoded.value()[0]);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().request_id, 5u);
}

TEST(ProtocolTest, EntryListRejectsHostileCountsAndTruncation) {
  // A count far beyond the payload is corruption, not a reserve request.
  std::string hostile;
  AppendVarint(uint64_t{1} << 40, &hostile);
  EXPECT_FALSE(DecodeEntryList(hostile).ok());

  // An entry length past the remaining bytes is corruption.
  std::string overrun;
  AppendVarint(1, &overrun);       // one entry...
  AppendVarint(1000, &overrun);    // ...claiming 1000 bytes
  overrun.append("short");
  EXPECT_FALSE(DecodeEntryList(overrun).ok());

  // Every strict prefix of a valid payload fails cleanly.
  const std::string good = EncodeEntryList(
      std::vector<std::string>{std::string(40, 'a'), std::string(9, 'b')});
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(DecodeEntryList(good.substr(0, cut)).ok()) << cut;
  }
  // Trailing junk too.
  EXPECT_FALSE(DecodeEntryList(good + "x").ok());
}

TEST(ProtocolTest, FittingEntriesCountsTheListFraming) {
  // One entry travels alone iff count byte + 4-byte length varint + entry
  // stay within the bound.
  const std::vector<std::string> largest{
      std::string(kMaxWirePayload - 5, 'x')};
  EXPECT_EQ(FittingEntries(largest), 1u);
  EXPECT_EQ(EncodeEntryList(largest).size(), kMaxWirePayload);
  for (const uint32_t bytes : {kMaxWirePayload - 4, kMaxWirePayload - 2,
                               kMaxWirePayload}) {
    EXPECT_EQ(FittingEntries(std::vector<std::string>{std::string(bytes, 'x')}),
              0u)
        << bytes;
  }

  // Many entries stop where the next one would cross the bound, and the
  // cap on the count holds.
  const std::vector<std::string> many(5, std::string(kMaxWirePayload / 4, 'y'));
  const size_t fit = FittingEntries(many);
  EXPECT_EQ(fit, 3u);
  EXPECT_LE(EncodeEntryList(std::span(many).first(fit)).size(),
            kMaxWirePayload);
  EXPECT_EQ(FittingEntries(many, 2), 2u);
  EXPECT_EQ(FittingEntries(std::vector<std::string>{}), 0u);
}

TEST(ProtocolTest, CompressedFrameRoundTripsAndSkipsSmallPayloads) {
  // A large repetitive payload compresses and round-trips through the
  // kCompressed wrapper.
  std::string repetitive;
  for (int i = 0; i < 200; ++i) repetitive += "submit-frame-bytes-";
  std::string stream;
  AppendFrameMaybeCompressed(FrameType::kSubmit, repetitive,
                             /*compress=*/true, &stream);
  FrameReader reader;
  reader.Feed(stream.data(), stream.size());
  FrameReader::Frame frame;
  ASSERT_TRUE(reader.Next(&frame).value());
  ASSERT_EQ(frame.type, FrameType::kCompressed);
  EXPECT_LT(frame.payload.size(), repetitive.size() / 2);
  std::string inner;
  Result<FrameType> type = DecodeCompressedFrame(frame.payload, &inner);
  ASSERT_TRUE(type.ok()) << type.status().ToString();
  EXPECT_EQ(type.value(), FrameType::kSubmit);
  EXPECT_EQ(inner, repetitive);

  // Below the threshold the wrapper is skipped: the frame goes out raw.
  std::string small;
  AppendFrameMaybeCompressed(FrameType::kPing, "tiny", /*compress=*/true,
                             &small);
  FrameReader reader2;
  reader2.Feed(small.data(), small.size());
  ASSERT_TRUE(reader2.Next(&frame).value());
  EXPECT_EQ(frame.type, FrameType::kPing);
  EXPECT_EQ(frame.payload, "tiny");
}

TEST(ProtocolTest, CompressedFrameRejectsBombsAndNesting) {
  std::string inner;

  // Inflation bomb: declared raw size past the frame bound must be
  // rejected arithmetically — before any allocation happens.
  std::string bomb;
  bomb.push_back(static_cast<char>(FrameType::kSubmit));
  AppendVarint(uint64_t{kMaxWirePayload} + 1, &bomb);
  bomb.append("whatever");
  EXPECT_FALSE(DecodeCompressedFrame(bomb, &inner).ok());

  // Nested compression wrappers are refused (one level only).
  std::string nested;
  nested.push_back(static_cast<char>(FrameType::kCompressed));
  AppendVarint(100, &nested);
  nested.append("zzzz");
  EXPECT_FALSE(DecodeCompressedFrame(nested, &inner).ok());

  // A declared size that disagrees with the actual decompressed size is
  // corruption.
  std::string repetitive(4096, 'q');
  std::string stream;
  AppendFrameMaybeCompressed(FrameType::kSubmit, repetitive, true, &stream);
  FrameReader reader;
  reader.Feed(stream.data(), stream.size());
  FrameReader::Frame frame;
  ASSERT_TRUE(reader.Next(&frame).value());
  ASSERT_EQ(frame.type, FrameType::kCompressed);
  std::string tampered = frame.payload;
  // Rewrite "[type][varint raw]" with raw+1; the LZSS stream is unchanged.
  std::string header;
  header.push_back(static_cast<char>(FrameType::kSubmit));
  AppendVarint(repetitive.size(), &header);
  std::string wrong_header;
  wrong_header.push_back(static_cast<char>(FrameType::kSubmit));
  AppendVarint(repetitive.size() + 1, &wrong_header);
  ASSERT_EQ(tampered.compare(0, header.size(), header), 0);
  tampered.replace(0, header.size(), wrong_header);
  EXPECT_FALSE(DecodeCompressedFrame(tampered, &inner).ok());

  // Truncated LZSS streams fail cleanly at every cut.
  for (size_t cut = 1; cut < frame.payload.size(); cut += 7) {
    EXPECT_FALSE(
        DecodeCompressedFrame(frame.payload.substr(0, cut), &inner).ok())
        << cut;
  }
}

#if HGMATCH_NET_TEST_SOCKETS

// ----------------------------------------------------- loopback helpers --

Hypergraph PairCliqueData(uint32_t m) {
  Hypergraph h;
  h.AddVertices(m, 0);
  for (VertexId i = 0; i < m; ++i) {
    for (VertexId j = i + 1; j < m; ++j) (void)h.AddEdge({i, j});
  }
  return h;
}

Hypergraph PathQuery(uint32_t k) {
  Hypergraph q;
  q.AddVertices(k + 1, 0);
  for (VertexId v = 0; v < k; ++v) (void)q.AddEdge({v, v + 1});
  return q;
}

ServerOptions LoopbackOptions(uint32_t threads) {
  ServerOptions options;
  options.service.parallel.num_threads = threads;
  options.service.parallel.scan_grain = 1;
  return options;
}

// Polls `predicate` until true or ~10 s passed.
bool EventuallyTrue(const std::function<bool()>& predicate) {
  for (int i = 0; i < 1000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// ------------------------------------------------------- loopback tests --

TEST(NetTest, SubmitOutcomeParityWithSequential) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchServer server(idx, LoopbackOptions(2));
  ASSERT_TRUE(server.Start().ok());

  MatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  const Hypergraph query = PaperQueryHypergraph();
  const MatchStats expected = MatchSequential(idx, query).value();

  Result<uint64_t> id = client.Submit(query);
  ASSERT_TRUE(id.ok());
  Result<WireOutcome> reply = client.WaitOutcome(id.value());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().outcome.status, QueryStatus::kOk);
  EXPECT_EQ(reply.value().outcome.stats.embeddings, expected.embeddings);
  EXPECT_FALSE(reply.value().outcome.mirrored);

  // A structurally identical repeat mirrors through the service-side plan
  // cache — over the wire, exactly as in process.
  Result<uint64_t> repeat = client.Submit(query);
  ASSERT_TRUE(repeat.ok());
  Result<WireOutcome> mirrored = client.WaitOutcome(repeat.value());
  ASSERT_TRUE(mirrored.ok());
  EXPECT_EQ(mirrored.value().outcome.stats.embeddings, expected.embeddings);
  EXPECT_TRUE(mirrored.value().outcome.mirrored);

  Result<WireStats> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().submitted, 2u);
  EXPECT_EQ(stats.value().completed, 2u);
  EXPECT_EQ(stats.value().inflight, 0u);
  server.Stop();
}

TEST(NetTest, PipelinedSubmissionsResolveInAnyWaitOrder) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(8));
  MatchServer server(idx, LoopbackOptions(2));
  ASSERT_TRUE(server.Start().ok());

  const uint64_t expected1 =
      MatchSequential(idx, PathQuery(1)).value().embeddings;
  const uint64_t expected2 =
      MatchSequential(idx, PathQuery(2)).value().embeddings;
  ASSERT_NE(expected1, expected2);

  MatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<uint64_t> ids;
  for (uint32_t k : {1u, 2u, 1u, 2u, 1u}) {
    Result<uint64_t> id = client.Submit(PathQuery(k));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // Wait in reverse: outcomes for other ids are buffered, none are lost.
  for (size_t i = ids.size(); i-- > 0;) {
    Result<WireOutcome> reply = client.WaitOutcome(ids[i]);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().outcome.stats.embeddings,
              i % 2 == 0 ? expected1 : expected2)
        << "query " << i;
  }
  server.Stop();
}

TEST(NetTest, ConcurrentClientsGetExactCounts) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(8));
  MatchServer server(idx, LoopbackOptions(4));
  ASSERT_TRUE(server.Start().ok());

  const uint64_t expected1 =
      MatchSequential(idx, PathQuery(1)).value().embeddings;
  const uint64_t expected2 =
      MatchSequential(idx, PathQuery(2)).value().embeddings;

  constexpr int kClients = 3;
  constexpr int kPerClient = 6;
  std::vector<int> failures(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      MatchClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        failures[c] = kPerClient;
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const uint32_t k = 1 + static_cast<uint32_t>((c + i) % 2);
        Result<uint64_t> id = client.Submit(PathQuery(k));
        if (!id.ok()) {
          ++failures[c];
          continue;
        }
        Result<WireOutcome> reply = client.WaitOutcome(id.value());
        if (!reply.ok() ||
            reply.value().outcome.stats.embeddings !=
                (k == 1 ? expected1 : expected2)) {
          ++failures[c];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  server.Stop();
}

TEST(NetTest, CancelOverTheWireStopsAnInFlightQuery) {
  // Path(4) over the 40-clique is far beyond test scale: without the
  // cancel this query runs (effectively) forever.
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  ServerOptions options = LoopbackOptions(2);
  options.service.parallel.scan_grain = 64;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  MatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  Result<uint64_t> monster = client.Submit(PathQuery(4));
  ASSERT_TRUE(monster.ok());
  ASSERT_TRUE(client.Cancel(monster.value()).ok());
  Result<WireOutcome> reply = client.WaitOutcome(monster.value());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().outcome.status, QueryStatus::kCancelled);

  // The server stays healthy: a fresh cheap query completes exactly.
  const uint64_t cheap_expected =
      MatchSequential(idx, PathQuery(1)).value().embeddings;
  Result<uint64_t> cheap = client.Submit(PathQuery(1));
  ASSERT_TRUE(cheap.ok());
  Result<WireOutcome> cheap_reply = client.WaitOutcome(cheap.value());
  ASSERT_TRUE(cheap_reply.ok());
  EXPECT_EQ(cheap_reply.value().outcome.status, QueryStatus::kOk);
  EXPECT_EQ(cheap_reply.value().outcome.stats.embeddings, cheap_expected);
  server.Stop();
}

TEST(NetTest, CancelOfMirroredDuplicateResolvesWhileCanonicalStillRuns) {
  // A sink-less structural duplicate of a *running* query becomes a plan
  // -cache mirror with no scheduler slot of its own; cancelling it must
  // deliver its kCancelled outcome immediately, not after the canonical
  // eventually finishes (which at this scale is never).
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  ServerOptions options = LoopbackOptions(2);
  options.service.parallel.scan_grain = 64;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  MatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  Result<uint64_t> canonical = client.Submit(PathQuery(4));
  Result<uint64_t> mirror = client.Submit(PathQuery(4));
  ASSERT_TRUE(canonical.ok() && mirror.ok());

  ASSERT_TRUE(client.Cancel(mirror.value()).ok());
  Result<WireOutcome> mirror_reply = client.WaitOutcome(mirror.value());
  ASSERT_TRUE(mirror_reply.ok());
  EXPECT_EQ(mirror_reply.value().outcome.status, QueryStatus::kCancelled);
  EXPECT_TRUE(mirror_reply.value().outcome.mirrored);

  ASSERT_TRUE(client.Cancel(canonical.value()).ok());
  Result<WireOutcome> canonical_reply =
      client.WaitOutcome(canonical.value());
  ASSERT_TRUE(canonical_reply.ok());
  EXPECT_EQ(canonical_reply.value().outcome.status,
            QueryStatus::kCancelled);
  server.Stop();
}

TEST(NetTest, ConnectionDropCancelsItsInFlightQueries) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  ServerOptions options = LoopbackOptions(2);
  options.service.parallel.scan_grain = 64;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  MatchClient observer;
  ASSERT_TRUE(observer.Connect("127.0.0.1", server.port()).ok());

  {
    MatchClient doomed;
    ASSERT_TRUE(doomed.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(doomed.Submit(PathQuery(4)).ok());
    // The monster is in flight before the peer vanishes.
    ASSERT_TRUE(EventuallyTrue([&] {
      Result<WireStats> s = observer.Stats();
      return s.ok() && s.value().inflight >= 1;
    }));
    doomed.Close();
  }

  // The drop cancels the orphaned query: in-flight drains without anyone
  // ever waiting on its outcome.
  ASSERT_TRUE(EventuallyTrue([&] {
    Result<WireStats> s = observer.Stats();
    return s.ok() && s.value().cancelled_by_disconnect == 1 &&
           s.value().inflight == 0;
  }));
  server.Stop();
}

// Raw socket for protocol-abuse tests (MatchClient refuses to misbehave).
class RawConn {
 public:
  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool Send(const std::string& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), 0) ==
           static_cast<ssize_t>(bytes.size());
  }
  void HalfClose() { ::shutdown(fd_, SHUT_WR); }
  // Blocks for the next bytes and appends them; false on EOF or error.
  bool ReadSome(std::string* out) {
    char buffer[4096];
    const ssize_t got = ::read(fd_, buffer, sizeof(buffer));
    if (got <= 0) return false;
    out->append(buffer, static_cast<size_t>(got));
    return true;
  }
  // Reads until EOF; returns everything received.
  std::string ReadAll() {
    std::string all;
    char buffer[4096];
    ssize_t got;
    while ((got = ::read(fd_, buffer, sizeof(buffer))) > 0) {
      all.append(buffer, static_cast<size_t>(got));
    }
    return all;
  }

 private:
  int fd_ = -1;
};

// The frame every well-behaved connection opens with.
std::string HelloFrame(uint32_t features = 0) {
  std::string frame;
  AppendFrame(FrameType::kHello, EncodeFeatures(features), &frame);
  return frame;
}

// A kSubmit payload carrying `submits` as its entries, in order.
std::string SubmitPayload(const std::vector<const WireSubmit*>& submits) {
  std::vector<std::string> entries;
  for (const WireSubmit* submit : submits) {
    entries.push_back(EncodeSubmit(*submit));
  }
  return EncodeEntryList(entries);
}

// Reads until the server closes and requires exactly one kError frame —
// after the kHelloReply when the connection opened with a HELLO — and
// nothing else.
void ExpectErrorFrameThenEof(RawConn& conn, bool after_hello = false) {
  const std::string reply = conn.ReadAll();  // EOF proves the server closed
  FrameReader reader;
  reader.Feed(reply.data(), reply.size());
  FrameReader::Frame frame;
  if (after_hello) {
    ASSERT_TRUE(reader.Next(&frame).value());
    EXPECT_EQ(frame.type, FrameType::kHelloReply);
  }
  Result<bool> next = reader.Next(&frame);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next.value());
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_FALSE(frame.payload.empty());
  EXPECT_EQ(reader.buffered(), 0u);  // the error is the last frame
}

TEST(NetTest, EofFlushesRepliesEarnedByTheFinalBurst) {
  // EOF means abandonment for *in-flight* work, but replies the final
  // burst already earned (here: PONGs) must still be flushed before the
  // close, not discarded with the connection.
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchServer server(idx, LoopbackOptions(1));
  ASSERT_TRUE(server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  std::string burst = HelloFrame();
  AppendFrame(FrameType::kPing, "one", &burst);
  AppendFrame(FrameType::kPing, "two", &burst);
  ASSERT_TRUE(conn.Send(burst));
  conn.HalfClose();

  const std::string reply = conn.ReadAll();  // until the server closes
  FrameReader reader;
  reader.Feed(reply.data(), reply.size());
  FrameReader::Frame frame;
  ASSERT_TRUE(reader.Next(&frame).value());
  EXPECT_EQ(frame.type, FrameType::kHelloReply);
  std::vector<std::string> pongs;
  while (true) {
    Result<bool> next = reader.Next(&frame);
    ASSERT_TRUE(next.ok());
    if (!next.value()) break;
    ASSERT_EQ(frame.type, FrameType::kPong);
    pongs.push_back(frame.payload);
  }
  EXPECT_EQ(pongs, (std::vector<std::string>{"one", "two"}));
  server.Stop();
}

TEST(NetTest, MalformedFrameGetsErrorFrameAndClose) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchServer server(idx, LoopbackOptions(1));
  ASSERT_TRUE(server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  ASSERT_TRUE(conn.Send("this is not a valid frame header"));
  ExpectErrorFrameThenEof(conn);
  server.Stop();
}

TEST(NetTest, OversizedFrameGetsErrorFrameAndClose) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchServer server(idx, LoopbackOptions(1));
  ASSERT_TRUE(server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  std::string header;
  header.append(reinterpret_cast<const char*>(&kWireMagic), 4);
  header.push_back(static_cast<char>(FrameType::kSubmit));
  const uint32_t huge = kMaxWirePayload + 1;
  header.append(reinterpret_cast<const char*>(&huge), 4);
  ASSERT_TRUE(conn.Send(header));
  ExpectErrorFrameThenEof(conn);
  server.Stop();
}

TEST(NetTest, UndecodablePayloadCancelsConnectionQueries) {
  // A frame whose header is fine but whose SUBMIT payload is garbage must
  // also error-and-close — and take the connection's in-flight queries
  // with it.
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  ServerOptions options = LoopbackOptions(2);
  options.service.parallel.scan_grain = 64;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  MatchClient observer;
  ASSERT_TRUE(observer.Connect("127.0.0.1", server.port()).ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  {
    // A well-formed monster submission...
    WireSubmit submit;
    submit.request_id = 1;
    submit.query = PathQuery(4);
    std::string stream = HelloFrame();
    AppendFrame(FrameType::kSubmit, SubmitPayload({&submit}), &stream);
    // ...followed by a syntactically valid frame with an undecodable entry.
    AppendFrame(FrameType::kSubmit,
                EncodeEntryList(
                    std::vector<std::string>{"definitely not a hypergraph"}),
                &stream);
    ASSERT_TRUE(conn.Send(stream));
  }
  ExpectErrorFrameThenEof(conn, /*after_hello=*/true);
  ASSERT_TRUE(EventuallyTrue([&] {
    Result<WireStats> s = observer.Stats();
    return s.ok() && s.value().cancelled_by_disconnect == 1 &&
           s.value().inflight == 0;
  }));
  server.Stop();
}

TEST(NetTest, BackpressureRejectsOverflowAndAdmittedQueriesStayExact) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  ServerOptions options = LoopbackOptions(2);
  options.service.parallel.scan_grain = 64;
  options.service.max_inflight_queries = 1;
  options.service.max_queued_queries = 1;
  options.service.plan_cache = false;  // repeats must not mirror past the queue
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  const uint64_t cheap_expected =
      MatchSequential(idx, PathQuery(1)).value().embeddings;

  MatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // The monster is admitted synchronously (window was empty) and holds the
  // window; the first cheap query waits (queue depth 1, at the bound); the
  // second cheap query must be shed.
  Result<uint64_t> monster = client.Submit(PathQuery(4));
  Result<uint64_t> waiting = client.Submit(PathQuery(1));
  Result<uint64_t> shed = client.Submit(PathQuery(1));
  ASSERT_TRUE(monster.ok() && waiting.ok() && shed.ok());

  Result<WireOutcome> rejected = client.WaitOutcome(shed.value());
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().outcome.status, QueryStatus::kRejected);

  // Give up on the monster; the waiting query then runs and its counts are
  // exact — backpressure sheds the overflow, never the admitted work.
  ASSERT_TRUE(client.Cancel(monster.value()).ok());
  Result<WireOutcome> cancelled = client.WaitOutcome(monster.value());
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled.value().outcome.status, QueryStatus::kCancelled);

  Result<WireOutcome> completed = client.WaitOutcome(waiting.value());
  ASSERT_TRUE(completed.ok());
  EXPECT_EQ(completed.value().outcome.status, QueryStatus::kOk);
  EXPECT_EQ(completed.value().outcome.stats.embeddings, cheap_expected);

  Result<WireStats> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().rejected, 1u);
  EXPECT_EQ(stats.value().submitted, 3u);
  server.Stop();
}

TEST(NetTest, RemoteShutdownDrainsAndExits) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  ServerOptions options = LoopbackOptions(1);
  options.allow_remote_shutdown = true;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  MatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  Result<uint64_t> id = client.Submit(PaperQueryHypergraph());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client.WaitOutcome(id.value()).ok());
  ASSERT_TRUE(client.RequestShutdown().ok());
  EXPECT_TRUE(server.WaitFor(10.0));
  server.Stop();
}

TEST(NetTest, RemoteShutdownIsRefusedWhenDisabled) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchServer server(idx, LoopbackOptions(1));  // shutdown NOT allowed
  ASSERT_TRUE(server.Start().ok());

  MatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.RequestShutdown().ok());  // sends fine...
  EXPECT_FALSE(client.Ping().ok());  // ...but the server errors and closes
  EXPECT_FALSE(server.WaitFor(0.2));  // and keeps serving
  server.Stop();
}

TEST(NetTest, DeliversRedispatchedMirrorOutcomes) {
  // A mirror attached to an in-flight canonical does not inherit the
  // canonical's cancellation: it re-dispatches, and both outcomes must
  // reach the wire — the canonical's cancellation and the mirror's own
  // complete run with exact counts. A stranded outcome hangs this test
  // into its TIMEOUT.
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  const uint64_t expected =
      MatchSequential(idx, PathQuery(4)).value().embeddings;
  ServerOptions options = LoopbackOptions(2);
  options.service.parallel.scan_grain = 64;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  MatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  Result<uint64_t> canonical = client.Submit(PathQuery(4));
  Result<uint64_t> mirror = client.Submit(PathQuery(4));  // attaches in flight
  ASSERT_TRUE(canonical.ok() && mirror.ok());
  ASSERT_TRUE(client.Cancel(canonical.value()).ok());

  // Both outcomes must arrive: the canonical's cancellation, and the
  // re-dispatched mirror's own complete run.
  Result<WireOutcome> canonical_reply = client.WaitOutcome(canonical.value());
  ASSERT_TRUE(canonical_reply.ok());
  EXPECT_EQ(canonical_reply.value().outcome.status, QueryStatus::kCancelled);
  Result<WireOutcome> mirror_reply = client.WaitOutcome(mirror.value());
  ASSERT_TRUE(mirror_reply.ok());
  EXPECT_EQ(mirror_reply.value().outcome.status, QueryStatus::kOk);
  EXPECT_FALSE(mirror_reply.value().outcome.mirrored);
  EXPECT_EQ(mirror_reply.value().outcome.stats.embeddings, expected);
  server.Stop();
}

// ------------------------------------ handshake, batching, compression --

TEST(NetTest, HelloNegotiatesCompressionAndBatchesKeepExactCounts) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(8));
  ServerOptions options = LoopbackOptions(2);
  options.enable_compression = true;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  const uint64_t expected1 =
      MatchSequential(idx, PathQuery(1)).value().embeddings;
  const uint64_t expected2 =
      MatchSequential(idx, PathQuery(2)).value().embeddings;

  AsyncClientOptions copts;
  copts.request_features = kFeatureCompression;
  MatchClient client(copts);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ(client.features(), kFeatureCompression);

  const Hypergraph q1 = PathQuery(1);
  const Hypergraph q2 = PathQuery(2);
  constexpr size_t kQueries = 24;
  std::vector<const Hypergraph*> queries;
  for (size_t i = 0; i < kQueries; ++i) {
    queries.push_back(i % 2 == 0 ? &q1 : &q2);
  }
  Result<std::vector<uint64_t>> ids = client.SubmitBatch(queries);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    Result<WireOutcome> reply = client.WaitOutcome(ids.value()[i]);
    ASSERT_TRUE(reply.ok()) << "query " << i;
    EXPECT_EQ(reply.value().outcome.stats.embeddings,
              i % 2 == 0 ? expected1 : expected2)
        << "query " << i;
  }

  // Framing economy: the whole set crossed in a handful of frames (one
  // HELLO + one batch chunk here), not one frame per query.
  const ClientTransferStats ts = client.TransferStats();
  EXPECT_LE(ts.frames_sent, 3u);
  EXPECT_LT(ts.frames_received, kQueries);
  EXPECT_GT(ts.bytes_sent, 0u);
  EXPECT_GT(ts.bytes_received, 0u);
  server.Stop();
}

TEST(NetTest, CompressionGrantRequiresServerOptIn) {
  // The server only grants compression when the operator enabled it; the
  // client degrades gracefully, and batching needs no grant at all.
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(8));
  MatchServer server(idx, LoopbackOptions(2));  // enable_compression off
  ASSERT_TRUE(server.Start().ok());

  AsyncClientOptions copts;
  copts.request_features = kFeatureCompression;
  MatchClient client(copts);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ(client.features(), 0u);

  const uint64_t expected =
      MatchSequential(idx, PathQuery(1)).value().embeddings;
  const Hypergraph q = PathQuery(1);
  Result<std::vector<uint64_t>> ids =
      client.SubmitBatch({&q, &q, &q});
  ASSERT_TRUE(ids.ok());
  for (uint64_t id : ids.value()) {
    Result<WireOutcome> reply = client.WaitOutcome(id);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().outcome.stats.embeddings, expected);
  }
  server.Stop();
}

TEST(NetTest, FramesBeforeHelloGetOneErrorAndClose) {
  // HELLO is mandatory: on a fresh connection, any other first frame is
  // answered with exactly one kError frame, then the server closes.
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchServer server(idx, LoopbackOptions(1));
  ASSERT_TRUE(server.Start().ok());

  WireSubmit submit;
  submit.request_id = 1;
  submit.query = PaperQueryHypergraph();
  WireSubmit second;
  second.request_id = 2;
  second.query = PaperQueryHypergraph();
  std::vector<std::pair<FrameType, std::string>> firsts = {
      {FrameType::kSubmit, SubmitPayload({&submit})},
      {FrameType::kStats, ""},
      {FrameType::kPing, "ping"},
      {FrameType::kSubmit, SubmitPayload({&submit, &second})},
      {FrameType::kListGraphs, ""},
  };
  for (const auto& [type, payload] : firsts) {
    SCOPED_TRACE("frame type " + std::to_string(static_cast<int>(type)));
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    std::string stream;
    AppendFrame(type, payload, &stream);
    ASSERT_TRUE(conn.Send(stream));
    conn.HalfClose();  // a server that answered instead still closes
    ExpectErrorFrameThenEof(conn);
  }

  // A HELLO under an earlier revision's magic — "HGN3" is the previous
  // one — is no HELLO at all.
  for (const char* magic : {"HGN2", "HGN3"}) {
    SCOPED_TRACE(magic);
    RawConn old_peer;
    ASSERT_TRUE(old_peer.Connect(server.port()));
    std::string old_hello = HelloFrame();
    old_hello.replace(0, 4, magic);
    ASSERT_TRUE(old_peer.Send(old_hello));
    old_peer.HalfClose();
    ExpectErrorFrameThenEof(old_peer);
  }

  // Nothing was submitted, and a client that opens with HELLO is served.
  MatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ(client.features(), 0u);
  ASSERT_TRUE(client.Ping().ok());
  Result<WireStats> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().submitted, 0u);
  server.Stop();
}

TEST(NetTest, DuplicateRequestIdsInsideAFrameCloseTheConnection) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchServer server(idx, LoopbackOptions(1));
  ASSERT_TRUE(server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  WireSubmit submit;
  submit.request_id = 9;  // twice in one frame
  submit.query = PaperQueryHypergraph();
  std::string stream = HelloFrame();
  AppendFrame(FrameType::kSubmit, SubmitPayload({&submit, &submit}), &stream);
  ASSERT_TRUE(conn.Send(stream));

  // The reply must be the HELLO grant followed by kError-and-close; no
  // outcome for either duplicate sneaks out.
  const std::string reply = conn.ReadAll();
  FrameReader reader;
  reader.Feed(reply.data(), reply.size());
  FrameReader::Frame frame;
  ASSERT_TRUE(reader.Next(&frame).value());
  EXPECT_EQ(frame.type, FrameType::kHelloReply);
  ASSERT_TRUE(reader.Next(&frame).value());
  EXPECT_EQ(frame.type, FrameType::kError);
  server.Stop();
}

TEST(NetTest, ClientFailsAnEntryTooLargeForAFrameAndKeepsTheConnection) {
  // An entry that fits kMaxWirePayload on its own but not with the list's
  // count and length prefixes must fail locally: sent, it would make the
  // server error-close the connection and fail every pipelined sibling.
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchServer server(idx, LoopbackOptions(1));
  ASSERT_TRUE(server.Start().ok());
  MatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  const Hypergraph query = PaperQueryHypergraph();
  WireSubmit fields;
  const size_t target = kMaxWirePayload - 2;
  fields.graph.assign(target - EncodeSubmit(fields, query).size(), 'g');
  // The longer name also lengthens its varint prefix; trim by the excess.
  fields.graph.resize(fields.graph.size() -
                      (EncodeSubmit(fields, query).size() - target));
  ASSERT_EQ(EncodeSubmit(fields, query).size(), target);

  Result<std::vector<uint64_t>> ids = client.SubmitBatchTo(fields.graph,
                                                           {&query});
  ASSERT_FALSE(ids.ok());
  EXPECT_EQ(ids.status().code(), StatusCode::kInvalidArgument);

  Result<uint64_t> id = client.Submit(query);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  Result<WireOutcome> reply = client.WaitOutcome(id.value());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().outcome.stats.embeddings,
            MatchSequential(idx, query).value().embeddings);
  server.Stop();
}

TEST(NetTest, OutcomesOfOnePassSplitIntoFramesWithinTheBound) {
  // One kSubmit frame of repeats of a query whose canonical has finished:
  // every entry mirrors inline in one reactor pass, earning more traced
  // outcomes than one frame may carry. The server must cut them into
  // frames within kMaxWirePayload, or the client's reader rejects the
  // oversized frame and fails every callback.
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(4));
  MatchServer server(idx, LoopbackOptions(2));
  ASSERT_TRUE(server.Start().ok());

  Hypergraph query;  // a 3-ary edge: the pair clique has none
  query.AddVertices(3, 0);
  (void)query.AddEdge({0, 1, 2});
  ASSERT_EQ(MatchSequential(idx, query).value().embeddings, 0u);

  AsyncClientOptions copts;
  copts.max_inflight = 0;
  copts.request_features = kFeatureTrace;
  AsyncMatchClient client(copts);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  std::mutex mu;
  std::condition_variable cv;
  size_t fired = 0;
  size_t good = 0;
  auto on_outcome = [&](const AsyncOutcome& out) {
    std::lock_guard<std::mutex> lock(mu);
    ++fired;
    if (out.transport.ok() && out.wire.outcome.status == QueryStatus::kOk &&
        out.wire.outcome.stats.embeddings == 0) {
      ++good;
    }
    cv.notify_all();
  };
  // The canonical runs first and finishes.
  ASSERT_TRUE(client.Submit(query, {}, on_outcome).ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return fired == 1; });
    ASSERT_EQ(good, 1u);
  }

  // Enough repeats that their outcomes overflow one frame, few enough that
  // their submissions fit one.
  WireOutcome traced;
  traced.outcome.span.enabled = true;
  const size_t outcome_entry = EncodeOutcome(traced, true).size() + 1;
  const size_t count = kMaxWirePayload / outcome_entry + 64;
  const size_t submit_entry = EncodeSubmit(WireSubmit{}, query).size() + 1;
  ASSERT_LT(count * submit_entry + 4, kMaxWirePayload);
  const std::vector<const Hypergraph*> repeats(count, &query);
  Result<std::vector<uint64_t>> ids =
      client.SubmitBatch(repeats, {}, on_outcome);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), count);
  EXPECT_EQ(client.TransferStats().frames_sent, 3u);  // HELLO + 2 SUBMITs
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return fired == count + 1; });
    EXPECT_EQ(good, count + 1);
  }
  EXPECT_GE(client.TransferStats().frames_received, 3u);  // + HELLO reply
  client.Close();
  server.Stop();
}

TEST(NetTest, CompressedInflationBombIsRejectedWithError) {
  // A negotiated peer sending a kCompressed wrapper whose declared raw
  // size exceeds the frame bound must get kError-and-close — the server
  // rejects by arithmetic, it never allocates the declared size.
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  ServerOptions options = LoopbackOptions(1);
  options.enable_compression = true;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  std::string bomb;
  bomb.push_back(static_cast<char>(FrameType::kSubmit));
  AppendVarint(uint64_t{1} << 40, &bomb);  // a terabyte, allegedly
  bomb.append(64, '\x55');
  std::string stream;
  AppendFrame(FrameType::kHello, EncodeFeatures(kFeatureCompression),
              &stream);
  AppendFrame(FrameType::kCompressed, bomb, &stream);
  ASSERT_TRUE(conn.Send(stream));

  const std::string reply = conn.ReadAll();
  FrameReader reader;
  reader.Feed(reply.data(), reply.size());
  FrameReader::Frame frame;
  ASSERT_TRUE(reader.Next(&frame).value());
  EXPECT_EQ(frame.type, FrameType::kHelloReply);
  ASSERT_TRUE(reader.Next(&frame).value());
  EXPECT_EQ(frame.type, FrameType::kError);
  server.Stop();
}

// ------------------------------------------------------ protocol fuzzing --

// Seeded protocol fuzz harness: take valid frames, mutate them (bit flips,
// truncation, oversized/undersized length fields, random type bytes,
// garbage payloads, random garbage streams), replay each mutant on a fresh
// connection against a live server, and require that the server either
// ignores the bytes, answers valid frames, or answers one kError and
// closes — and that it never crashes, leaks (the ASan/UBSan CI job runs
// this suite), wedges, or stops serving well-formed clients. The seed is
// deterministic (override with HGMATCH_FUZZ_SEED) and logged on failure so
// any crash replays bit-for-bit.
// The harness body, parameterised over the reactor width so the identical
// barrage runs against both the single IO thread and a 4-thread reactor
// (where a mutant's connection, an honest probe's and the acceptor live on
// different threads).
void FuzzMutatedFramesAgainstServer(uint32_t io_threads) {
  uint64_t seed = 0xfeedface2024;
  if (const char* env = std::getenv("HGMATCH_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 0);
  }
  SCOPED_TRACE("fuzz seed = " + std::to_string(seed) +
               " (re-run with HGMATCH_FUZZ_SEED)");
  Rng rng(seed + io_threads);  // distinct mutation walk per reactor width

  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  ServerOptions options = LoopbackOptions(2);
  options.max_connections = 8;
  options.io_threads = io_threads;
  options.enable_compression = true;  // the negotiated paths get fuzzed too
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  // The corpus of valid byte streams the mutations start from. Seeds meant
  // to reach a handler open with HELLO; the pre-HELLO seeds must end in
  // one kError and a close before any mutation (checked below).
  std::vector<std::string> corpus;
  std::vector<std::string> pre_hello;
  {
    std::string s;
    AppendFrame(FrameType::kPing, "fuzz", &s);
    pre_hello.push_back(s);
    s = HelloFrame();
    AppendFrame(FrameType::kPing, "fuzz", &s);
    corpus.push_back(s);
  }
  {
    // A one-entry SUBMIT, the shape of every single query.
    WireSubmit submit;
    submit.request_id = 1;
    submit.query = PaperQueryHypergraph();
    std::string s;
    AppendFrame(FrameType::kSubmit, SubmitPayload({&submit}), &s);
    pre_hello.push_back(s);
    s = HelloFrame();
    AppendFrame(FrameType::kSubmit, SubmitPayload({&submit}), &s);
    corpus.push_back(s);
  }
  {
    std::string s;
    AppendFrame(FrameType::kStats, "", &s);
    pre_hello.push_back(s);
    s = HelloFrame();
    AppendFrame(FrameType::kCancel, EncodeRequestId(7), &s);
    AppendFrame(FrameType::kStats, "", &s);
    corpus.push_back(s);
  }
  {
    std::string s = HelloFrame();
    AppendFrame(FrameType::kShutdown, "", &s);  // disabled => error path
    corpus.push_back(s);
  }
  {
    // The catalog verbs: a listing, and an unload of a graph that is not
    // hosted (remote loads are disabled, so LOAD_GRAPH mutants get a
    // refusal reply).
    std::string s = HelloFrame();
    AppendFrame(FrameType::kListGraphs, "", &s);
    AppendFrame(FrameType::kUnloadGraph, EncodeCatalogRequest({"nope", ""}),
                &s);
    corpus.push_back(s);
  }
  {
    // HELLO then a three-entry SUBMIT naming two graphs, one of them
    // unknown: the per-entry loop and the same-graph runs.
    std::string s = HelloFrame(kFeatureCompression);
    WireSubmit a;
    a.request_id = 11;
    a.query = PaperQueryHypergraph();
    WireSubmit b;
    b.request_id = 12;
    b.query = PaperQueryHypergraph();
    WireSubmit c;
    c.request_id = 14;
    c.graph = "nope";
    c.query = PaperQueryHypergraph();
    AppendFrame(FrameType::kSubmit, SubmitPayload({&a, &b, &c}), &s);
    corpus.push_back(s);
  }
  {
    // HELLO then compressed SUBMIT wrappers of one and of two entries: the
    // kCompressed unwrap path into the one submission decoder.
    std::string s = HelloFrame(kFeatureCompression);
    WireSubmit submit;
    submit.request_id = 13;
    submit.query = PaperQueryHypergraph();
    AppendFrameMaybeCompressed(FrameType::kSubmit, SubmitPayload({&submit}),
                               /*compress=*/true, &s);
    corpus.push_back(s);
    WireSubmit other;
    other.request_id = 15;
    other.query = PaperQueryHypergraph();
    s = HelloFrame(kFeatureCompression);
    AppendFrameMaybeCompressed(FrameType::kSubmit,
                               SubmitPayload({&submit, &other}),
                               /*compress=*/true, &s);
    corpus.push_back(s);
  }
  {
    // HELLO then an inflation bomb: a kCompressed wrapper declaring an
    // absurd raw size. The decode bound must hold under every mutation.
    std::string bomb;
    bomb.push_back(static_cast<char>(FrameType::kSubmit));
    AppendVarint(uint64_t{1} << 42, &bomb);
    bomb.append(128, '\x55');
    std::string s = HelloFrame(kFeatureCompression);
    AppendFrame(FrameType::kCompressed, bomb, &s);
    corpus.push_back(s);
  }
  for (const std::string& s : pre_hello) {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.Send(s));
    conn.HalfClose();
    ExpectErrorFrameThenEof(conn);
  }
  corpus.insert(corpus.end(), pre_hello.begin(), pre_hello.end());

  // Checks one server reply stream: every complete frame parses, only
  // server->client frame types appear, and an error frame (if any) is
  // final. Trailing partial bytes are impossible — the server writes whole
  // frames — so any parse failure is a real server bug.
  auto check_reply = [](const std::string& reply, int iteration) {
    FrameReader reader;
    reader.Feed(reply.data(), reply.size());
    FrameReader::Frame frame;
    bool saw_error = false;
    while (true) {
      Result<bool> next = reader.Next(&frame);
      ASSERT_TRUE(next.ok()) << "iteration " << iteration
                             << ": unparseable server reply";
      if (!next.value()) break;
      ASSERT_FALSE(saw_error) << "iteration " << iteration
                              << ": frames after kError";
      switch (frame.type) {
        case FrameType::kOutcome:
        case FrameType::kRejected:
        case FrameType::kPong:
        case FrameType::kStatsReply:
        case FrameType::kHelloReply:
        case FrameType::kCompressed:
        case FrameType::kCatalogReply:
          break;  // legal replies to a mutant that stayed well-formed
        case FrameType::kError:
          saw_error = true;
          break;
        default:
          FAIL() << "iteration " << iteration
                 << ": server sent client->server frame type "
                 << static_cast<int>(frame.type);
      }
    }
    EXPECT_EQ(reader.buffered(), 0u)
        << "iteration " << iteration << ": truncated trailing frame";
  };

  constexpr int kIterations = 250;
  for (int i = 0; i < kIterations; ++i) {
    std::string bytes = corpus[rng.NextBounded(corpus.size())];
    switch (rng.NextBounded(6)) {
      case 0:  // bit flips
        for (uint64_t flips = 1 + rng.NextBounded(8); flips > 0; --flips) {
          const size_t pos = rng.NextBounded(bytes.size());
          bytes[pos] = static_cast<char>(
              bytes[pos] ^ static_cast<char>(1u << rng.NextBounded(8)));
        }
        break;
      case 1:  // truncation
        bytes.resize(rng.NextBounded(bytes.size()));
        break;
      case 2: {  // length-field rewrite: oversized, undersized, or huge
        if (bytes.size() >= kWireHeaderBytes) {
          uint32_t len;
          switch (rng.NextBounded(3)) {
            case 0: len = kMaxWirePayload + 1; break;       // over the bound
            case 1: len = static_cast<uint32_t>(            // wrong but legal
                        rng.NextBounded(kMaxWirePayload)); break;
            default: len = 0xffffffffu; break;              // absurd
          }
          bytes.replace(5, 4, reinterpret_cast<const char*>(&len), 4);
        }
        break;
      }
      case 3:  // random type byte
        if (bytes.size() >= kWireHeaderBytes) {
          bytes[4] = static_cast<char>(rng.NextBounded(256));
        }
        break;
      case 4: {  // garbage payload under a valid header, after HELLO
        const uint32_t len = static_cast<uint32_t>(rng.NextBounded(512));
        std::string garbage(len, '\0');
        for (char& c : garbage) c = static_cast<char>(rng.Next64());
        bytes = HelloFrame(static_cast<uint32_t>(rng.NextBounded(4)));
        AppendFrame(static_cast<FrameType>(
                        1 + rng.NextBounded(19)),  // any defined type
                    garbage, &bytes);
        break;
      }
      default: {  // pure random garbage stream
        bytes.resize(1 + rng.NextBounded(2048));
        for (char& c : bytes) c = static_cast<char>(rng.Next64());
        break;
      }
    }

    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port())) << "iteration " << i;
    if (!bytes.empty()) {
      if (!conn.Send(bytes)) continue;  // server already slammed the door
    }
    conn.HalfClose();
    // ReadAll returns at server close: EOF always ends the exchange — a
    // wedged connection would hang here and fail through the CTest
    // TIMEOUT.
    check_reply(conn.ReadAll(), i);

    if (i % 25 == 0) {
      // Liveness probe: a well-formed client is still served exactly.
      MatchClient probe;
      ASSERT_TRUE(probe.Connect("127.0.0.1", server.port()).ok())
          << "iteration " << i;
      ASSERT_TRUE(probe.Ping().ok()) << "iteration " << i;
      Result<uint64_t> id = probe.Submit(PaperQueryHypergraph());
      ASSERT_TRUE(id.ok()) << "iteration " << i;
      Result<WireOutcome> reply = probe.WaitOutcome(id.value());
      ASSERT_TRUE(reply.ok()) << "iteration " << i;
      EXPECT_EQ(reply.value().outcome.stats.embeddings, 2u)
          << "iteration " << i;
    }
  }

  // The fuzz barrage must not have wedged bookkeeping: the server still
  // reports zero in-flight work once everything settled.
  ASSERT_TRUE(EventuallyTrue([&] { return server.Stats().inflight == 0; }));
  server.Stop();
}

TEST(NetFuzzTest, MutatedFramesNeverCrashTheServer) {
  FuzzMutatedFramesAgainstServer(1);
}

TEST(NetFuzzTest, MutatedFramesNeverCrashTheFourThreadReactor) {
  FuzzMutatedFramesAgainstServer(4);
}

TEST(NetTest, ConnectionLimitTurnsExtrasAway) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  ServerOptions options = LoopbackOptions(1);
  options.max_connections = 1;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  MatchClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(first.Ping().ok());  // the slot-holder is fully served

  RawConn second;
  ASSERT_TRUE(second.Connect(server.port()));
  ExpectErrorFrameThenEof(second);
  ASSERT_TRUE(first.Ping().ok());  // unaffected
  server.Stop();
}

// A burst of simultaneous connects larger than a small listen backlog must
// not overflow the accept queue: Linux drops a SYN that finds it full, and
// the client retries only after its 1 s SYN retransmission timeout. One
// thread opens 200 non-blocking connects at once, then sends a HELLO on
// each and reads every reply, which proves the server accepted it.
TEST(NetTest, ConnectBurstIsAcceptedWithoutSynRetransmits) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  ServerOptions options = LoopbackOptions(1);
  options.max_connections = 256;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

  constexpr int kConnections = 200;
  std::vector<int> fds;
  Timer burst;
  for (int i = 0; i < kConnections; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
    ASSERT_EQ(::fcntl(fd, F_SETFL, O_NONBLOCK), 0);
    const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr));
    ASSERT_TRUE(rc == 0 || errno == EINPROGRESS) << "connect " << i;
  }
  // Blocking from here on: a send on a connection still in SYN_SENT waits
  // for the handshake.
  const std::string hello = HelloFrame();
  for (int fd : fds) {
    ASSERT_EQ(::fcntl(fd, F_SETFL, 0), 0);
    ASSERT_EQ(::send(fd, hello.data(), hello.size(), 0),
              static_cast<ssize_t>(hello.size()));
  }
  for (int fd : fds) {
    FrameReader reader;
    FrameReader::Frame frame;
    char buffer[256];
    while (!reader.Next(&frame).value()) {
      const ssize_t got = ::read(fd, buffer, sizeof(buffer));
      ASSERT_GT(got, 0);
      reader.Feed(buffer, static_cast<size_t>(got));
    }
    EXPECT_EQ(frame.type, FrameType::kHelloReply);
  }
  EXPECT_LT(burst.ElapsedSeconds(), 0.5);
  for (int fd : fds) ::close(fd);
  server.Stop();
}

TEST(NetTest, StaleOutcomeOfADroppedConnectionSkipsTheNextOnItsFd) {
  // Outcomes name their connection by fd and a never-reused serial. A
  // drops with request id 1 in flight; B reuses A's fd and submits its own
  // id 1. A's cancelled outcome must not answer B's id 1.
  //
  // One pool worker sets up the order: the control connection's monster,
  // admitted while A's query runs, buries A's tasks under its own, so A's
  // query stays unresolved after A's cancel. B's id 1 repeats A's structure and
  // attaches to it as a mirror. Cancelling the monster unburies A's query:
  // it resolves cancelled — posting A's stale outcome — and only then
  // re-dispatches B's mirror as an execution of its own. (Should A's query
  // finish before the monster arrives, B mirrors its exact count and the
  // test still holds, without the stale outcome.)
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(25));
  MatchServer server(idx, LoopbackOptions(1));
  ASSERT_TRUE(server.Start().ok());
  const uint64_t expected =
      MatchSequential(idx, PathQuery(3)).value().embeddings;

  MatchClient control;
  ASSERT_TRUE(control.Connect("127.0.0.1", server.port()).ok());
  // Polls without sleeping: A's query must still run when the monster
  // comes.
  auto await_stats = [&](const std::function<bool(const WireStats&)>& ok) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      Result<WireStats> s = control.Stats();
      if (s.ok() && ok(s.value())) return true;
    }
    return false;
  };
  WireSubmit submit;
  submit.request_id = 1;
  submit.query = PathQuery(3);
  std::string stream = HelloFrame();
  AppendFrame(FrameType::kSubmit, SubmitPayload({&submit}), &stream);

  uint64_t monster = 0;
  {
    RawConn a;
    ASSERT_TRUE(a.Connect(server.port()));
    ASSERT_TRUE(a.Send(stream));
    ASSERT_TRUE(await_stats([](const WireStats& s) {
      return s.submitted == 1;
    }));
    Result<uint64_t> id = control.Submit(PathQuery(5));
    ASSERT_TRUE(id.ok());
    monster = id.value();
    ASSERT_TRUE(await_stats([](const WireStats& s) {
      return s.submitted == 2;
    }));
  }
  ASSERT_TRUE(await_stats([](const WireStats& s) {
    return s.connections == 1;  // A is gone and its fd free
  }));

  RawConn b;
  ASSERT_TRUE(b.Connect(server.port()));
  ASSERT_TRUE(b.Send(stream));
  ASSERT_TRUE(await_stats([](const WireStats& s) {
    return s.submitted == 3;
  }));
  ASSERT_TRUE(control.Cancel(monster).ok());
  Result<WireOutcome> cancelled = control.WaitOutcome(monster);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled.value().outcome.status, QueryStatus::kCancelled);

  // Read B's replies until its outcome, then through a PONG: every
  // outcome of the test has been posted by then, so B must hold exactly
  // one, with its own exact count.
  FrameReader reader;
  auto next_frame = [&](FrameReader::Frame* frame) {
    while (true) {
      Result<bool> next = reader.Next(frame);
      if (!next.ok()) return false;
      if (next.value()) return true;
      std::string chunk;
      if (!b.ReadSome(&chunk)) return false;
      reader.Feed(chunk.data(), chunk.size());
    }
  };
  std::vector<WireOutcome> outcomes;
  bool ponged = false;
  FrameReader::Frame frame;
  while (!ponged && next_frame(&frame)) {
    if (frame.type == FrameType::kOutcome) {
      Result<std::vector<std::string_view>> entries =
          DecodeEntryList(frame.payload);
      ASSERT_TRUE(entries.ok());
      for (std::string_view entry : entries.value()) {
        Result<WireOutcome> out = DecodeOutcome(entry);
        ASSERT_TRUE(out.ok());
        outcomes.push_back(out.value());
      }
      std::string ping;
      AppendFrame(FrameType::kPing, "after", &ping);
      ASSERT_TRUE(b.Send(ping));
    } else if (frame.type == FrameType::kPong) {
      ponged = true;
    } else {
      ASSERT_EQ(frame.type, FrameType::kHelloReply);
    }
  }
  ASSERT_TRUE(ponged);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].request_id, 1u);
  EXPECT_EQ(outcomes[0].outcome.status, QueryStatus::kOk);
  EXPECT_EQ(outcomes[0].outcome.stats.embeddings, expected);
  server.Stop();
}

// ---------------------------------------------- multi-threaded reactor --

// Post() writes the wake pipe only when the task queue goes from empty to
// non-empty; Wait() drains the pipe before it takes the queue. A lost
// wake would strand the queue until Wait's timeout, so the loop waits with
// the test's whole time budget: every task must run exactly once, and the
// last well before that budget runs out.
TEST(EventLoopTest, ConcurrentPostsRunOnceWithoutALostWake) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  constexpr int kPosters = 4;
  constexpr int kPerPoster = 10000;
  constexpr int kTotal = kPosters * kPerPoster;
  const auto budget = std::chrono::seconds(20);
  const auto start = std::chrono::steady_clock::now();

  std::vector<int> runs(kTotal, 0);  // touched by the loop thread only
  int ran = 0;
  std::atomic<bool> waiting{false};
  std::thread looper([&] {
    std::vector<EventLoop::Event> events;
    while (ran < kTotal) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          start + budget - std::chrono::steady_clock::now());
      if (left.count() <= 0) break;
      waiting.store(true);
      if (loop.Wait(static_cast<int>(left.count()), &events) < 0) break;
    }
  });
  while (!waiting.load()) std::this_thread::yield();

  std::vector<std::thread> posters;
  for (int p = 0; p < kPosters; ++p) {
    posters.emplace_back([&, p] {
      for (int i = 0; i < kPerPoster; ++i) {
        const int slot = p * kPerPoster + i;
        loop.Post([&runs, &ran, slot] {
          ++runs[slot];
          ++ran;
        });
      }
    });
  }
  for (std::thread& t : posters) t.join();
  looper.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(ran, kTotal);
  EXPECT_EQ(std::count(runs.begin(), runs.end(), 1), kTotal);
  EXPECT_LT(elapsed, budget) << "a posted task waited out the timeout";
}

TEST(NetReactorTest, SixtyFourClientsOverFourIoThreadsKeepExactCounts) {
  // The headline invariant of the reactor redesign: connections spread
  // over four IO threads (pinned by fd hash) behave exactly like the
  // single-threaded front end — every client gets its own exact counts,
  // no reply ever crosses to another connection's socket.
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(8));
  ServerOptions options = LoopbackOptions(2);
  options.io_threads = 4;
  options.max_connections = 128;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  const uint64_t expected1 =
      MatchSequential(idx, PathQuery(1)).value().embeddings;
  const uint64_t expected2 =
      MatchSequential(idx, PathQuery(2)).value().embeddings;

  constexpr int kClients = 64;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      MatchClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        ++failures;
        return;
      }
      std::vector<uint64_t> ids;
      for (uint32_t k : {1u, 2u}) {  // pipelined: submit both, then wait
        Result<uint64_t> id = client.Submit(PathQuery(k));
        if (!id.ok()) {
          ++failures;
          return;
        }
        ids.push_back(id.value());
      }
      for (size_t i = 0; i < ids.size(); ++i) {
        Result<WireOutcome> reply = client.WaitOutcome(ids[i]);
        if (!reply.ok() ||
            reply.value().outcome.status != QueryStatus::kOk ||
            reply.value().outcome.stats.embeddings !=
                (i == 0 ? expected1 : expected2)) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  ASSERT_TRUE(EventuallyTrue([&] { return server.Stats().inflight == 0; }));
  WireStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, 2u * kClients);
  EXPECT_EQ(stats.completed, 2u * kClients);
  ASSERT_EQ(stats.io_threads.size(), 4u);
  uint64_t frames_in = 0;
  for (const WireIoThreadStats& row : stats.io_threads) {
    frames_in += row.frames_in;
  }
  EXPECT_GE(frames_in, 2u * kClients);  // every submit frame was counted
  server.Stop();
}

TEST(NetReactorTest, StatsReportOneRowPerIoThreadAndServiceGauges) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  ServerOptions options = LoopbackOptions(2);
  options.io_threads = 2;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  MatchClient a;
  MatchClient b;
  ASSERT_TRUE(a.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", server.port()).ok());
  Result<uint64_t> id = a.Submit(PaperQueryHypergraph());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(a.WaitOutcome(id.value()).ok());
  ASSERT_TRUE(b.Ping().ok());

  Result<WireStats> reply = a.Stats();
  ASSERT_TRUE(reply.ok());
  const WireStats& stats = reply.value();
  EXPECT_EQ(stats.connections, 2u);
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GE(stats.service_finished, 1u);
  EXPECT_EQ(stats.service_live_contexts, 0u);
  ASSERT_EQ(stats.io_threads.size(), 2u);
  uint64_t row_connections = 0;
  uint64_t frames_in = 0;
  uint64_t bytes_out = 0;
  for (const WireIoThreadStats& row : stats.io_threads) {
    row_connections += row.connections;
    frames_in += row.frames_in;
    bytes_out += row.bytes_out;
  }
  EXPECT_EQ(row_connections, 2u);  // per-thread rows sum to the gauge
  EXPECT_GE(frames_in, 3u);        // submit + ping + stats at minimum
  EXPECT_GT(bytes_out, 0u);
  server.Stop();
}

TEST(NetTest, RateLimiterShedsFastTenantAndSparesOthers) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  ServerOptions options = LoopbackOptions(2);
  // Burst is max(rate, 1): one token up front, then a refill so slow the
  // test cannot race it. The first submit per tenant is admitted, every
  // later one is shed.
  options.max_submits_per_sec = 0.001;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  MatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  SubmitOptions fast;
  fast.tenant_id = 7;
  Result<uint64_t> first = client.Submit(PaperQueryHypergraph(), fast);
  ASSERT_TRUE(first.ok());
  Result<WireOutcome> first_reply = client.WaitOutcome(first.value());
  ASSERT_TRUE(first_reply.ok());
  EXPECT_EQ(first_reply.value().outcome.status, QueryStatus::kOk);

  // Same tenant, bucket empty: shed at the edge with the rate-limit
  // reason, distinct from queue-full backpressure.
  Result<uint64_t> second = client.Submit(PaperQueryHypergraph(), fast);
  ASSERT_TRUE(second.ok());
  Result<WireOutcome> second_reply = client.WaitOutcome(second.value());
  ASSERT_TRUE(second_reply.ok());
  EXPECT_EQ(second_reply.value().outcome.status, QueryStatus::kRejected);
  EXPECT_EQ(second_reply.value().reject_reason, RejectReason::kRateLimited);

  // Another tenant has its own bucket and is untouched.
  SubmitOptions other;
  other.tenant_id = 8;
  Result<uint64_t> third = client.Submit(PaperQueryHypergraph(), other);
  ASSERT_TRUE(third.ok());
  Result<WireOutcome> third_reply = client.WaitOutcome(third.value());
  ASSERT_TRUE(third_reply.ok());
  EXPECT_EQ(third_reply.value().outcome.status, QueryStatus::kOk);

  // Shed submissions never reached the service: only the two admitted
  // ones count as submitted, and the shed one is tallied separately from
  // queue-full rejections.
  WireStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.rate_limited, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  server.Stop();
}

// ----------------------------------------------------- async client API --

TEST(AsyncClientTest, CallbacksFireExactlyOncePerSubmit) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(8));
  MatchServer server(idx, LoopbackOptions(2));
  ASSERT_TRUE(server.Start().ok());
  const uint64_t expected =
      MatchSequential(idx, PathQuery(1)).value().embeddings;

  AsyncMatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  constexpr int kSubmits = 16;
  std::mutex mu;
  std::unordered_map<uint64_t, int> fired;       // id -> callback count
  std::unordered_map<uint64_t, bool> exact;      // id -> reply was exact
  std::vector<uint64_t> ids;
  for (int i = 0; i < kSubmits; ++i) {
    Result<uint64_t> id = client.Submit(
        PathQuery(1), {}, [&](const AsyncOutcome& result) {
          std::lock_guard<std::mutex> lock(mu);
          ++fired[result.request_id];
          exact[result.request_id] =
              result.transport.ok() &&
              result.wire.outcome.status == QueryStatus::kOk &&
              result.wire.outcome.stats.embeddings == expected;
        });
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  ASSERT_TRUE(EventuallyTrue([&] {
    std::lock_guard<std::mutex> lock(mu);
    return fired.size() == kSubmits;
  }));
  client.Close();  // teardown must not re-fire already-resolved callbacks

  std::lock_guard<std::mutex> lock(mu);
  for (uint64_t id : ids) {
    EXPECT_EQ(fired[id], 1) << "request " << id;
    EXPECT_TRUE(exact[id]) << "request " << id;
  }
  server.Stop();
}

TEST(AsyncClientTest, ConnectionDropFailsEveryPendingCallback) {
  // Three monster queries are parked in flight when the server goes away:
  // each pending callback must fire (exactly once) with a not-ok
  // transport status — no request is left dangling.
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  ServerOptions options = LoopbackOptions(2);
  options.service.parallel.scan_grain = 64;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  AsyncMatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  std::mutex mu;
  std::unordered_map<uint64_t, int> fired;
  std::unordered_map<uint64_t, bool> failed;
  for (int i = 0; i < 3; ++i) {
    Result<uint64_t> id = client.Submit(
        PathQuery(4), {}, [&](const AsyncOutcome& result) {
          std::lock_guard<std::mutex> lock(mu);
          ++fired[result.request_id];
          failed[result.request_id] = !result.transport.ok();
        });
    ASSERT_TRUE(id.ok());
  }
  ASSERT_TRUE(EventuallyTrue([&] { return server.Stats().inflight == 3; }));
  server.Stop();

  ASSERT_TRUE(EventuallyTrue([&] {
    std::lock_guard<std::mutex> lock(mu);
    return fired.size() == 3;
  }));
  std::unique_lock<std::mutex> lock(mu);
  for (const auto& [id, count] : fired) {
    EXPECT_EQ(count, 1) << "request " << id;
    EXPECT_TRUE(failed[id]) << "request " << id;
  }
  lock.unlock();
  client.Close();
}

TEST(AsyncClientTest, CancelAfterSubmitResolvesTheCallbackExactlyOnce) {
  // The cancel-right-after-submit race: whichever side wins inside the
  // server (inline rejection, queued cancel, in-flight cancel), the
  // callback resolves exactly once with a real outcome.
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  ServerOptions options = LoopbackOptions(2);
  options.service.parallel.scan_grain = 64;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  AsyncMatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  std::mutex mu;
  int fired = 0;
  AsyncOutcome seen;
  Result<uint64_t> monster = client.Submit(
      PathQuery(4), {}, [&](const AsyncOutcome& result) {
        std::lock_guard<std::mutex> lock(mu);
        ++fired;
        seen = result;
      });
  ASSERT_TRUE(monster.ok());
  ASSERT_TRUE(client.Cancel(monster.value()).ok());

  ASSERT_TRUE(EventuallyTrue([&] {
    std::lock_guard<std::mutex> lock(mu);
    return fired > 0;
  }));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(fired, 1);
    ASSERT_TRUE(seen.transport.ok()) << seen.transport.ToString();
    // At this scale the monster cannot have finished first.
    EXPECT_EQ(seen.wire.outcome.status, QueryStatus::kCancelled);
  }
  client.Close();
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(fired, 1);  // Close() must not fire it again
  }
  server.Stop();
}

TEST(AsyncClientTest, InflightWindowBlocksSubmitUntilASlotFrees) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PairCliqueData(40));
  ServerOptions options = LoopbackOptions(2);
  options.service.parallel.scan_grain = 64;
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  AsyncClientOptions window;
  window.max_inflight = 1;
  AsyncMatchClient client(window);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  std::mutex mu;
  int fired = 0;
  OutcomeCallback count = [&](const AsyncOutcome&) {
    std::lock_guard<std::mutex> lock(mu);
    ++fired;
  };
  Result<uint64_t> monster = client.Submit(PathQuery(4), {}, count);
  ASSERT_TRUE(monster.ok());

  // The window (1) is held by the monster, so this Submit must park...
  std::atomic<bool> second_returned{false};
  std::thread submitter([&] {
    Result<uint64_t> second = client.Submit(PathQuery(1), {}, count);
    EXPECT_TRUE(second.ok());
    second_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(second_returned.load());

  // ...until the monster's (cancelled) outcome frees the slot.
  ASSERT_TRUE(client.Cancel(monster.value()).ok());
  ASSERT_TRUE(EventuallyTrue([&] { return second_returned.load(); }));
  submitter.join();
  ASSERT_TRUE(EventuallyTrue([&] {
    std::lock_guard<std::mutex> lock(mu);
    return fired == 2;
  }));
  client.Close();
  server.Stop();
}

// ------------------------------------------------------- catalog tests --

// The serving-tier acceptance flow: a server hosting two named graphs; a
// client lists them, loads a third from disk, routes submits by graph
// id, unloads a graph with queries still in flight (no outcome lost or
// wrong), and a second client's unrouted submissions hit the default
// graph over the same server.
TEST(NetCatalogTest, EndToEndMultiGraphServing) {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"small", PaperDataHypergraph()});
  graphs.push_back({"big", PairCliqueData(8)});
  ServerOptions options = LoopbackOptions(2);
  options.allow_remote_load = true;
  MatchServer server(std::move(graphs), options);
  ASSERT_TRUE(server.Start().ok());

  IndexedHypergraph small_idx =
      IndexedHypergraph::Build(PaperDataHypergraph());
  IndexedHypergraph big_idx = IndexedHypergraph::Build(PairCliqueData(8));
  const Hypergraph query = PathQuery(2);
  const MatchStats want_small = MatchSequential(small_idx, query).value();
  const MatchStats want_big = MatchSequential(big_idx, query).value();
  ASSERT_NE(want_small.embeddings, want_big.embeddings);

  MatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // LIST: both preloaded graphs, the first one default.
  Result<WireCatalogReply> list = client.ListGraphs();
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  ASSERT_TRUE(list.value().ok);
  ASSERT_EQ(list.value().graphs.size(), 2u);
  EXPECT_EQ(list.value().graphs[0].name, "small");
  EXPECT_TRUE(list.value().graphs[0].is_default);

  // LOAD a third graph from the server's filesystem.
  const std::string third_path = TempPath("net_catalog_third.hgb");
  ASSERT_TRUE(
      SaveHypergraphBinary(PairCliqueData(5), third_path).ok());
  Result<WireCatalogReply> loaded = client.LoadGraph("third", third_path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().ok) << loaded.value().message;
  EXPECT_EQ(loaded.value().graphs.size(), 3u);
  IndexedHypergraph third_idx = IndexedHypergraph::Build(PairCliqueData(5));
  const MatchStats want_third = MatchSequential(third_idx, query).value();

  // Route by graph id; each name resolves to its own exact counts.
  Result<uint64_t> to_small = client.SubmitTo("small", query);
  Result<uint64_t> to_big = client.SubmitTo("big", query);
  Result<uint64_t> to_third = client.SubmitTo("third", query);
  Result<uint64_t> to_default = client.Submit(query);
  ASSERT_TRUE(to_small.ok() && to_big.ok() && to_third.ok() &&
              to_default.ok());
  EXPECT_EQ(client.WaitOutcome(to_small.value())
                .value().outcome.stats.embeddings,
            want_small.embeddings);
  EXPECT_EQ(client.WaitOutcome(to_big.value())
                .value().outcome.stats.embeddings,
            want_big.embeddings);
  EXPECT_EQ(client.WaitOutcome(to_third.value())
                .value().outcome.stats.embeddings,
            want_third.embeddings);
  EXPECT_EQ(client.WaitOutcome(to_default.value())
                .value().outcome.stats.embeddings,
            want_small.embeddings);

  // A batch routed to one graph stays exact, too.
  std::vector<const Hypergraph*> batch{&query, &query};
  Result<std::vector<uint64_t>> batch_ids =
      client.SubmitBatchTo("big", batch);
  ASSERT_TRUE(batch_ids.ok());
  for (uint64_t id : batch_ids.value()) {
    EXPECT_EQ(client.WaitOutcome(id).value().outcome.stats.embeddings,
              want_big.embeddings);
  }

  // UNLOAD with queries in flight: fire a burst at "big", unload it
  // immediately, and every already-accepted outcome still arrives exact.
  std::vector<uint64_t> inflight;
  for (int i = 0; i < 8; ++i) {
    Result<uint64_t> id = client.SubmitTo("big", PathQuery(3));
    ASSERT_TRUE(id.ok());
    inflight.push_back(id.value());
  }
  Result<WireCatalogReply> unloaded = client.UnloadGraph("big");
  ASSERT_TRUE(unloaded.ok());
  EXPECT_TRUE(unloaded.value().ok) << unloaded.value().message;
  const MatchStats want_inflight =
      MatchSequential(big_idx, PathQuery(3)).value();
  for (uint64_t id : inflight) {
    Result<WireOutcome> outcome = client.WaitOutcome(id);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().outcome.status, QueryStatus::kOk);
    EXPECT_EQ(outcome.value().outcome.stats.embeddings,
              want_inflight.embeddings);
  }

  // Submits to the unloaded graph are typed rejections now, and the
  // connection survives them.
  Result<uint64_t> gone = client.SubmitTo("big", query);
  ASSERT_TRUE(gone.ok());
  Result<WireOutcome> rejected = client.WaitOutcome(gone.value());
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().outcome.status, QueryStatus::kRejected);
  EXPECT_EQ(rejected.value().reject_reason, RejectReason::kUnknownGraph);
  ASSERT_TRUE(client.Ping().ok());

  // Per-graph stats rows ride the plain STATS surface.
  Result<WireStats> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().graphs.size(), 2u);  // big is gone
  EXPECT_EQ(stats.value().graphs[0].name, "small");
  EXPECT_TRUE(stats.value().graphs[0].is_default);
  EXPECT_GT(stats.value().graphs[0].index_bytes, 0u);

  // An unrouted submission (empty graph name) hits the default graph.
  MatchClient unrouted;
  ASSERT_TRUE(unrouted.Connect("127.0.0.1", server.port()).ok());
  Result<uint64_t> unrouted_id = unrouted.Submit(query);
  ASSERT_TRUE(unrouted_id.ok());
  EXPECT_EQ(unrouted.WaitOutcome(unrouted_id.value())
                .value().outcome.stats.embeddings,
            want_small.embeddings);

  client.Close();
  unrouted.Close();
  server.Stop();
}

TEST(NetCatalogTest, UnknownGraphRejectsWithoutClosingConnection) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchServer server(idx, LoopbackOptions(2));
  ASSERT_TRUE(server.Start().ok());

  MatchClient client;  // zero feature bits: routing needs no grant
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  Result<uint64_t> id = client.SubmitTo("nope", PaperQueryHypergraph());
  ASSERT_TRUE(id.ok());
  Result<WireOutcome> reply = client.WaitOutcome(id.value());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().outcome.status, QueryStatus::kRejected);
  EXPECT_EQ(reply.value().reject_reason, RejectReason::kUnknownGraph);

  // The connection is intact and the default graph still answers.
  Result<uint64_t> ok_id = client.Submit(PaperQueryHypergraph());
  ASSERT_TRUE(ok_id.ok());
  EXPECT_EQ(client.WaitOutcome(ok_id.value()).value().outcome.status,
            QueryStatus::kOk);
  server.Stop();
}

TEST(NetCatalogTest, OneFrameRoutesEachEntryToItsOwnGraph) {
  // One raw kSubmit frame naming graphs a, b, a and an unknown graph:
  // each known entry answers with its own graph's count, the unknown one
  // with a typed reject, and the connection stays open.
  std::vector<NamedGraph> graphs;
  graphs.push_back({"a", PaperDataHypergraph()});
  graphs.push_back({"b", PairCliqueData(6)});
  MatchServer server(std::move(graphs), LoopbackOptions(2));
  ASSERT_TRUE(server.Start().ok());

  const Hypergraph query = PathQuery(2);
  const uint64_t want_a =
      MatchSequential(IndexedHypergraph::Build(PaperDataHypergraph()), query)
          .value()
          .embeddings;
  const uint64_t want_b =
      MatchSequential(IndexedHypergraph::Build(PairCliqueData(6)), query)
          .value()
          .embeddings;
  ASSERT_NE(want_a, want_b);

  const std::vector<std::string> names = {"a", "b", "a", "nope"};
  std::vector<WireSubmit> submits(names.size());
  std::vector<const WireSubmit*> entries;
  for (size_t i = 0; i < names.size(); ++i) {
    submits[i].request_id = i + 1;
    submits[i].graph = names[i];
    submits[i].query = query.Clone();
    entries.push_back(&submits[i]);
  }
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  std::string stream = HelloFrame();
  AppendFrame(FrameType::kSubmit, SubmitPayload(entries), &stream);
  ASSERT_TRUE(conn.Send(stream));

  // Collect one answer per entry, then prove the connection is open.
  std::unordered_map<uint64_t, uint64_t> embeddings;
  std::unordered_map<uint64_t, RejectReason> rejects;
  FrameReader reader;
  FrameReader::Frame frame;
  bool pong = false;
  bool pinged = false;
  while (!pong) {
    std::string bytes;
    ASSERT_TRUE(conn.ReadSome(&bytes)) << "server closed the connection";
    reader.Feed(bytes.data(), bytes.size());
    while (true) {
      Result<bool> next = reader.Next(&frame);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next.value()) break;
      if (frame.type == FrameType::kOutcome) {
        Result<std::vector<std::string_view>> list =
            DecodeEntryList(frame.payload);
        ASSERT_TRUE(list.ok());
        for (const std::string_view entry : list.value()) {
          Result<WireOutcome> outcome = DecodeOutcome(entry);
          ASSERT_TRUE(outcome.ok());
          EXPECT_EQ(outcome.value().outcome.status, QueryStatus::kOk);
          embeddings[outcome.value().request_id] =
              outcome.value().outcome.stats.embeddings;
        }
      } else if (frame.type == FrameType::kRejected) {
        Result<WireRejected> rejected = DecodeRejected(frame.payload);
        ASSERT_TRUE(rejected.ok());
        rejects[rejected.value().request_id] = rejected.value().reason;
      } else if (frame.type == FrameType::kPong) {
        pong = true;
      } else {
        ASSERT_EQ(frame.type, FrameType::kHelloReply);
      }
    }
    if (!pinged && embeddings.size() + rejects.size() == names.size()) {
      std::string ping;
      AppendFrame(FrameType::kPing, "still-open", &ping);
      ASSERT_TRUE(conn.Send(ping));
      pinged = true;
    }
  }
  ASSERT_EQ(embeddings.size(), 3u);
  EXPECT_EQ(embeddings[1], want_a);
  EXPECT_EQ(embeddings[2], want_b);
  EXPECT_EQ(embeddings[3], want_a);
  ASSERT_EQ(rejects.size(), 1u);
  EXPECT_EQ(rejects[4], RejectReason::kUnknownGraph);
  server.Stop();
}

TEST(NetCatalogTest, RemoteLoadNeedsServerOptIn) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchServer server(idx, LoopbackOptions(2));  // allow_remote_load off
  ASSERT_TRUE(server.Start().ok());

  MatchClient client;  // zero feature bits: routing needs no grant
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  Result<WireCatalogReply> denied =
      client.LoadGraph("x", "/tmp/anything.hgb");
  ASSERT_TRUE(denied.ok());  // transport fine, verb refused
  EXPECT_FALSE(denied.value().ok);
  // LIST (and the connection) still work after the refusal.
  Result<WireCatalogReply> list = client.ListGraphs();
  ASSERT_TRUE(list.ok());
  EXPECT_TRUE(list.value().ok);
  ASSERT_EQ(list.value().graphs.size(), 1u);
  EXPECT_EQ(list.value().graphs[0].name, "default");
  server.Stop();
}

// ----------------------------------------------------- observability --

// A trace-negotiated peer gets the end-to-end timeline back on every
// outcome — ordered stamps through delivery — while a peer that did not
// ask for tracing on the same server gets span-free outcomes.
TEST(NetObsTest, TraceNegotiationCarriesOrderedSpansOverTheWire) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchServer server(idx, LoopbackOptions(2));
  ASSERT_TRUE(server.Start().ok());

  AsyncClientOptions copts;
  copts.request_features = kFeatureTrace;
  MatchClient traced(copts);
  ASSERT_TRUE(traced.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE((traced.features() & kFeatureTrace) != 0);

  Result<uint64_t> id = traced.Submit(PaperQueryHypergraph());
  ASSERT_TRUE(id.ok());
  Result<WireOutcome> reply = traced.WaitOutcome(id.value());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const QuerySpan& span = reply.value().outcome.span;
  EXPECT_TRUE(span.enabled);
  EXPECT_GT(span.submit_seconds, 0.0);
  EXPECT_GE(span.admit_seconds, span.submit_seconds);
  EXPECT_GE(span.first_task_seconds, span.admit_seconds);
  EXPECT_GE(span.last_task_seconds, span.first_task_seconds);
  EXPECT_GE(span.resolve_seconds, span.last_task_seconds);
  // The deliver stamp is taken as the reactor writes the frame — the one
  // stage only the wire layer can see.
  EXPECT_GE(span.deliver_seconds, span.resolve_seconds);
  EXPECT_GT(span.TotalSeconds(), 0.0);

  MatchClient plain;
  ASSERT_TRUE(plain.Connect("127.0.0.1", server.port()).ok());
  Result<uint64_t> pid = plain.Submit(PaperQueryHypergraph());
  ASSERT_TRUE(pid.ok());
  Result<WireOutcome> preply = plain.WaitOutcome(pid.value());
  ASSERT_TRUE(preply.ok());
  EXPECT_FALSE(preply.value().outcome.span.enabled);
  server.Stop();
}

// The one terminal path with no span at all: an unknown-graph submission
// is answered inline at the protocol layer before any ticket — and
// therefore any span — exists. A traced peer gets a clean reject (span
// disabled, nothing half-finalised) and the connection keeps delivering
// traced outcomes afterwards.
TEST(NetObsTest, UnknownGraphRejectKeepsTracedConnectionCoherent) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  MatchServer server(idx, LoopbackOptions(2));
  ASSERT_TRUE(server.Start().ok());

  AsyncClientOptions copts;
  copts.request_features = kFeatureTrace;
  MatchClient client(copts);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  Result<uint64_t> bogus = client.SubmitTo("nope", PaperQueryHypergraph());
  ASSERT_TRUE(bogus.ok());
  Result<WireOutcome> rejected = client.WaitOutcome(bogus.value());
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().outcome.status, QueryStatus::kRejected);
  EXPECT_EQ(rejected.value().reject_reason, RejectReason::kUnknownGraph);
  EXPECT_FALSE(rejected.value().outcome.span.enabled);

  Result<uint64_t> good = client.Submit(PaperQueryHypergraph());
  ASSERT_TRUE(good.ok());
  Result<WireOutcome> reply = client.WaitOutcome(good.value());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().outcome.status, QueryStatus::kOk);
  EXPECT_TRUE(reply.value().outcome.span.enabled);
  server.Stop();
}

// The slow-query ring: with a threshold every query crosses, finished
// queries appear in STATS — locally and over the wire — with coherent
// timing decomposition and the uptime tier populated.
TEST(NetObsTest, SlowQueryRingSurfacesThroughStats) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  ServerOptions options = LoopbackOptions(2);
  options.slow_query_ms = 1e-6;  // everything qualifies
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());

  MatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    Result<uint64_t> id = client.Submit(PathQuery(1));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (uint64_t id : ids) ASSERT_TRUE(client.WaitOutcome(id).ok());

  Result<WireStats> reply = client.Stats();
  ASSERT_TRUE(reply.ok());
  const WireStats& stats = reply.value();
  EXPECT_GT(stats.uptime_seconds, 0.0);
  EXPECT_GT(stats.monotonic_seconds, 0.0);
  ASSERT_EQ(stats.slow_queries.size(), 3u);
  for (const WireSlowQuery& slow : stats.slow_queries) {
    EXPECT_EQ(slow.graph, "default");
    EXPECT_GT(slow.total_seconds, 0.0);
    EXPECT_GE(slow.queue_seconds, 0.0);
    EXPECT_GE(slow.run_seconds, 0.0);
    EXPECT_GE(slow.deliver_seconds, 0.0);
    EXPECT_GE(slow.total_seconds,
              slow.run_seconds);  // the parts nest inside the whole
  }
  // The local snapshot agrees with the wire round trip.
  EXPECT_EQ(server.Stats().slow_queries.size(), 3u);
  server.Stop();
}

// One raw HTTP/1.0 exchange against the second listener: GET /metrics
// returns Prometheus text exposition with the latency histograms the
// query traffic just populated; anything else is answered, not hung.
TEST(NetObsTest, MetricsEndpointServesPrometheusText) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  ServerOptions options = LoopbackOptions(2);
  options.metrics_port = 0;  // ephemeral
  MatchServer server(idx, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.metrics_port(), 0);

  MatchClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  Result<uint64_t> id = client.Submit(PaperQueryHypergraph());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client.WaitOutcome(id.value()).ok());

  auto http_get = [&](const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.metrics_port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char buf[4096];
    ssize_t got;
    while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      response.append(buf, static_cast<size_t>(got));
    }
    ::close(fd);
    return response;
  };

  const std::string scrape = http_get("GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(scrape.find("200 OK"), std::string::npos);
  EXPECT_NE(scrape.find("text/plain"), std::string::npos);
  EXPECT_NE(scrape.find("# TYPE hgmatch_queries_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(scrape.find("# TYPE hgmatch_query_run_seconds histogram"),
            std::string::npos);
  // The query we just ran populated the latency histograms: at least one
  // non-zero cumulative +Inf bucket row must be present.
  EXPECT_NE(scrape.find("hgmatch_queue_wait_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_EQ(scrape.find("hgmatch_queue_wait_seconds_count 0\n"),
            std::string::npos);
  EXPECT_NE(scrape.find("hgmatch_server_uptime_seconds"), std::string::npos);
  EXPECT_NE(scrape.find("hgmatch_server_connections 1\n"),
            std::string::npos);

  // Wrong path and wrong method get proper statuses, not a hang; the
  // main query port is untouched by scrape traffic.
  EXPECT_NE(http_get("GET /nope HTTP/1.0\r\n\r\n").find("404"),
            std::string::npos);
  EXPECT_NE(http_get("POST /metrics HTTP/1.0\r\n\r\n").find("405"),
            std::string::npos);
  ASSERT_TRUE(client.Ping().ok());
  server.Stop();
}

#endif  // HGMATCH_NET_TEST_SOCKETS

}  // namespace
}  // namespace hgmatch
