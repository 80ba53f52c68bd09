#ifndef HGMATCH_NET_PROTOCOL_H_
#define HGMATCH_NET_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/hypergraph.h"
#include "parallel/scheduler.h"
#include "util/status.h"

namespace hgmatch {

/// Wire protocol of the hgmatch TCP front end (net/server.h serves it,
/// net/client.h speaks it): a stream of length-prefixed binary frames,
/// little-endian, no padding:
///
///   [u32 magic "HGN4"] [u8 type] [u32 payload bytes] [payload...]
///
/// The magic doubles as the protocol version — an incompatible revision
/// bumps the trailing digit and old peers fail fast on the first frame.
/// The first client frame on every connection must be kHello; the server
/// answers any other first frame with one kError frame and closes.
/// Payloads are bounded by kMaxWirePayload; a frame announcing more (or a
/// header with the wrong magic, or an undecodable payload) is a protocol
/// error: the server answers with one kError frame and closes the
/// connection, cancelling that connection's in-flight queries.
///
/// Frame payloads:
///   kSubmit     client->server  an entry list (EncodeEntryList) of
///                               WireSubmit entries (options, target graph
///                               name + inline query hypergraph in the
///                               io/binary_format image). One query is a
///                               list of one; a list is admitted by the
///                               service in one pass per run of entries
///                               naming the same graph.
///   kOutcome    server->client  an entry list of WireOutcome entries
///                               (full QueryOutcome/MatchStats): outcomes
///                               ready in the same reactor pass coalesce
///                               into as few frames as the payload bound
///                               allows.
///   kRejected   server->client  WireRejected (u64 request id + u8 reason):
///                               the submission was shed at the server edge
///                               — by queue-depth backpressure
///                               (SchedulerOptions::max_queued_queries) or
///                               by the per-tenant rate limiter
///                               (ServerOptions::max_submits_per_sec) —
///                               retry once the backlog/window drains
///   kCancel     client->server  u64 request id (unknown ids are ignored:
///                               the race with completion is benign)
///   kPing       client->server  arbitrary payload, echoed back
///   kPong       server->client  the kPing payload
///   kStats      client->server  empty
///   kStatsReply server->client  WireStats snapshot
///   kError      server->client  UTF-8 message; the connection closes next
///   kShutdown   client->server  empty; asks the server process to finish
///                               outstanding work and exit (honoured only
///                               with ServerOptions::allow_remote_shutdown)
///   kHello      client->server  u32 requested feature bits (kFeature*; 0
///                               is a valid request). Mandatory, and the
///                               first frame of every connection.
///   kHelloReply server->client  u32 granted feature bits (a subset of the
///                               request). Only features granted here may
///                               appear on the wire afterwards, in either
///                               direction.
///   kCompressed either way      [u8 inner type][varint raw bytes][LZSS
///                               stream] — a whole frame payload
///                               compressed (io/compress.h), opt-in per
///                               frame. Requires kFeatureCompression; a
///                               stream that inflates past the declared
///                               raw size (or past kMaxWirePayload) is a
///                               protocol error, not an allocation.
///   kLoadGraph  client->server  WireCatalogRequest (graph name + a
///                               server-side .hgb path): load and index
///                               the file, serve it under the name.
///   kUnloadGraph client->server WireCatalogRequest (name; path unused):
///                               remove the graph once its in-flight
///                               queries resolve.
///   kListGraphs client->server  empty.
///   kCatalogReply server->client WireCatalogReply: ok/error of the verb
///                               plus the current graph list (every
///                               catalog verb answers with one, so a
///                               client always sees the post-verb state).
///
/// Types 1 and 2 are retired: HGN3 used them for single-entry SUBMIT and
/// OUTCOME frames beside the list frames, which now carry every query.
inline constexpr uint32_t kWireMagic = 0x344e'4748;  // "HGN4"

/// Upper bound on a frame payload (a ~16 MiB query hypergraph is far
/// beyond any sane pattern; real limits come from the data graph side).
inline constexpr uint32_t kMaxWirePayload = 16u << 20;

/// Bytes of the fixed frame header.
inline constexpr size_t kWireHeaderBytes = 4 + 1 + 4;

enum class FrameType : uint8_t {
  kRejected = 3,
  kCancel = 4,
  kPing = 5,
  kPong = 6,
  kStats = 7,
  kStatsReply = 8,
  kError = 9,
  kShutdown = 10,
  kHello = 11,
  kHelloReply = 12,
  kSubmit = 13,
  kOutcome = 14,
  kCompressed = 15,
  kLoadGraph = 16,
  kUnloadGraph = 17,
  kListGraphs = 18,
  kCatalogReply = 19,
};

/// Feature bits carried by kHello / kHelloReply. Compression is granted
/// only when the server operator enabled it
/// (ServerOptions::enable_compression).
inline constexpr uint32_t kFeatureCompression = 1u << 0;
/// Per-query tracing: the server records a QuerySpan for every submission
/// on the connection and appends it to each OUTCOME payload as a trailing
/// section (see the with_trace flag of EncodeOutcome / DecodeOutcome), so
/// only peers that ask for spans pay their bytes.
inline constexpr uint32_t kFeatureTrace = 1u << 1;

/// Payloads below this size skip the compression attempt outright: the
/// wrapper overhead (type byte + raw-size varint + control bytes) eats any
/// win and the CPU spent is pure loss.
inline constexpr size_t kCompressThresholdBytes = 64;

/// One query submission as it crosses the wire (one kSubmit entry): the
/// client-chosen request id (scopes the reply; unique per connection), the
/// SubmitOptions fields that make sense remotely (no sink), and the query
/// itself.
struct WireSubmit {
  uint64_t request_id = 0;
  uint32_t tenant_id = 0;
  int32_t priority = 0;
  double weight = 1.0;
  double timeout_seconds = -1;              // < 0 = inherit server default
  uint64_t limit = ~uint64_t{0};            // SubmitOptions::kInheritLimit
  /// Target graph in the server's catalog (empty = default graph).
  std::string graph;
  Hypergraph query;
};

/// Why a submission was shed at the server edge (kRejected frames).
enum class RejectReason : uint8_t {
  /// The admission backlog was at its max_queued_queries bound.
  kQueueFull = 0,
  /// The tenant's token bucket (ServerOptions::max_submits_per_sec) was
  /// empty: the tenant is submitting faster than its allowance.
  kRateLimited = 1,
  /// The submission named a graph the catalog doesn't host (or one that
  /// is mid-unload). Not retryable until the graph is (re)loaded.
  kUnknownGraph = 2,
};

/// Stable display name: "queue-full", "rate-limited", "unknown-graph".
const char* RejectReasonName(RejectReason reason);

/// One shed submission (kRejected frames).
struct WireRejected {
  uint64_t request_id = 0;
  RejectReason reason = RejectReason::kQueueFull;
};

/// One finished query's reply (one kOutcome entry): the request id plus
/// the full QueryOutcome (status, exact MatchStats, admission timestamps
/// and sequence number).
/// `reject_reason` is client-side bookkeeping — kRejected travels as its
/// own frame type; clients fold it into a synthetic outcome and record the
/// reason here.
struct WireOutcome {
  uint64_t request_id = 0;
  QueryOutcome outcome;
  RejectReason reject_reason = RejectReason::kQueueFull;
};

/// Per-IO-thread counters of the reactor front end (kStatsReply): each IO
/// thread owns one row and bumps it without cross-thread coordination.
struct WireIoThreadStats {
  uint64_t connections = 0;  // currently open connections on this thread
  uint64_t frames_in = 0;    // complete frames parsed
  uint64_t frames_out = 0;   // frames queued for delivery
  uint64_t bytes_in = 0;     // raw bytes read off sockets
  uint64_t bytes_out = 0;    // raw bytes written to sockets
  uint64_t rejects = 0;      // kRejected frames sent by this thread
};

/// One hosted graph's row in kStatsReply and kCatalogReply — the wire
/// image of serve/catalog.h's CatalogGraphInfo.
struct WireGraphStats {
  std::string name;
  bool is_default = false;
  uint64_t queries = 0;       // submissions routed to this graph, ever
  uint64_t live_tickets = 0;  // submissions not yet resolved
  uint64_t index_bytes = 0;   // signature-index footprint
};

/// One slow-query ring entry in kStatsReply (ServerOptions::
/// slow_query_ms): which query was slow, whose it was, where it ran, and
/// where its time went — the span summary an operator reads before asking
/// for the full trace.
struct WireSlowQuery {
  uint64_t request_id = 0;
  uint32_t tenant_id = 0;
  std::string graph;            // empty = the default graph
  double total_seconds = 0;     // submit -> delivery
  double queue_seconds = 0;     // submit -> admission
  double run_seconds = 0;       // first task -> last task
  double deliver_seconds = 0;   // resolution -> socket write
};

/// Server statistics snapshot (kStatsReply): whole-server counters, live
/// scheduler/service gauges, and one row per IO thread — the
/// Prometheus-style observability surface of the wire front end.
struct WireStats {
  uint32_t num_threads = 0;             // worker pool size
  uint64_t connections = 0;             // currently open connections
  uint64_t submitted = 0;               // SUBMIT frames accepted
  uint64_t completed = 0;               // outcomes delivered
  uint64_t rejected = 0;                // shed by queue-depth backpressure
  uint64_t rate_limited = 0;            // shed by the per-tenant rate limit
  uint64_t cancelled_by_disconnect = 0; // queries cancelled by peer drops
  uint64_t inflight = 0;                // queries awaiting their outcome

  // Live service/scheduler gauges (see MatchService::Gauges()).
  uint64_t service_finished = 0;       // outcomes finalised since start
  uint64_t service_live_contexts = 0;  // queries with live execution state

  std::vector<WireIoThreadStats> io_threads;  // one row per IO thread

  /// One row per hosted graph (default first).
  std::vector<WireGraphStats> graphs;

  /// How long the server has been up, the process-monotonic clock at
  /// snapshot time (lets a client align span stamps from traced outcomes
  /// with this snapshot), and the slow-query ring (newest last; empty when
  /// --slow-query-ms is off).
  double uptime_seconds = 0;
  double monotonic_seconds = 0;
  std::vector<WireSlowQuery> slow_queries;
};

/// kLoadGraph / kUnloadGraph payload: the graph name and, for loads, a
/// path on the *server's* filesystem naming the .hgb file to index.
struct WireCatalogRequest {
  std::string name;
  std::string path;
};

/// kCatalogReply payload: verb outcome plus the post-verb graph list, so
/// LIST_GRAPHS and the load/unload acks share one decoder.
struct WireCatalogReply {
  bool ok = true;
  std::string message;  // human-readable error when !ok, else empty
  std::vector<WireGraphStats> graphs;
};

/// Appends one complete frame (header + payload) to *out.
void AppendFrame(FrameType type, std::string_view payload, std::string* out);

std::string EncodeSubmit(const WireSubmit& submit);
/// Encode variant that reads the query from the caller instead of
/// `fields.query` (whose value is ignored), so senders need not clone a
/// hypergraph into the move-only WireSubmit just to serialise it.
std::string EncodeSubmit(const WireSubmit& fields, const Hypergraph& query);
Result<WireSubmit> DecodeSubmit(std::string_view payload);

/// with_trace selects the trace-negotiated OUTCOME layout, which appends
/// the query's QuerySpan (enabled flag, then six stamps when enabled)
/// after the fixed fields. It must match on both ends: pass true exactly
/// when the connection was granted kFeatureTrace. With with_trace=true and
/// an untraced outcome the section is a single 0 byte.
std::string EncodeOutcome(const WireOutcome& outcome,
                          bool with_trace = false);
Result<WireOutcome> DecodeOutcome(std::string_view payload,
                                  bool with_trace = false);

std::string EncodeRejected(const WireRejected& rejected);
Result<WireRejected> DecodeRejected(std::string_view payload);

/// kCancel payloads are a bare request id.
std::string EncodeRequestId(uint64_t request_id);
Result<uint64_t> DecodeRequestId(std::string_view payload);

/// One fixed layout: the counters, the IO-thread rows, the graph rows,
/// then uptime, clock and the slow-query rows. Every section is required.
std::string EncodeStats(const WireStats& stats);
Result<WireStats> DecodeStats(std::string_view payload);

/// kLoadGraph / kUnloadGraph payloads (unloads leave `path` empty).
std::string EncodeCatalogRequest(const WireCatalogRequest& request);
Result<WireCatalogRequest> DecodeCatalogRequest(std::string_view payload);

std::string EncodeCatalogReply(const WireCatalogReply& reply);
Result<WireCatalogReply> DecodeCatalogReply(std::string_view payload);

/// kHello / kHelloReply payloads are a bare u32 feature bitmap. Unknown
/// bits are ignored on decode (a newer peer may request features this
/// build has never heard of; the reply simply won't grant them).
std::string EncodeFeatures(uint32_t features);
Result<uint32_t> DecodeFeatures(std::string_view payload);

/// kSubmit / kOutcome payloads share one shape, the entry list: a varint
/// entry count, then per entry a varint byte length and that many bytes of
/// one encoded WireSubmit / WireOutcome. Encode takes the pre-encoded
/// entries; Decode returns views into `payload`, which must outlive them.
std::string EncodeEntryList(std::span<const std::string> entries);
Result<std::vector<std::string_view>> DecodeEntryList(
    std::string_view payload);

/// How many leading entries of `entries` (at most `max_entries`) fit one
/// entry list within kMaxWirePayload, count and length prefixes included.
/// 0 means the first entry cannot travel even alone.
size_t FittingEntries(std::span<const std::string> entries,
                      size_t max_entries = SIZE_MAX);

/// Appends `payload` as a frame of `type` — wrapped in kCompressed when
/// `compress` is set, the payload clears kCompressThresholdBytes, and the
/// LZSS stream actually comes out smaller; plain otherwise. Negotiation is
/// the caller's problem: pass compress=false unless the peer was granted
/// kFeatureCompression.
void AppendFrameMaybeCompressed(FrameType type, std::string_view payload,
                                bool compress, std::string* out);

/// Unwraps a kCompressed payload into the inner frame. Fails with
/// Corruption when the inner type is invalid (or itself kCompressed — no
/// nesting), the declared raw size exceeds kMaxWirePayload, or the LZSS
/// stream is malformed or decodes to a different size than declared.
Result<FrameType> DecodeCompressedFrame(std::string_view payload,
                                        std::string* inner_payload);

/// Incremental frame parser: feed raw stream bytes, pop complete frames.
/// Validates the magic, the type tag and the payload bound as soon as a
/// header is complete, so a malformed peer is caught before its payload is
/// buffered.
class FrameReader {
 public:
  struct Frame {
    FrameType type = FrameType::kError;
    std::string payload;
  };

  void Feed(const char* data, size_t size) { buffer_.append(data, size); }

  /// Pops the next complete frame into *out. Returns true when a frame was
  /// popped, false when more bytes are needed, or a Corruption status on a
  /// malformed header (the stream is then unusable).
  Result<bool> Next(Frame* out);

  /// Bytes buffered but not yet consumed.
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;
};

}  // namespace hgmatch

#endif  // HGMATCH_NET_PROTOCOL_H_
