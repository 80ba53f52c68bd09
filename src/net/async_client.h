#ifndef HGMATCH_NET_ASYNC_CLIENT_H_
#define HGMATCH_NET_ASYNC_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/hypergraph.h"
#include "net/protocol.h"
#include "parallel/submit_options.h"
#include "util/status.h"

namespace hgmatch {

/// Options of the asynchronous wire client.
struct AsyncClientOptions {
  /// Bound on requests submitted but not yet answered: Submit() blocks
  /// while the window is full (until an outcome, a rejection or a
  /// connection failure frees a slot), so a fast producer cannot buffer
  /// unbounded work into a slow server. 0 = unbounded.
  uint32_t max_inflight = 1024;

  /// Feature bits (kFeatureCompression | kFeatureTrace) to request in the
  /// kHello exchange that Connect() always performs; the server grants a
  /// subset (see features()).
  uint32_t request_features = 0;
};

/// Wire-level transfer counters of one client connection, for bytes/query
/// accounting (bench_net_loopback, `hgmatch query --connect` framing
/// stats). Frames count wire frames as sent/received — a kSubmit, kOutcome
/// or kCompressed frame is one frame however many entries it carries.
struct ClientTransferStats {
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t frames_received = 0;
  uint64_t bytes_received = 0;
};

/// What a submission's callback receives — exactly once per accepted
/// Submit(), whatever happened to the request.
struct AsyncOutcome {
  uint64_t request_id = 0;

  /// The transport's verdict. ok(): the server answered and `wire` holds
  /// its reply (including server-side rejections, which surface as a
  /// QueryStatus::kRejected outcome with `wire.reject_reason` set).
  /// Not-ok: the connection was lost or closed before the reply arrived —
  /// `wire` is meaningless and the request's fate on the server is
  /// unknown.
  Status transport;

  /// The decoded reply (valid iff transport.ok()).
  WireOutcome wire;
};

using OutcomeCallback = std::function<void(const AsyncOutcome&)>;

/// Asynchronous client of the hgmatch wire protocol: Submit() writes the
/// frame and returns immediately; an internal reader thread dispatches
/// each OUTCOME/REJECTED/ERROR frame to its request's callback as it
/// arrives. This is the engine of the wire client stack — the blocking
/// MatchClient (net/client.h) is a thin facade that parks on these
/// callbacks.
///
/// Callback contract:
///  - Exactly once: every Submit() that returns a request id has its
///    callback invoked exactly once — with the server's reply, or with a
///    not-ok transport status when the connection dies or Close() runs
///    first. A Submit() that returns an error was never accepted and its
///    callback never fires (with one documented exception: a send that
///    fails while the reader is concurrently tearing the connection down
///    may already have handed the callback to the failure path; Submit
///    then reports the id as accepted rather than erroring, so the
///    exactly-once rule holds).
///  - Callbacks run on the reader thread (or, for connection teardown, on
///    the thread that triggered it). Keep them fast; do not call Close(),
///    Ping() or Stats() from inside one (self-join / self-wait deadlock).
///    Submit() and Cancel() are safe from callbacks.
///  - Cancel() is fire-and-forget: the outcome still arrives (cancelled
///    or already finished) and resolves the callback normally.
///
/// All public methods are thread-safe.
class AsyncMatchClient {
 public:
  explicit AsyncMatchClient(const AsyncClientOptions& options = {});
  ~AsyncMatchClient();

  AsyncMatchClient(const AsyncMatchClient&) = delete;
  AsyncMatchClient& operator=(const AsyncMatchClient&) = delete;

  /// Connects to host:port and starts the reader thread. POSIX-only.
  Status Connect(const std::string& host, uint16_t port);

  bool connected() const;

  /// Sends one query and registers `callback` for its reply; returns the
  /// connection-unique request id. A SubmitBatch() of one: a kSubmit frame
  /// with one entry. Blocks only when the in-flight window
  /// (AsyncClientOptions::max_inflight) is full. `options.sink` is
  /// ignored (embeddings do not cross the wire; counts and stats do).
  Result<uint64_t> Submit(const Hypergraph& query,
                          const SubmitOptions& options,
                          OutcomeCallback callback) {
    return Submit("", query, options, std::move(callback));
  }

  /// Submit routed to a named graph in the server's catalog (empty =
  /// default graph). An unknown graph comes back as a
  /// QueryStatus::kRejected outcome with reject_reason kUnknownGraph.
  Result<uint64_t> Submit(const std::string& graph, const Hypergraph& query,
                          const SubmitOptions& options,
                          OutcomeCallback callback);

  /// Submits many queries sharing one options/callback pair, coalescing
  /// them into kSubmit frames — one syscall and one server admission pass
  /// per chunk instead of per query. This is the client's one submission
  /// path. Entries are chunked by the in-flight window and the frame
  /// payload bound; each chunk blocks until the window has room for all
  /// of it. A query whose entry cannot fit a frame even alone fails the
  /// call before anything is sent. Returns the request ids in input
  /// order; the callback fires exactly once per id. A connection failure
  /// mid-call ends it early: it returns the ids accepted so far (their
  /// callbacks fire with the failure), or the failure when none was.
  Result<std::vector<uint64_t>> SubmitBatch(
      const std::vector<const Hypergraph*>& queries,
      const SubmitOptions& options, OutcomeCallback callback) {
    return SubmitBatch("", queries, options, std::move(callback));
  }

  /// SubmitBatch routed to a named graph (empty = default graph).
  Result<std::vector<uint64_t>> SubmitBatch(
      const std::string& graph,
      const std::vector<const Hypergraph*>& queries,
      const SubmitOptions& options, OutcomeCallback callback);

  /// Feature bits granted by the server's kHelloReply (0 before Connect).
  uint32_t features() const;

  /// Transfer counters since Connect(). Thread-safe snapshot.
  ClientTransferStats TransferStats() const;

  /// Requests cancellation of an in-flight submission (fire and forget).
  Status Cancel(uint64_t request_id);

  /// Round-trips a PING frame (blocks for the echo).
  Status Ping();

  /// Fetches the server statistics snapshot (blocks for the reply).
  Result<WireStats> Stats();

  /// Asks the server process to shut down (needs the server to run with
  /// allow_remote_shutdown).
  Status RequestShutdown();

  /// Catalog verbs (block for the kCatalogReply).
  /// Every reply carries the post-verb graph list; a failed verb comes
  /// back as ok() transport with reply.ok == false and the server's
  /// message — only transport/protocol trouble is a non-ok Result.
  Result<WireCatalogReply> ListGraphs();
  /// Asks the server to index `path` (a file on the *server's*
  /// filesystem) and serve it as `name` (needs allow_remote_load there).
  Result<WireCatalogReply> LoadGraph(const std::string& name,
                                     const std::string& path);
  /// Removes `name`; in-flight queries of that graph still resolve.
  Result<WireCatalogReply> UnloadGraph(const std::string& name);

  /// Closes the connection and joins the reader thread. Every
  /// still-outstanding callback fires first with a not-ok transport
  /// status — no request is left dangling. Idempotent; must not be
  /// called from a callback.
  void Close();

 private:
  void ReaderLoop();
  /// Dispatches one server frame (unwrapping kCompressed first). False =
  /// fatal: the connection failed and the reader must exit.
  bool HandleServerFrame(FrameType type, std::string& payload);
  /// Resolves one answered request: pops its callback under the state
  /// lock, invokes it outside.
  void FinishOne(WireOutcome wire);
  /// Connection teardown: records the first failure, fires every pending
  /// callback with it, wakes every waiter.
  void FailAll(const Status& status);
  /// Writes pre-framed bytes (serialised by the send lock) and counts
  /// them into the transfer stats.
  Status SendEncoded(const std::string& frame);
  /// Writes one whole frame (serialised by the send lock).
  Status SendFrame(FrameType type, const std::string& payload);
  /// SendFrame, compressed when the server granted kFeatureCompression.
  Status SendFrameNegotiated(FrameType type, const std::string& payload);
  /// Shared body of the catalog verbs: sends one frame, parks for the
  /// next kCatalogReply (FIFO, like Stats()).
  Result<WireCatalogReply> CatalogRoundTrip(FrameType type,
                                            const std::string& payload);

  const AsyncClientOptions options_;

  // Serialises socket writes so pipelined frames never interleave.
  std::mutex send_mutex_;

  // Everything below state_mutex_; cv_ wakes window waiters, ping/stats
  // waiters and WaitOutcome-style pollers in the facade.
  mutable std::mutex state_mutex_;
  std::condition_variable cv_;
  int fd_ = -1;
  bool closed_ = false;          // Close() ran (or is running)
  Status failure_;               // sticky first transport failure
  uint64_t next_request_id_ = 1;
  std::unordered_map<uint64_t, OutcomeCallback> pending_;
  uint64_t pings_sent_ = 0;      // FIFO replies: waiter N parks until
  uint64_t pongs_received_ = 0;  // received >= its ticket N
  std::deque<WireStats> stats_replies_;
  std::deque<WireCatalogReply> catalog_replies_;
  uint32_t features_ = 0;    // granted by kHelloReply
  bool hello_done_ = false;  // kHelloReply arrived (Connect parks on this)

  // Transfer counters (ClientTransferStats): bumped outside state_mutex_
  // on the send and reader paths.
  std::atomic<uint64_t> st_frames_sent_{0};
  std::atomic<uint64_t> st_bytes_sent_{0};
  std::atomic<uint64_t> st_frames_received_{0};
  std::atomic<uint64_t> st_bytes_received_{0};

  std::thread reader_;
};

}  // namespace hgmatch

#endif  // HGMATCH_NET_ASYNC_CLIENT_H_
