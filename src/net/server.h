#ifndef HGMATCH_NET_SERVER_H_
#define HGMATCH_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/indexed_hypergraph.h"
#include "net/protocol.h"
#include "parallel/service.h"
#include "util/status.h"

namespace hgmatch {

/// Options of the TCP front end.
struct ServerOptions {
  /// Listen address. The default binds loopback only — exposing a match
  /// service beyond the host is a deliberate act (`0.0.0.0`).
  std::string host = "127.0.0.1";

  /// Listen port; 0 picks an ephemeral port (read it back with port()).
  uint16_t port = 0;

  /// The backing service configuration, shared by every hosted graph
  /// (the catalog builds one MatchService per graph from this template,
  /// all on one scheduler pool). Backpressure lives here:
  /// service.max_queued_queries bounds the admission backlog, and the
  /// server relays each shed submission as a kRejected frame.
  ServiceOptions service;

  /// Reactor IO threads: each runs its own epoll loop and owns the full
  /// protocol state of the connections pinned to it (see the thread-
  /// ownership notes on MatchServer). 1 = the classic single-loop server;
  /// scale up when frame parsing/serialisation saturates one core. 0 is
  /// clamped to 1.
  uint32_t io_threads = 1;

  /// Accepted connections beyond this are turned away with a kError frame
  /// (enforced across all IO threads).
  uint32_t max_connections = 64;

  /// Per-connection output-buffer bound: a peer that submits but never
  /// reads its replies is dropped (in-flight queries cancelled) once this
  /// many unsent bytes accumulate, so one stalled client cannot grow
  /// server memory. Must exceed the largest single frame
  /// (kMaxWirePayload); outcomes are ~150 bytes each.
  uint64_t max_connection_buffer = uint64_t{2} * kMaxWirePayload;

  /// Per-tenant rate limit at the server edge: each tenant id holds a
  /// token bucket refilled at this many tokens per second (burst capacity
  /// = one second's allowance, at least 1). A SUBMIT that finds its
  /// tenant's bucket empty is answered with kRejected
  /// (RejectReason::kRateLimited) before touching the service — over-limit
  /// traffic never consumes admission-queue slots or planning work.
  /// 0 disables the limiter.
  double max_submits_per_sec = 0;

  /// Honour kShutdown frames (any connected client may then stop the
  /// server). Off by default; `hgmatch serve` enables it on request for
  /// scripted runs (the CLI smoke test drives it).
  bool allow_remote_shutdown = false;

  /// Honour kLoadGraph frames, which name a file on the *server's*
  /// filesystem to index and serve. Off by default for the same reason
  /// as remote shutdown: a connected client gets a server-side
  /// capability (filesystem reads, memory growth) beyond query traffic.
  /// UNLOAD_GRAPH and LIST_GRAPHS are always honoured.
  bool allow_remote_load = false;

  /// Grant kFeatureCompression to clients that request it via kHello
  /// (`hgmatch serve --compress`): both directions may then wrap frame
  /// payloads in kCompressed. Off by default — compression trades CPU on
  /// the reactor threads for bytes on the wire, a profitable trade for
  /// small-query floods over real networks but not for loopback-local
  /// bulk work.
  bool enable_compression = false;

  /// Prometheus exposition port: when >= 0 the server opens a second
  /// listener on `host`:`metrics_port` answering `GET /metrics` with the
  /// process metrics registry in text exposition format (HTTP/1.0,
  /// one request per connection). 0 picks an ephemeral port (read it
  /// back with metrics_port()); -1 (the default) disables the endpoint.
  /// The listener is served by IO thread 0's event loop — no extra
  /// threads — with a one-second per-scrape deadline.
  int metrics_port = -1;

  /// Slow-query threshold in milliseconds: a finished query whose
  /// submit-to-delivery span reaches the threshold is recorded in a
  /// bounded in-memory ring (most recent 64) surfaced through STATS
  /// (WireStats::slow_queries). Enabling the ring forces span capture
  /// for every submission, traced peer or not. 0 disables it.
  double slow_query_ms = 0;
};

/// One graph preloaded into the server's catalog at construction time
/// (`hgmatch serve --graph name=path`, repeatable). The first entry is
/// the default graph — the one un-routed submissions hit.
struct NamedGraph {
  std::string name;
  Hypergraph data;
};

/// A multi-threaded epoll reactor over a GraphCatalog: the wire front
/// end that turns the library into a servable system. An acceptor (IO
/// thread 0 owns the listening socket) distributes incoming connections
/// across ServerOptions::io_threads event loops, pinned by fd hash; query
/// execution itself runs on the catalog's shared worker pool, so a slow
/// client never blocks matching and a heavy query never blocks the
/// protocol.
///
/// The catalog hosts any number of named graphs behind one pool. Every
/// submission names its graph (empty = the default graph); peers manage
/// graphs with LOAD_GRAPH/UNLOAD_GRAPH/LIST_GRAPHS and see per-graph STATS
/// rows. A connection's first frame must be HELLO (net/protocol.h); any
/// other first frame gets one kError frame and the connection closes.
///
/// Thread-ownership invariants (the reason this design needs no
/// per-connection locks):
///
///  - A connection is owned by exactly one IO thread from adoption to
///    close. Its fd, frame reader, output buffer and in-flight ticket
///    table are touched only by that thread — never concurrently, never
///    handed off.
///  - Each IO thread owns one EventLoop (epoll instance + wake pipe).
///  - Cross-thread traffic uses exactly one channel, EventLoop::Post:
///    the acceptor posts connection adoptions into the owning thread's
///    loop, and each submission's completion hook posts its outcome there.
///    The hook names its connection by fd, a never-reused per-connection
///    serial and the request id; the loop delivers only when all three
///    still match, so an outcome for a dropped connection, a recycled fd
///    or a cancelled-away id is skipped, never dereferenced.
///  - Whole-server counters (connection count, submitted/completed/...)
///    are atomics; per-IO-thread stats rows are atomics owned by one
///    writer each. The per-tenant rate limiter is a shared
///    mutex-protected map — the only shared state the SUBMIT path touches.
///
/// Every kSubmit frame carries a list of entries (one query is a list of
/// one); the server decodes and validates them all, rate-limits each, and
/// admits the rest in one catalog call per run of entries naming the same
/// graph. Per connection the server keeps a table of in-flight tickets
/// keyed by the client's request id. Outcome delivery is
/// completion-driven and has one path: whether a query ran on the pool or
/// resolved inside Submit/Cancel (shed, plan error, mirror of a finished
/// canonical, cancelled while queued), its hook posts the outcome to the
/// owning loop, which delivers it on its next pass — the outcomes of one
/// pass coalesced into kOutcome frames cut to the payload bound — in
/// completion order (clients pipeline submissions and match replies by
/// id). A submission shed by queue-depth backpressure or the per-tenant
/// rate limiter comes back as kRejected with its reason. A connection
/// that drops — cleanly or not — has all its in-flight queries cancelled
/// and their outcomes dropped: abandoned work never outlives its
/// requester. A malformed frame gets one kError frame and the same
/// cancel-and-close treatment.
///
/// POSIX-only (epoll on Linux, poll elsewhere); Start() reports Internal
/// on unsupported platforms.
class MatchServer {
 public:
  /// Serves `data` as the single catalog graph "default". `data` must
  /// outlive the server; it is borrowed, not copied or re-indexed.
  MatchServer(const IndexedHypergraph& data, const ServerOptions& options);

  /// Serves `graphs` (indexed at Start(); the first is the default).
  /// Duplicate or empty names fail Start(), not construction.
  MatchServer(std::vector<NamedGraph> graphs, const ServerOptions& options);

  /// Stops and joins (cancelling in-flight queries of open connections).
  ~MatchServer();

  MatchServer(const MatchServer&) = delete;
  MatchServer& operator=(const MatchServer&) = delete;

  /// Binds, listens and launches the IO threads. Call once.
  Status Start();

  /// The bound port (resolves option port 0); valid after Start().
  uint16_t port() const;

  /// The bound /metrics port (resolves option metrics_port 0); valid
  /// after Start(), 0 when the endpoint is disabled.
  uint16_t metrics_port() const;

  /// Blocks until every IO thread exits: Stop(), or a remote shutdown
  /// when ServerOptions::allow_remote_shutdown is set.
  void Wait();

  /// Wait with a budget; true when the loops exited within it.
  bool WaitFor(double seconds);

  /// Stops serving: wakes every loop, cancels in-flight queries, closes
  /// every socket and joins the IO threads. Idempotent.
  void Stop();

  /// Statistics snapshot, equivalent to a kStats round-trip.
  WireStats Stats() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hgmatch

#endif  // HGMATCH_NET_SERVER_H_
