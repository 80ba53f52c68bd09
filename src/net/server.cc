#include "net/server.h"

#include "io/binary_format.h"
#include "io/loader.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/catalog.h"

#if defined(__unix__) || defined(__APPLE__)
#define HGMATCH_HAVE_SOCKETS 1
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#if HGMATCH_HAVE_SOCKETS
#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "net/reactor.h"
#include "net/socket_util.h"
#endif

namespace hgmatch {

#if HGMATCH_HAVE_SOCKETS

namespace {

using net_internal::SendBytes;

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

class MatchServer::Impl {
 public:
  Impl(const IndexedHypergraph& data, const ServerOptions& options)
      : options_(Normalize(options)),
        catalog_(options_.service),
        shared_data_(&data) {}

  Impl(std::vector<NamedGraph> graphs, const ServerOptions& options)
      : options_(Normalize(options)),
        catalog_(options_.service),
        preload_(std::move(graphs)) {}

  ~Impl() { Stop(); }

  Status Start() {
    // Preloads happen here, not at construction, so a duplicate name or
    // an empty graph list is a reportable Start() failure.
    if (shared_data_ != nullptr) {
      Status s = catalog_.LoadShared("default", *shared_data_);
      if (!s.ok()) return s;
    }
    for (NamedGraph& g : preload_) {
      Status s = catalog_.Load(g.name, std::move(g.data));
      if (!s.ok()) return s;
    }
    preload_.clear();
    if (catalog_.NumGraphs() == 0) {
      return Status::InvalidArgument("no graph to serve");
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::IOError("socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      CloseListen();
      return Status::InvalidArgument("bad listen address " + options_.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      CloseListen();
      return Status::IOError("cannot bind " + options_.host + ":" +
                             std::to_string(options_.port));
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len);
    port_ = ntohs(bound.sin_port);
    if (::listen(listen_fd_, SOMAXCONN) != 0 || !SetNonBlocking(listen_fd_)) {
      CloseListen();
      return Status::IOError("cannot listen on " + options_.host);
    }
    if (options_.metrics_port >= 0) {
      Status ms = OpenMetricsListener();
      if (!ms.ok()) {
        CloseListen();
        return ms;
      }
    }
    start_mono_ = MonotonicSeconds();
    // Every loop is initialised before any thread launches, so the
    // acceptor may Post() adoptions into a sibling loop from its very
    // first pass.
    io_.reserve(options_.io_threads);
    for (uint32_t i = 0; i < options_.io_threads; ++i) {
      auto t = std::make_unique<IoThread>();
      t->index = i;
      Status init = t->loop.Init();
      if (!init.ok()) {
        io_.clear();
        CloseListen();
        CloseMetrics();
        return init;
      }
      io_.push_back(std::move(t));
    }
    for (auto& t : io_) {
      IoThread* raw = t.get();
      raw->thread = std::thread([this, raw] {
        RunLoop(raw);
        NotifyExit();
      });
    }
    return Status::OK();
  }

  uint16_t port() const { return port_; }

  uint16_t metrics_port() const { return metrics_port_; }

  void Wait() {
    std::unique_lock<std::mutex> lock(exit_mutex_);
    exit_cv_.wait(lock, [this] { return exited_; });
  }

  bool WaitFor(double seconds) {
    std::unique_lock<std::mutex> lock(exit_mutex_);
    return exit_cv_.wait_for(lock,
                             std::chrono::duration<double>(
                                 seconds > 0 ? seconds : 0),
                             [this] { return exited_; });
  }

  void Stop() {
    stop_requested_.store(true, std::memory_order_release);
    for (auto& t : io_) t->loop.Wake();
    for (auto& t : io_) {
      if (t->thread.joinable()) t->thread.join();
    }
    // Thread 0 closes the listeners on exit; this covers Start() failure
    // paths and the never-started server.
    CloseListen();
    CloseMetrics();
    // The loops cancelled whatever was still in flight on exit; those
    // queries resolve asynchronously and their completion hooks post into
    // the stopped loops. Shut the catalog down *before* the loops are
    // destroyed so no straggler hook can write into a recycled descriptor
    // (Shutdown blocks until every outcome resolved and every hook
    // returned; it is idempotent, so the destructor chain repeating it is
    // harmless).
    catalog_.Shutdown();
  }

  WireStats Stats() {
    WireStats s;
    s.num_threads = catalog_.num_threads();
    s.connections = connections_.load(std::memory_order_relaxed);
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.rate_limited = rate_limited_.load(std::memory_order_relaxed);
    s.cancelled_by_disconnect =
        cancelled_by_disconnect_.load(std::memory_order_relaxed);
    s.inflight = inflight_.load(std::memory_order_relaxed);
    const ServiceGauges gauges = catalog_.Gauges();
    s.service_finished = gauges.finished;
    s.service_live_contexts = gauges.live_contexts;
    s.graphs = GraphRows();
    s.monotonic_seconds = MonotonicSeconds();
    if (start_mono_ > 0) s.uptime_seconds = s.monotonic_seconds - start_mono_;
    {
      std::lock_guard<std::mutex> lock(slow_mutex_);
      if (slow_queries_.size() < kSlowRingCapacity) {
        s.slow_queries = slow_queries_;
      } else {
        // Full ring: unroll oldest-first.
        s.slow_queries.reserve(kSlowRingCapacity);
        for (size_t i = 0; i < kSlowRingCapacity; ++i) {
          s.slow_queries.push_back(
              slow_queries_[(slow_next_ + i) % kSlowRingCapacity]);
        }
      }
    }
    s.io_threads.reserve(io_.size());
    for (const auto& t : io_) {
      WireIoThreadStats row;
      row.connections = t->st_connections.load(std::memory_order_relaxed);
      row.frames_in = t->st_frames_in.load(std::memory_order_relaxed);
      row.frames_out = t->st_frames_out.load(std::memory_order_relaxed);
      row.bytes_in = t->st_bytes_in.load(std::memory_order_relaxed);
      row.bytes_out = t->st_bytes_out.load(std::memory_order_relaxed);
      row.rejects = t->st_rejects.load(std::memory_order_relaxed);
      s.io_threads.push_back(row);
    }
    return s;
  }

 private:
  struct Conn {
    int fd = -1;
    // Never reused on its IO thread: a posted outcome names its connection
    // by fd and serial, so an outcome for a dropped connection whose fd was
    // recycled finds another serial and is skipped.
    uint64_t serial = 0;
    FrameReader reader;
    std::string outbuf;
    size_t out_sent = 0;  // prefix of outbuf already on the wire
    std::unordered_map<uint64_t, CatalogTicket> inflight;
    // Registered readiness mask; tracked so interest updates only hit the
    // poller when they change.
    uint32_t interest = 0;
    // The connection is ending (protocol error answered with kError, or
    // peer EOF): in-flight queries are already cancelled; flush whatever
    // replies were earned, then close.
    bool draining = false;
    // Peer EOF seen: stop asking for readability (a closed peer reports
    // readable forever).
    bool peer_closed = false;
    // Close now, flush nothing (socket error or buffer-bound violation).
    bool dead = false;
    // The peer's kHello arrived; until then every other frame is a
    // protocol error.
    bool hello = false;
    // Feature bits granted to this peer by the kHello exchange.
    uint32_t features = 0;
    // Encoded OUTCOME entries earned this reactor pass, coalesced into
    // kOutcome frames once per pass (FlushReplies).
    std::vector<std::string> replies;
  };

  // One reactor thread: an event loop plus every piece of protocol state
  // of the connections pinned to it. Everything except `loop` (internally
  // synchronised) and the stats row (atomics, single writer) is touched by
  // the owning thread only.
  struct IoThread {
    uint32_t index = 0;
    EventLoop loop;
    std::thread thread;

    // Loop-thread-only state.
    std::vector<std::unique_ptr<Conn>> conns;
    std::unordered_map<int, Conn*> by_fd;
    uint64_t last_serial = 0;  // Conn::serial of the latest adoption

    // Per-thread stats row (kStatsReply): one writer, racing readers.
    std::atomic<uint64_t> st_connections{0};
    std::atomic<uint64_t> st_frames_in{0};
    std::atomic<uint64_t> st_frames_out{0};
    std::atomic<uint64_t> st_bytes_in{0};
    std::atomic<uint64_t> st_bytes_out{0};
    std::atomic<uint64_t> st_rejects{0};
  };

  // Per-tenant token bucket of the edge rate limiter.
  struct TokenBucket {
    double tokens = 0;
    std::chrono::steady_clock::time_point last;
  };

  static ServerOptions Normalize(ServerOptions options) {
    options.io_threads = std::max<uint32_t>(1, options.io_threads);
    return options;
  }

  // Catalog snapshot as wire rows (kStatsReply / kCatalogReply).
  std::vector<WireGraphStats> GraphRows() {
    std::vector<WireGraphStats> rows;
    for (const CatalogGraphInfo& g : catalog_.List()) {
      WireGraphStats row;
      row.name = g.name;
      row.is_default = g.is_default;
      row.queries = g.queries;
      row.live_tickets = g.live_tickets;
      row.index_bytes = g.index_bytes;
      rows.push_back(std::move(row));
    }
    return rows;
  }

  // Edge rate limiter: one token per SUBMIT, refilled at
  // max_submits_per_sec with a one-second burst allowance. Rejections do
  // not consume tokens. The bucket map is the only shared state on the
  // submit path; the critical section is a handful of arithmetic ops.
  bool AllowSubmit(uint32_t tenant_id) {
    const double rate = options_.max_submits_per_sec;
    const double burst = std::max(rate, 1.0);
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(rate_mutex_);
    auto [it, inserted] =
        buckets_.try_emplace(tenant_id, TokenBucket{burst, now});
    TokenBucket& bucket = it->second;
    if (!inserted) {
      const double elapsed =
          std::chrono::duration<double>(now - bucket.last).count();
      bucket.tokens = std::min(burst, bucket.tokens + elapsed * rate);
      bucket.last = now;
    }
    // Amortised prune: a bucket back at full burst carries no state a
    // fresh one would not, so forgetting it keeps the map bounded by
    // *active* tenants even when a hostile peer mints tenant ids.
    if (++rate_ops_ % 256 == 0) {
      for (auto pit = buckets_.begin(); pit != buckets_.end();) {
        if (pit == it) {
          ++pit;
          continue;
        }
        const double refilled =
            pit->second.tokens +
            std::chrono::duration<double>(now - pit->second.last).count() *
                rate;
        pit = refilled >= burst ? buckets_.erase(pit) : std::next(pit);
      }
    }
    if (bucket.tokens < 1.0) return false;
    bucket.tokens -= 1.0;
    return true;
  }

  void CloseListen() {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }

  // Closes the listener from its owning loop (thread 0). Other threads
  // reach this through a posted task.
  void CloseListenFrom(IoThread* t0) {
    if (listen_fd_ >= 0) {
      t0->loop.Remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }

  void CloseMetrics() {
    if (metrics_fd_ >= 0) {
      ::close(metrics_fd_);
      metrics_fd_ = -1;
    }
  }

  void CloseMetricsFrom(IoThread* t0) {
    if (metrics_fd_ >= 0) {
      t0->loop.Remove(metrics_fd_);
      ::close(metrics_fd_);
      metrics_fd_ = -1;
    }
  }

  // Second listener of the Prometheus endpoint, same address as the wire
  // port, served by IO thread 0's loop.
  Status OpenMetricsListener() {
    if (options_.metrics_port > 65535) {
      return Status::InvalidArgument("bad metrics port " +
                                     std::to_string(options_.metrics_port));
    }
    metrics_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (metrics_fd_ < 0) return Status::IOError("socket() failed");
    const int one = 1;
    ::setsockopt(metrics_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.metrics_port));
    ::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr);
    if (::bind(metrics_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      CloseMetrics();
      return Status::IOError("cannot bind metrics port " +
                             std::to_string(options_.metrics_port));
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    ::getsockname(metrics_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len);
    metrics_port_ = ntohs(bound.sin_port);
    if (::listen(metrics_fd_, 16) != 0 || !SetNonBlocking(metrics_fd_)) {
      CloseMetrics();
      return Status::IOError("cannot listen on metrics port");
    }
    return Status::OK();
  }

  // Gauges only the server knows, appended to the registry render at
  // scrape time (no callback plumbing, no stale cached values).
  void AppendServerGauges(std::string* out) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "# TYPE hgmatch_server_uptime_seconds gauge\n"
                  "hgmatch_server_uptime_seconds %.6f\n",
                  start_mono_ > 0 ? MonotonicSeconds() - start_mono_ : 0.0);
    out->append(line);
    std::snprintf(line, sizeof(line),
                  "# TYPE hgmatch_server_connections gauge\n"
                  "hgmatch_server_connections %llu\n",
                  static_cast<unsigned long long>(
                      connections_.load(std::memory_order_relaxed)));
    out->append(line);
    std::snprintf(line, sizeof(line),
                  "# TYPE hgmatch_server_inflight_queries gauge\n"
                  "hgmatch_server_inflight_queries %llu\n",
                  static_cast<unsigned long long>(
                      inflight_.load(std::memory_order_relaxed)));
    out->append(line);
  }

  std::string BuildMetricsResponse(std::string_view request) {
    const char* status = "200 OK";
    std::string body;
    const size_t sp1 = request.find(' ');
    const size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : request.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos) {
      status = "400 Bad Request";
      body = "bad request\n";
    } else if (request.substr(0, sp1) != "GET") {
      status = "405 Method Not Allowed";
      body = "method not allowed\n";
    } else {
      const std::string_view path =
          request.substr(sp1 + 1, sp2 - sp1 - 1);
      if (path != "/metrics" && path != "/") {
        status = "404 Not Found";
        body = "try /metrics\n";
      } else {
        body = MetricsRegistry::Default().RenderPrometheus();
        AppendServerGauges(&body);
      }
    }
    char header[192];
    std::snprintf(header, sizeof(header),
                  "HTTP/1.0 %s\r\n"
                  "Content-Type: text/plain; version=0.0.4\r\n"
                  "Content-Length: %llu\r\n"
                  "Connection: close\r\n\r\n",
                  status, static_cast<unsigned long long>(body.size()));
    return std::string(header) + body;
  }

  // Answers every pending scrape connection. One short blocking exchange
  // per scrape on IO thread 0: the request is one packet and the response
  // a few kilobytes, so a bounded stall (1 s socket deadlines) beats a
  // dedicated exposition thread. Accepted sockets do not inherit
  // O_NONBLOCK from the listener, so the deadlines actually bound the
  // exchange.
  void ServeMetricsConnections() {
    while (metrics_fd_ >= 0) {
      const int fd = ::accept(metrics_fd_, nullptr, nullptr);
      if (fd < 0) break;
      timeval deadline{};
      deadline.tv_sec = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &deadline,
                   sizeof(deadline));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &deadline,
                   sizeof(deadline));
      char request[1024];
      const ssize_t got = ::read(fd, request, sizeof(request) - 1);
      if (got > 0) {
        const std::string response = BuildMetricsResponse(
            std::string_view(request, static_cast<size_t>(got)));
        (void)SendBytes(fd, response.data(), response.size());
      }
      ::close(fd);
    }
  }

  void SendFrame(IoThread* t, Conn* conn, FrameType type,
                 std::string_view payload) {
    AppendFrame(type, payload, &conn->outbuf);
    t->st_frames_out.fetch_add(1, std::memory_order_relaxed);
  }

  // SendFrame for reply types a negotiated peer may receive compressed
  // (outcomes, stats, catalog replies). PONG stays raw — it is a latency
  // probe — and kError stays raw so even a peer with a broken codec can
  // read its eviction notice.
  void SendFrameNegotiated(IoThread* t, Conn* conn, FrameType type,
                           std::string_view payload) {
    const size_t before = conn->outbuf.size();
    AppendFrameMaybeCompressed(type, payload,
                               (conn->features & kFeatureCompression) != 0,
                               &conn->outbuf);
    // Raw payload bytes vs what actually hit the buffer (codec output
    // plus frame headers): the pair makes compression wins measurable.
    metric_reply_raw_bytes_->Add(payload.size());
    metric_reply_wire_bytes_->Add(conn->outbuf.size() - before);
    t->st_frames_out.fetch_add(1, std::memory_order_relaxed);
  }

  // Sends the outcome entries a peer earned this pass as kOutcome frames,
  // as few as the payload bound allows: one pass can earn more than a
  // frame holds (a large kSubmit whose entries all resolve in Submit). Runs
  // before every output flush, so replies are never pinned behind an idle
  // wait.
  void FlushReplies(IoThread* t, Conn* conn) {
    if (conn->replies.empty()) return;
    metric_batch_replies_->Observe(static_cast<double>(conn->replies.size()));
    std::span<const std::string> rest(conn->replies);
    while (!rest.empty()) {
      // An outcome entry is ~150 bytes, so every frame takes at least one.
      const size_t n = std::max<size_t>(1, FittingEntries(rest));
      SendFrameNegotiated(t, conn, FrameType::kOutcome,
                          EncodeEntryList(rest.first(n)));
      rest = rest.subspan(n);
    }
    conn->replies.clear();
  }

  // Cancels and forgets every in-flight query of a dying connection. Their
  // outcomes still arrive as posted tasks, find no in-flight entry and are
  // skipped. Only the queries the cancel stopped count as cancelled; one
  // that had already finished is simply not delivered.
  void CancelConnQueries(Conn* conn) {
    if (conn->inflight.empty()) return;
    inflight_.fetch_sub(conn->inflight.size(), std::memory_order_relaxed);
    uint64_t cancelled = 0;
    for (auto& [id, ct] : conn->inflight) cancelled += catalog_.Cancel(ct);
    cancelled_by_disconnect_.fetch_add(cancelled, std::memory_order_relaxed);
    conn->inflight.clear();
  }

  // Runs on the loop thread for every outcome a completion hook posted:
  // delivers it when its connection — same fd, same serial — still waits
  // for the request id. A dropped connection, a recycled fd and an id its
  // connection already cancelled away are all skipped here.
  void DeliverPosted(IoThread* t, int fd, uint64_t serial,
                     uint64_t request_id, const QueryOutcome& outcome,
                     uint32_t tenant_id, const std::string& graph,
                     double posted_seconds) {
    auto lookup = t->by_fd.find(fd);
    if (lookup == t->by_fd.end() || lookup->second->serial != serial) return;
    Conn* conn = lookup->second;
    if (conn->inflight.erase(request_id) == 0) return;
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    metric_delivery_->Observe(MonotonicSeconds() - posted_seconds);
    DeliverOutcome(t, conn, request_id, outcome, tenant_id, graph);
  }

  // Queues one finished query's reply on its connection. Tenant and graph
  // only attribute the slow-query ring entry; delivery needs neither.
  void DeliverOutcome(IoThread* t, Conn* conn, uint64_t request_id,
                      const QueryOutcome& outcome, uint32_t tenant_id,
                      const std::string& graph) {
    if (outcome.status == QueryStatus::kRejected) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      t->st_rejects.fetch_add(1, std::memory_order_relaxed);
      SendFrame(t, conn, FrameType::kRejected,
                EncodeRejected({request_id, RejectReason::kQueueFull}));
    } else {
      completed_.fetch_add(1, std::memory_order_relaxed);
      WireOutcome wire{request_id, outcome, RejectReason::kQueueFull};
      if (wire.outcome.span.enabled) {
        wire.outcome.span.deliver_seconds = MonotonicSeconds();
        RecordSlowQuery(wire.outcome.span, request_id, tenant_id, graph);
      }
      conn->replies.push_back(
          EncodeOutcome(wire, (conn->features & kFeatureTrace) != 0));
    }
  }

  // Records one finished span in the slow-query ring when it crosses the
  // configured threshold (most recent kSlowRingCapacity entries win).
  void RecordSlowQuery(const QuerySpan& span, uint64_t request_id,
                       uint32_t tenant_id, const std::string& graph) {
    if (options_.slow_query_ms <= 0) return;
    const double total = span.TotalSeconds();
    if (total * 1000.0 < options_.slow_query_ms) return;
    WireSlowQuery row;
    row.request_id = request_id;
    row.tenant_id = tenant_id;
    row.graph = graph.empty() ? "default" : graph;
    row.total_seconds = total;
    if (span.submit_seconds > 0 && span.admit_seconds > 0) {
      row.queue_seconds = span.admit_seconds - span.submit_seconds;
    }
    if (span.first_task_seconds > 0 && span.last_task_seconds > 0) {
      row.run_seconds = span.last_task_seconds - span.first_task_seconds;
    }
    if (span.resolve_seconds > 0 && span.deliver_seconds > 0) {
      row.deliver_seconds = span.deliver_seconds - span.resolve_seconds;
    }
    std::lock_guard<std::mutex> lock(slow_mutex_);
    if (slow_queries_.size() < kSlowRingCapacity) {
      slow_queries_.push_back(std::move(row));
    } else {
      slow_queries_[slow_next_ % kSlowRingCapacity] = std::move(row);
    }
    ++slow_next_;
  }

  // Every catalog verb answers with one kCatalogReply carrying the verb's
  // outcome and the post-verb graph list.
  void SendCatalogReply(IoThread* t, Conn* conn, const Status& status) {
    WireCatalogReply reply;
    reply.ok = status.ok();
    if (!status.ok()) reply.message = status.message();
    reply.graphs = GraphRows();
    SendFrameNegotiated(t, conn, FrameType::kCatalogReply,
                        EncodeCatalogReply(reply));
  }

  // A submission naming a graph the catalog doesn't host: answered with a
  // typed kRejected frame so the connection (and the rest of its frame)
  // survives.
  void RejectUnknownGraph(IoThread* t, Conn* conn, uint64_t request_id) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    t->st_rejects.fetch_add(1, std::memory_order_relaxed);
    SendFrame(t, conn, FrameType::kRejected,
              EncodeRejected({request_id, RejectReason::kUnknownGraph}));
  }

  void ProtocolError(IoThread* t, Conn* conn, const std::string& message) {
    if (conn->draining) return;
    // Replies earned before the offending frame still go out, ahead of
    // the error notice.
    FlushReplies(t, conn);
    SendFrame(t, conn, FrameType::kError, message);
    CancelConnQueries(conn);
    conn->draining = true;
  }

  // Extracts the remotely-settable SubmitOptions fields of one decoded
  // submission (hostile floats are clamped to the server defaults) and
  // hangs the hook that delivers its outcome.
  SubmitOptions SubmitOptionsFor(IoThread* t, const Conn* conn,
                                 const WireSubmit& ws) {
    SubmitOptions so;
    so.tenant_id = ws.tenant_id;
    so.priority = ws.priority;
    so.weight = std::isfinite(ws.weight) ? ws.weight : 1.0;
    so.timeout_seconds =
        std::isfinite(ws.timeout_seconds) ? ws.timeout_seconds : -1;
    so.limit = ws.limit;
    // Span capture: for the peer when it negotiated tracing, for the
    // slow-query ring when that is armed (the ring needs spans whether or
    // not the peer asked to see them).
    so.trace = (conn->features & kFeatureTrace) != 0 ||
               options_.slow_query_ms > 0;
    // The hook runs on whichever thread finalised the outcome — a pool
    // worker, or this loop inside Submit/Cancel for shed, plan-error,
    // mirrored and cancelled-while-queued queries — and only posts it to
    // the owning loop. The loop runs the task after this frame's entries
    // are in conn->inflight, so every outcome takes the same path.
    so.completion = [this, t, fd = conn->fd, serial = conn->serial,
                     request_id = ws.request_id, tenant_id = ws.tenant_id,
                     graph = ws.graph](const QueryOutcome& outcome) {
      t->loop.Post([this, t, fd, serial, request_id, outcome, tenant_id,
                    graph, posted = MonotonicSeconds()] {
        DeliverPosted(t, fd, serial, request_id, outcome, tenant_id, graph,
                      posted);
      });
    };
    return so;
  }

  // A request id of `submits` already in flight on the connection or
  // repeated within the frame.
  static std::optional<uint64_t> DuplicateRequestId(
      const Conn* conn, const std::vector<WireSubmit>& submits) {
    for (const WireSubmit& ws : submits) {
      if (conn->inflight.count(ws.request_id) != 0) return ws.request_id;
    }
    if (submits.size() < 2) return std::nullopt;
    std::vector<uint64_t> ids;
    ids.reserve(submits.size());
    for (const WireSubmit& ws : submits) ids.push_back(ws.request_id);
    std::sort(ids.begin(), ids.end());
    const auto dup = std::adjacent_find(ids.begin(), ids.end());
    if (dup == ids.end()) return std::nullopt;
    return *dup;
  }

  // Admits one frame's decoded entries. The rate limiter sits at the very
  // edge and counts entries, however framed: an over-limit tenant is
  // answered before its query touches planning or admission. The
  // survivors go to the catalog in one call per run of consecutive entries
  // naming the same graph, so a one-graph frame (every one-entry frame
  // among them) is one admission pass.
  void AdmitSubmits(IoThread* t, Conn* conn,
                    std::vector<WireSubmit>& submits) {
    size_t kept = 0;
    for (WireSubmit& ws : submits) {
      if (options_.max_submits_per_sec > 0 && !AllowSubmit(ws.tenant_id)) {
        rate_limited_.fetch_add(1, std::memory_order_relaxed);
        t->st_rejects.fetch_add(1, std::memory_order_relaxed);
        SendFrame(t, conn, FrameType::kRejected,
                  EncodeRejected({ws.request_id, RejectReason::kRateLimited}));
        continue;
      }
      if (&ws != &submits[kept]) submits[kept] = std::move(ws);
      ++kept;
    }
    for (size_t begin = 0; begin < kept;) {
      const std::string& graph = submits[begin].graph;
      size_t end = begin + 1;
      while (end < kept && submits[end].graph == graph) ++end;
      std::vector<BatchSubmission> run;
      run.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        run.push_back({std::move(submits[i].query),
                       SubmitOptionsFor(t, conn, submits[i])});
      }
      Result<std::vector<CatalogTicket>> tickets =
          catalog_.Submit(graph, std::move(run));
      if (!tickets.ok()) {
        // Unknown/unloading graph: a typed reject on a healthy
        // connection, not a protocol error — the client may simply be
        // racing an unload and can re-route.
        for (size_t i = begin; i < end; ++i) {
          RejectUnknownGraph(t, conn, submits[i].request_id);
        }
      } else {
        submitted_.fetch_add(end - begin, std::memory_order_relaxed);
        inflight_.fetch_add(end - begin, std::memory_order_relaxed);
        for (size_t i = begin; i < end; ++i) {
          conn->inflight.emplace(submits[i].request_id,
                                 std::move(tickets.value()[i - begin]));
        }
      }
      begin = end;
    }
  }

  // Connection teardown is signalled through conn->draining, never by a
  // return value.
  void HandleFrame(IoThread* t, Conn* conn, FrameReader::Frame& frame) {
    t->st_frames_in.fetch_add(1, std::memory_order_relaxed);
    if (!conn->hello && frame.type != FrameType::kHello) {
      ProtocolError(t, conn, "HELLO must be the first frame");
      return;
    }
    switch (frame.type) {
      case FrameType::kSubmit: {
        Result<std::vector<std::string_view>> entries =
            DecodeEntryList(frame.payload);
        if (!entries.ok()) {
          ProtocolError(t, conn, entries.status().message());
          return;
        }
        // Decode and validate every entry before admitting any of it: a
        // malformed entry or a reused request id poisons the frame and the
        // connection.
        std::vector<WireSubmit> submits;
        submits.reserve(entries.value().size());
        for (const std::string_view entry : entries.value()) {
          Result<WireSubmit> submit = DecodeSubmit(entry);
          if (!submit.ok()) {
            ProtocolError(t, conn, submit.status().message());
            return;
          }
          submits.push_back(std::move(submit).value());
        }
        if (const std::optional<uint64_t> id =
                DuplicateRequestId(conn, submits)) {
          ProtocolError(t, conn, "duplicate request id " + std::to_string(*id));
          return;
        }
        metric_batch_submits_->Observe(static_cast<double>(submits.size()));
        AdmitSubmits(t, conn, submits);
        return;
      }
      case FrameType::kHello: {
        Result<uint32_t> requested = DecodeFeatures(frame.payload);
        if (!requested.ok()) {
          ProtocolError(t, conn, requested.status().message());
          return;
        }
        // Tracing is always granted; compression is an operator decision
        // (ServerOptions::enable_compression). Unknown requested bits are
        // simply not granted.
        uint32_t granted = requested.value() & kFeatureTrace;
        if (options_.enable_compression) {
          granted |= requested.value() & kFeatureCompression;
        }
        conn->hello = true;
        conn->features = granted;
        SendFrame(t, conn, FrameType::kHelloReply, EncodeFeatures(granted));
        return;
      }
      case FrameType::kCompressed: {
        if ((conn->features & kFeatureCompression) == 0) {
          ProtocolError(t, conn,
                        "COMPRESSED frame without negotiated compression");
          return;
        }
        FrameReader::Frame inner;
        Result<FrameType> type =
            DecodeCompressedFrame(frame.payload, &inner.payload);
        if (!type.ok()) {
          ProtocolError(t, conn, type.status().message());
          return;
        }
        inner.type = type.value();
        // One level only: DecodeCompressedFrame rejects a nested
        // kCompressed inner type, so this recursion terminates.
        HandleFrame(t, conn, inner);
        return;
      }
      case FrameType::kCancel: {
        Result<uint64_t> id = DecodeRequestId(frame.payload);
        if (!id.ok()) {
          ProtocolError(t, conn, id.status().message());
          return;
        }
        auto it = conn->inflight.find(id.value());
        // Unknown ids are ignored: the cancel raced the outcome. A
        // cancelled query delivers through its hook like any other.
        if (it != conn->inflight.end()) catalog_.Cancel(it->second);
        return;
      }
      case FrameType::kLoadGraph: {
        Result<WireCatalogRequest> req = DecodeCatalogRequest(frame.payload);
        if (!req.ok()) {
          ProtocolError(t, conn, req.status().message());
          return;
        }
        if (!options_.allow_remote_load) {
          SendCatalogReply(t, conn, Status::InvalidArgument(
                                        "remote graph loading is disabled"));
          return;
        }
        // Read + index on the IO thread: a load stalls this thread's
        // connections for the duration, which an operator issuing one
        // accepts; query execution on sibling threads and the pool is
        // unaffected.
        Result<Hypergraph> data = LoadHypergraphBinary(req.value().path);
        if (!data.ok()) {
          SendCatalogReply(t, conn, data.status());
          return;
        }
        SendCatalogReply(
            t, conn,
            catalog_.Load(req.value().name, std::move(data).value()));
        return;
      }
      case FrameType::kUnloadGraph: {
        Result<WireCatalogRequest> req = DecodeCatalogRequest(frame.payload);
        if (!req.ok()) {
          ProtocolError(t, conn, req.status().message());
          return;
        }
        // Non-blocking: the graph stops taking submissions now and is
        // freed by a later catalog pass once its in-flight tickets
        // resolve — an IO thread must not sit in a drain wait.
        SendCatalogReply(t, conn,
                         catalog_.Unload(req.value().name, /*wait=*/false));
        return;
      }
      case FrameType::kListGraphs:
        SendCatalogReply(t, conn, Status::OK());
        return;
      case FrameType::kPing:
        SendFrame(t, conn, FrameType::kPong, frame.payload);
        return;
      case FrameType::kStats:
        SendFrameNegotiated(t, conn, FrameType::kStatsReply,
                            EncodeStats(Stats()));
        return;
      case FrameType::kShutdown:
        if (options_.allow_remote_shutdown) {
          shutting_down_.store(true, std::memory_order_release);
          // The listener belongs to thread 0's loop; close it there.
          if (t->index == 0) {
            CloseListenFrom(t);
          } else {
            IoThread* t0 = io_[0].get();
            t0->loop.Post([this, t0] { CloseListenFrom(t0); });
          }
          for (auto& other : io_) other->loop.Wake();
        } else {
          ProtocolError(t, conn, "remote shutdown is disabled");
        }
        return;
      default:
        // Server-bound streams must not carry server->client frames.
        ProtocolError(t, conn, "unexpected frame type");
        return;
    }
  }

  // Reads everything available and handles the complete frames; true when
  // the peer closed its end. A clean EOF still parses what arrived first,
  // so a peer that pipelines frames and closes loses nothing.
  bool ReadConn(IoThread* t, Conn* conn) {
    char buffer[1 << 16];
    bool peer_closed = false;
    while (true) {
      const ssize_t got = ::read(conn->fd, buffer, sizeof(buffer));
      if (got > 0) {
        t->st_bytes_in.fetch_add(static_cast<uint64_t>(got),
                                 std::memory_order_relaxed);
        metric_bytes_in_->Add(static_cast<uint64_t>(got));
        conn->reader.Feed(buffer, static_cast<size_t>(got));
        if (static_cast<size_t>(got) < sizeof(buffer)) break;
        continue;
      }
      if (got == 0) {  // clean EOF
        peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return true;
    }
    if (!conn->draining) {  // ignore bytes after an error
      FrameReader::Frame frame;
      while (true) {
        Result<bool> next = conn->reader.Next(&frame);
        if (!next.ok()) {
          ProtocolError(t, conn, next.status().message());
          break;
        }
        if (!next.value()) break;
        HandleFrame(t, conn, frame);
        if (conn->draining) break;
      }
    }
    return peer_closed;
  }

  // Flushes as much buffered output as the socket accepts; marks the
  // connection dead on a write error or when a peer that stopped reading
  // pins more buffered bytes than the configured bound.
  void FlushConn(IoThread* t, Conn* conn) {
    while (conn->out_sent < conn->outbuf.size()) {
      const ssize_t sent =
          SendBytes(conn->fd, conn->outbuf.data() + conn->out_sent,
                    conn->outbuf.size() - conn->out_sent);
      if (sent > 0) {
        conn->out_sent += static_cast<size_t>(sent);
        t->st_bytes_out.fetch_add(static_cast<uint64_t>(sent),
                                  std::memory_order_relaxed);
        metric_bytes_out_->Add(static_cast<uint64_t>(sent));
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn->dead = true;
      return;
    }
    if (conn->out_sent == conn->outbuf.size()) {
      conn->outbuf.clear();
      conn->out_sent = 0;
    }
    if (conn->outbuf.size() - conn->out_sent >
        options_.max_connection_buffer) {
      conn->dead = true;
    }
  }

  // Accepts everything pending (thread 0 only — it owns the listener) and
  // distributes the connections across the IO threads by fd hash. Remote
  // adoptions travel as posted tasks and land inside the target's next
  // Wait(), before its readiness events.
  void AcceptConnections(IoThread* t) {
    while (listen_fd_ >= 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;  // EAGAIN and friends: done for this pass
      if (!SetNonBlocking(fd)) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (connections_.load(std::memory_order_relaxed) >=
          options_.max_connections) {
        // Turn the connection away loudly (best-effort write on a fresh
        // socket buffer) instead of hanging it.
        std::string frame;
        AppendFrame(FrameType::kError, "server is at max connections",
                    &frame);
        (void)SendBytes(fd, frame.data(), frame.size());
        ::close(fd);
        continue;
      }
      // Counted at accept time so the bound holds while the adoption is
      // still in flight to its owning thread.
      connections_.fetch_add(1, std::memory_order_relaxed);
      IoThread* target = io_[static_cast<size_t>(fd) % io_.size()].get();
      if (target == t) {
        AdoptConn(target, fd);
      } else {
        target->loop.Post([this, target, fd] { AdoptConn(target, fd); });
      }
    }
  }

  // Runs on the owning thread: from here on, only that thread touches the
  // connection.
  void AdoptConn(IoThread* t, int fd) {
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->serial = ++t->last_serial;
    conn->interest = EventLoop::kReadable;
    if (!t->loop.Add(fd, conn->interest).ok()) {
      ::close(fd);
      connections_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    t->by_fd[fd] = conn.get();
    t->conns.push_back(std::move(conn));
    t->st_connections.fetch_add(1, std::memory_order_relaxed);
  }

  void DropConnAt(IoThread* t, size_t i) {
    Conn* conn = t->conns[i].get();
    CancelConnQueries(conn);
    t->loop.Remove(conn->fd);
    ::close(conn->fd);
    t->by_fd.erase(conn->fd);
    t->conns.erase(t->conns.begin() + i);
    connections_.fetch_sub(1, std::memory_order_relaxed);
    t->st_connections.fetch_sub(1, std::memory_order_relaxed);
  }

  void SweepConns(IoThread* t) {
    for (size_t i = 0; i < t->conns.size();) {
      Conn* conn = t->conns[i].get();
      if (conn->dead ||
          (conn->draining && conn->out_sent == conn->outbuf.size())) {
        DropConnAt(t, i);
      } else {
        ++i;
      }
    }
  }

  void UpdateInterest(IoThread* t) {
    for (auto& conn : t->conns) {
      uint32_t want = 0;
      if (!conn->peer_closed && !conn->draining) {
        want |= EventLoop::kReadable;
      }
      if (conn->out_sent < conn->outbuf.size()) {
        want |= EventLoop::kWritable;
      }
      if (want != conn->interest &&
          t->loop.Modify(conn->fd, want).ok()) {
        conn->interest = want;
      }
    }
  }

  void RunLoop(IoThread* t) {
    if (t->index == 0 && listen_fd_ >= 0) {
      t->loop.Add(listen_fd_, EventLoop::kReadable);
    }
    if (t->index == 0 && metrics_fd_ >= 0) {
      t->loop.Add(metrics_fd_, EventLoop::kReadable);
    }
    std::vector<EventLoop::Event> events;
    while (true) {
      if (stop_requested_.load(std::memory_order_acquire)) break;
      for (auto& conn : t->conns) {
        if (conn->dead) continue;
        FlushReplies(t, conn.get());
        if (conn->out_sent < conn->outbuf.size()) {
          FlushConn(t, conn.get());
        }
      }
      SweepConns(t);
      if (shutting_down_.load(std::memory_order_acquire)) {
        // Graceful remote shutdown: finish in-flight work, flush, then
        // close connections as they go idle; this thread exits when none
        // of its own remain.
        for (size_t i = 0; i < t->conns.size();) {
          Conn* conn = t->conns[i].get();
          if (conn->inflight.empty() &&
              conn->out_sent == conn->outbuf.size()) {
            DropConnAt(t, i);
          } else {
            ++i;
          }
        }
        if (t->conns.empty()) break;
      }
      UpdateInterest(t);
      // Outcomes are posted the instant a query finishes and wake the
      // loop, so the timeout is pure idle housekeeping.
      const int n = t->loop.Wait(250, &events);
      if (n < 0) break;
      // Event handlers only mark connection state (draining/dead); no fd
      // closes here, so a stale event cannot hit a recycled descriptor —
      // by_fd is authoritative for the pass.
      for (const EventLoop::Event& ev : events) {
        if (t->index == 0 && listen_fd_ >= 0 && ev.fd == listen_fd_) {
          AcceptConnections(t);
          continue;
        }
        if (t->index == 0 && metrics_fd_ >= 0 && ev.fd == metrics_fd_) {
          ServeMetricsConnections();
          continue;
        }
        auto lookup = t->by_fd.find(ev.fd);
        if (lookup == t->by_fd.end()) continue;
        Conn* conn = lookup->second;
        if (ev.events & EventLoop::kError) {
          // The socket is gone; nothing to flush.
          conn->outbuf.clear();
          conn->out_sent = 0;
          CancelConnQueries(conn);
          conn->draining = true;
          conn->dead = true;
          continue;
        }
        if (!conn->peer_closed &&
            (ev.events & (EventLoop::kReadable | EventLoop::kHangup))) {
          if (ReadConn(t, conn)) {
            // Peer EOF. The requester is gone, so its in-flight queries
            // are cancelled and their outcomes dropped (abandoned work must
            // not outlive its requester) — but replies already earned by
            // the final burst (PONGs, rejections, outcomes delivered
            // before the EOF) are flushed, not discarded.
            conn->peer_closed = true;
            CancelConnQueries(conn);
            conn->draining = true;
          }
        }
        if (!conn->dead && (ev.events & EventLoop::kWritable) &&
            conn->out_sent < conn->outbuf.size()) {
          FlushConn(t, conn);
        }
      }
    }
    // Loop exit: cancel whatever is still in flight on this thread's
    // connections and close every socket (outcomes of cancelled queries
    // are posted to this stopped loop and never run).
    for (auto& conn : t->conns) {
      CancelConnQueries(conn.get());
      t->loop.Remove(conn->fd);
      ::close(conn->fd);
    }
    connections_.fetch_sub(t->conns.size(), std::memory_order_relaxed);
    t->st_connections.store(0, std::memory_order_relaxed);
    t->conns.clear();
    t->by_fd.clear();
    if (t->index == 0) {
      CloseListenFrom(t);
      CloseMetricsFrom(t);
    }
  }

  void NotifyExit() {
    std::lock_guard<std::mutex> lock(exit_mutex_);
    if (++exited_threads_ == io_.size()) {
      exited_ = true;
      exit_cv_.notify_all();
    }
  }

  const ServerOptions options_;
  GraphCatalog catalog_;
  // Graphs waiting for Start(): either the borrowed index of the
  // single-graph constructor or a list of owned graphs to index.
  const IndexedHypergraph* shared_data_ = nullptr;
  std::vector<NamedGraph> preload_;

  // Owned by IO thread 0's loop after Start(); main-thread access only
  // before launch (Start) and after join (Stop). The metrics listener
  // follows the same ownership rule as the wire listener.
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  int metrics_fd_ = -1;
  uint16_t metrics_port_ = 0;

  // MonotonicSeconds() at Start(); 0 until then (uptime reads 0).
  double start_mono_ = 0;

  // Metric handles resolved once per server; writes through them are
  // lock-free (see MetricsRegistry).
  Counter* metric_bytes_in_ =
      MetricsRegistry::Default().GetCounter("hgmatch_server_bytes_in_total");
  Counter* metric_bytes_out_ = MetricsRegistry::Default().GetCounter(
      "hgmatch_server_bytes_out_total");
  Counter* metric_reply_raw_bytes_ = MetricsRegistry::Default().GetCounter(
      "hgmatch_reply_raw_bytes_total");
  Counter* metric_reply_wire_bytes_ = MetricsRegistry::Default().GetCounter(
      "hgmatch_reply_wire_bytes_total");
  Histogram* metric_delivery_ =
      MetricsRegistry::Default().GetHistogram("hgmatch_delivery_seconds");
  Histogram* metric_batch_replies_ =
      MetricsRegistry::Default().GetHistogram("hgmatch_batch_replies");
  Histogram* metric_batch_submits_ =
      MetricsRegistry::Default().GetHistogram("hgmatch_batch_submits");

  // Slow-query ring (ServerOptions::slow_query_ms): the most recent
  // kSlowRingCapacity threshold-crossing spans, surfaced through STATS.
  static constexpr size_t kSlowRingCapacity = 64;
  std::mutex slow_mutex_;
  std::vector<WireSlowQuery> slow_queries_;
  uint64_t slow_next_ = 0;

  std::vector<std::unique_ptr<IoThread>> io_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> shutting_down_{false};

  // Edge rate limiter (ServerOptions::max_submits_per_sec).
  std::mutex rate_mutex_;
  std::unordered_map<uint32_t, TokenBucket> buckets_;
  uint64_t rate_ops_ = 0;

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> rate_limited_{0};
  std::atomic<uint64_t> cancelled_by_disconnect_{0};
  std::atomic<uint64_t> inflight_{0};

  std::mutex exit_mutex_;
  std::condition_variable exit_cv_;
  size_t exited_threads_ = 0;
  bool exited_ = false;
};

#else  // !HGMATCH_HAVE_SOCKETS

// Stub so the library links on platforms without POSIX sockets; Start()
// reports the gap instead of failing at compile time.
class MatchServer::Impl {
 public:
  Impl(const IndexedHypergraph&, const ServerOptions&) {}
  Impl(std::vector<NamedGraph>, const ServerOptions&) {}
  Status Start() {
    return Status::Internal("hgmatch net requires POSIX sockets");
  }
  uint16_t port() const { return 0; }
  uint16_t metrics_port() const { return 0; }
  void Wait() {}
  bool WaitFor(double) { return true; }
  void Stop() {}
  WireStats Stats() { return {}; }
};

#endif  // HGMATCH_HAVE_SOCKETS

MatchServer::MatchServer(const IndexedHypergraph& data,
                         const ServerOptions& options)
    : impl_(std::make_unique<Impl>(data, options)) {}

MatchServer::MatchServer(std::vector<NamedGraph> graphs,
                         const ServerOptions& options)
    : impl_(std::make_unique<Impl>(std::move(graphs), options)) {}

MatchServer::~MatchServer() = default;

Status MatchServer::Start() { return impl_->Start(); }

uint16_t MatchServer::port() const { return impl_->port(); }

uint16_t MatchServer::metrics_port() const { return impl_->metrics_port(); }

void MatchServer::Wait() { impl_->Wait(); }

bool MatchServer::WaitFor(double seconds) { return impl_->WaitFor(seconds); }

void MatchServer::Stop() { impl_->Stop(); }

WireStats MatchServer::Stats() const { return impl_->Stats(); }

}  // namespace hgmatch
