#include "net/async_client.h"

#if defined(__unix__) || defined(__APPLE__)
#define HGMATCH_HAVE_SOCKETS 1
#endif

#if HGMATCH_HAVE_SOCKETS
#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/socket_util.h"
#endif

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

namespace hgmatch {

AsyncMatchClient::AsyncMatchClient(const AsyncClientOptions& options)
    : options_(options) {}

#if HGMATCH_HAVE_SOCKETS

AsyncMatchClient::~AsyncMatchClient() { Close(); }

Status AsyncMatchClient::Connect(const std::string& host, uint16_t port) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (fd_ >= 0) return Status::InvalidArgument("already connected");
    if (closed_) return Status::InvalidArgument("client closed");
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string port_str = std::to_string(port);
  if (::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &result) != 0) {
    return Status::IOError("cannot resolve " + host);
  }
  int fd = -1;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    const int candidate =
        ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (candidate < 0) continue;
    if (::connect(candidate, ai->ai_addr, ai->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(candidate, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fd = candidate;
      break;
    }
    ::close(candidate);
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    return Status::IOError("cannot connect to " + host + ":" + port_str);
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    fd_ = fd;
  }
  reader_ = std::thread([this] { ReaderLoop(); });
  // HELLO is mandatory; negotiate before returning, so the caller's first
  // Submit already knows which features it may use.
  const Status sent = SendFrame(FrameType::kHello,
                                EncodeFeatures(options_.request_features));
  if (!sent.ok()) {
    Close();
    return sent;
  }
  std::unique_lock<std::mutex> lock(state_mutex_);
  cv_.wait(lock, [this] {
    return hello_done_ || !failure_.ok() || closed_;
  });
  if (!hello_done_) {
    const Status failure = failure_.ok()
                               ? Status::InvalidArgument("client closed")
                               : failure_;
    lock.unlock();
    Close();
    return failure;
  }
  return Status::OK();
}

bool AsyncMatchClient::connected() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return fd_ >= 0;
}

Status AsyncMatchClient::SendEncoded(const std::string& frame) {
  int fd;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (fd_ < 0) return Status::InvalidArgument("not connected");
    if (!failure_.ok()) return failure_;
    fd = fd_;
  }
  std::lock_guard<std::mutex> send_lock(send_mutex_);
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = net_internal::SendBytes(fd, frame.data() + sent,
                                              frame.size() - sent);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    return Status::IOError("connection lost while sending");
  }
  st_frames_sent_.fetch_add(1, std::memory_order_relaxed);
  st_bytes_sent_.fetch_add(frame.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status AsyncMatchClient::SendFrame(FrameType type,
                                   const std::string& payload) {
  std::string frame;
  AppendFrame(type, payload, &frame);
  return SendEncoded(frame);
}

Status AsyncMatchClient::SendFrameNegotiated(FrameType type,
                                             const std::string& payload) {
  bool compress;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    compress = (features_ & kFeatureCompression) != 0;
  }
  std::string frame;
  AppendFrameMaybeCompressed(type, payload, compress, &frame);
  return SendEncoded(frame);
}

Result<std::vector<uint64_t>> AsyncMatchClient::SubmitBatch(
    const std::string& graph, const std::vector<const Hypergraph*>& queries,
    const SubmitOptions& options, OutcomeCallback callback) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (fd_ < 0) return Status::InvalidArgument("not connected");
  }

  // Pre-encode every entry with a placeholder request id; ids are only
  // assigned under the window wait below, chunk by chunk, and the id is
  // the first 8 bytes of the SUBMIT entry — patched in place (the graph
  // name sits after the fixed fields, so the id offset is unaffected).
  WireSubmit fields;
  fields.request_id = 0;
  fields.tenant_id = options.tenant_id;
  fields.priority = options.priority;
  fields.weight = options.weight;
  fields.timeout_seconds = options.timeout_seconds;
  fields.limit = options.limit;
  fields.graph = graph;
  std::vector<std::string> entries;
  entries.reserve(queries.size());
  for (const Hypergraph* query : queries) {
    entries.push_back(EncodeSubmit(fields, *query));
    // Fail locally an entry that cannot travel even alone, framing
    // included: sending it would make the server error-close the
    // connection, killing every pipelined sibling.
    if (FittingEntries({&entries.back(), 1}) == 0) {
      return Status::InvalidArgument(
          "query exceeds the wire payload bound (" +
          std::to_string(entries.back().size()) + " bytes plus framing > " +
          std::to_string(kMaxWirePayload) + " bytes)");
    }
  }

  // Chunk by the frame payload bound and the in-flight window, then ship
  // each chunk as one kSubmit frame. Chunks are capped at half the window
  // so the next chunk is admitted while the previous one drains — a
  // full-window chunk would stall until pending hits zero between frames,
  // serialising the flood.
  const size_t chunk_cap =
      options_.max_inflight > 0
          ? std::max<size_t>(1, options_.max_inflight / 2)
          : SIZE_MAX;
  std::vector<uint64_t> ids;
  ids.reserve(entries.size());
  Status stopped;  // why the call ended before its last chunk, if it did
  std::span<std::string> rest(entries);
  while (!rest.empty()) {
    const std::span<std::string> chunk =
        rest.first(FittingEntries(rest, chunk_cap));
    rest = rest.subspan(chunk.size());
    {
      std::unique_lock<std::mutex> lock(state_mutex_);
      if (options_.max_inflight > 0) {
        cv_.wait(lock, [this, n = chunk.size()] {
          return pending_.size() + n <= options_.max_inflight ||
                 !failure_.ok() || closed_;
        });
      }
      if (!failure_.ok() || closed_) {
        stopped = failure_.ok() ? Status::InvalidArgument("client closed")
                                : failure_;
        break;
      }
      for (std::string& entry : chunk) {
        const uint64_t id = next_request_id_++;
        std::memcpy(entry.data(), &id, sizeof(id));
        ids.push_back(id);
        // The last entry takes the callback itself; the others copy it.
        pending_.emplace(id, ids.size() == entries.size()
                                 ? std::move(callback)
                                 : callback);
      }
    }
    stopped = SendFrameNegotiated(FrameType::kSubmit, EncodeEntryList(chunk));
    if (!stopped.ok()) {
      // Withdraw the chunk's entries the reader has not claimed; claimed
      // ones fire through the failure path and so count as accepted.
      std::lock_guard<std::mutex> lock(state_mutex_);
      size_t accepted = ids.size() - chunk.size();
      for (size_t i = accepted; i < ids.size(); ++i) {
        if (pending_.erase(ids[i]) == 0) ids[accepted++] = ids[i];
      }
      ids.resize(accepted);
      cv_.notify_all();
      break;
    }
  }
  // A call cut short by a connection failure returns the ids it got
  // accepted (their callbacks fire with the failure); with none, it fails
  // and no callback fires.
  if (ids.empty() && !stopped.ok()) return stopped;
  return ids;
}

uint32_t AsyncMatchClient::features() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return features_;
}

ClientTransferStats AsyncMatchClient::TransferStats() const {
  ClientTransferStats s;
  s.frames_sent = st_frames_sent_.load(std::memory_order_relaxed);
  s.bytes_sent = st_bytes_sent_.load(std::memory_order_relaxed);
  s.frames_received = st_frames_received_.load(std::memory_order_relaxed);
  s.bytes_received = st_bytes_received_.load(std::memory_order_relaxed);
  return s;
}

Status AsyncMatchClient::Cancel(uint64_t request_id) {
  return SendFrame(FrameType::kCancel, EncodeRequestId(request_id));
}

Status AsyncMatchClient::Ping() {
  const Status sent = SendFrame(FrameType::kPing, "ping");
  if (!sent.ok()) return sent;
  std::unique_lock<std::mutex> lock(state_mutex_);
  // Replies come back in send order, so waiting for the N-th pong after
  // sending the N-th ping is exact even with concurrent pingers.
  const uint64_t ticket = ++pings_sent_;
  cv_.wait(lock, [this, ticket] {
    return pongs_received_ >= ticket || !failure_.ok() || closed_;
  });
  if (pongs_received_ >= ticket) return Status::OK();
  return failure_.ok() ? Status::InvalidArgument("client closed") : failure_;
}

Result<WireStats> AsyncMatchClient::Stats() {
  const Status sent = SendFrame(FrameType::kStats, "");
  if (!sent.ok()) return sent;
  std::unique_lock<std::mutex> lock(state_mutex_);
  cv_.wait(lock, [this] {
    return !stats_replies_.empty() || !failure_.ok() || closed_;
  });
  if (!stats_replies_.empty()) {
    WireStats stats = std::move(stats_replies_.front());
    stats_replies_.pop_front();
    return stats;
  }
  return failure_.ok() ? Status::InvalidArgument("client closed") : failure_;
}

Status AsyncMatchClient::RequestShutdown() {
  return SendFrame(FrameType::kShutdown, "");
}

Result<WireCatalogReply> AsyncMatchClient::CatalogRoundTrip(
    FrameType type, const std::string& payload) {
  const Status sent = SendFrame(type, payload);
  if (!sent.ok()) return sent;
  std::unique_lock<std::mutex> lock(state_mutex_);
  // Replies come back in send order (all three verbs answer with one
  // kCatalogReply), so FIFO matching is exact, as with Stats().
  cv_.wait(lock, [this] {
    return !catalog_replies_.empty() || !failure_.ok() || closed_;
  });
  if (!catalog_replies_.empty()) {
    WireCatalogReply reply = std::move(catalog_replies_.front());
    catalog_replies_.pop_front();
    return reply;
  }
  return failure_.ok() ? Status::InvalidArgument("client closed") : failure_;
}

Result<WireCatalogReply> AsyncMatchClient::ListGraphs() {
  return CatalogRoundTrip(FrameType::kListGraphs, "");
}

Result<WireCatalogReply> AsyncMatchClient::LoadGraph(const std::string& name,
                                                     const std::string& path) {
  return CatalogRoundTrip(FrameType::kLoadGraph,
                          EncodeCatalogRequest({name, path}));
}

Result<WireCatalogReply> AsyncMatchClient::UnloadGraph(
    const std::string& name) {
  return CatalogRoundTrip(FrameType::kUnloadGraph,
                          EncodeCatalogRequest({name, ""}));
}

void AsyncMatchClient::Close() {
  int fd;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (closed_) return;
    closed_ = true;
    fd = fd_;
    cv_.notify_all();
  }
  // Unblocks the reader (read returns 0); its EOF path fires every
  // pending callback with the connection-lost status before exiting.
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void AsyncMatchClient::FinishOne(WireOutcome wire) {
  OutcomeCallback callback;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    auto it = pending_.find(wire.request_id);
    if (it == pending_.end()) return;  // unknown id: nothing waits on it
    callback = std::move(it->second);
    pending_.erase(it);
    cv_.notify_all();  // a window slot freed up
  }
  AsyncOutcome result;
  result.request_id = wire.request_id;
  result.wire = std::move(wire);
  if (callback) callback(result);
}

void AsyncMatchClient::FailAll(const Status& status) {
  std::unordered_map<uint64_t, OutcomeCallback> orphans;
  Status verdict;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (failure_.ok()) failure_ = status;
    verdict = failure_;
    orphans.swap(pending_);
    cv_.notify_all();
  }
  for (auto& [id, callback] : orphans) {
    if (!callback) continue;
    AsyncOutcome result;
    result.request_id = id;
    result.transport = verdict;
    callback(result);
  }
}

void AsyncMatchClient::ReaderLoop() {
  int fd;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    fd = fd_;
  }
  FrameReader reader;
  FrameReader::Frame frame;
  char buffer[1 << 16];
  while (true) {
    const ssize_t got = ::read(fd, buffer, sizeof(buffer));
    if (got == 0) {
      bool closed;
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        closed = closed_;
      }
      FailAll(Status::IOError(closed ? "client closed"
                                     : "connection closed by server"));
      return;
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      FailAll(Status::IOError("connection read failed"));
      return;
    }
    st_bytes_received_.fetch_add(static_cast<uint64_t>(got),
                                 std::memory_order_relaxed);
    reader.Feed(buffer, static_cast<size_t>(got));
    while (true) {
      Result<bool> next = reader.Next(&frame);
      if (!next.ok()) {
        FailAll(next.status());
        return;
      }
      if (!next.value()) break;
      st_frames_received_.fetch_add(1, std::memory_order_relaxed);
      if (!HandleServerFrame(frame.type, frame.payload)) return;
    }
  }
}

bool AsyncMatchClient::HandleServerFrame(FrameType type,
                                         std::string& payload) {
  switch (type) {
    case FrameType::kOutcome: {
      Result<std::vector<std::string_view>> entries = DecodeEntryList(payload);
      if (!entries.ok()) {
        FailAll(entries.status());
        return false;
      }
      for (const std::string_view entry : entries.value()) {
        Result<WireOutcome> outcome =
            DecodeOutcome(entry, (features_ & kFeatureTrace) != 0);
        if (!outcome.ok()) {
          FailAll(outcome.status());
          return false;
        }
        FinishOne(std::move(outcome).value());
      }
      return true;
    }
    case FrameType::kCompressed: {
      std::string inner;
      Result<FrameType> inner_type = DecodeCompressedFrame(payload, &inner);
      if (!inner_type.ok()) {
        FailAll(inner_type.status());
        return false;
      }
      // One level only: DecodeCompressedFrame rejects nested kCompressed.
      return HandleServerFrame(inner_type.value(), inner);
    }
    case FrameType::kRejected: {
      Result<WireRejected> rejected = DecodeRejected(payload);
      if (!rejected.ok()) {
        FailAll(rejected.status());
        return false;
      }
      // Server-side sheds surface as a normal outcome with
      // QueryStatus::kRejected and the shed reason attached.
      WireOutcome wire;
      wire.request_id = rejected.value().request_id;
      wire.outcome.status = QueryStatus::kRejected;
      wire.reject_reason = rejected.value().reason;
      FinishOne(std::move(wire));
      return true;
    }
    case FrameType::kPong: {
      if (payload != "ping") {
        FailAll(Status::Corruption("PONG payload mismatch"));
        return false;
      }
      std::lock_guard<std::mutex> lock(state_mutex_);
      ++pongs_received_;
      cv_.notify_all();
      return true;
    }
    case FrameType::kStatsReply: {
      Result<WireStats> stats = DecodeStats(payload);
      if (!stats.ok()) {
        FailAll(stats.status());
        return false;
      }
      std::lock_guard<std::mutex> lock(state_mutex_);
      stats_replies_.push_back(std::move(stats).value());
      cv_.notify_all();
      return true;
    }
    case FrameType::kCatalogReply: {
      Result<WireCatalogReply> reply = DecodeCatalogReply(payload);
      if (!reply.ok()) {
        FailAll(reply.status());
        return false;
      }
      std::lock_guard<std::mutex> lock(state_mutex_);
      catalog_replies_.push_back(std::move(reply).value());
      cv_.notify_all();
      return true;
    }
    case FrameType::kHelloReply: {
      Result<uint32_t> granted = DecodeFeatures(payload);
      if (!granted.ok()) {
        FailAll(granted.status());
        return false;
      }
      std::lock_guard<std::mutex> lock(state_mutex_);
      features_ = granted.value();
      hello_done_ = true;
      cv_.notify_all();
      return true;
    }
    case FrameType::kError:
      FailAll(Status::Internal("server error: " + payload));
      return false;
    default:
      FailAll(Status::Corruption("unexpected frame from server"));
      return false;
  }
}

#else  // !HGMATCH_HAVE_SOCKETS

AsyncMatchClient::~AsyncMatchClient() = default;
Status AsyncMatchClient::Connect(const std::string&, uint16_t) {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
bool AsyncMatchClient::connected() const { return false; }
Status AsyncMatchClient::SendFrame(FrameType, const std::string&) {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
Result<std::vector<uint64_t>> AsyncMatchClient::SubmitBatch(
    const std::string&, const std::vector<const Hypergraph*>&,
    const SubmitOptions&, OutcomeCallback) {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
Result<WireCatalogReply> AsyncMatchClient::CatalogRoundTrip(
    FrameType, const std::string&) {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
Result<WireCatalogReply> AsyncMatchClient::ListGraphs() {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
Result<WireCatalogReply> AsyncMatchClient::LoadGraph(const std::string&,
                                                     const std::string&) {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
Result<WireCatalogReply> AsyncMatchClient::UnloadGraph(const std::string&) {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
uint32_t AsyncMatchClient::features() const { return 0; }
ClientTransferStats AsyncMatchClient::TransferStats() const { return {}; }
Status AsyncMatchClient::SendEncoded(const std::string&) {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
Status AsyncMatchClient::SendFrameNegotiated(FrameType,
                                             const std::string&) {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
bool AsyncMatchClient::HandleServerFrame(FrameType, std::string&) {
  return false;
}
Status AsyncMatchClient::Cancel(uint64_t) {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
Status AsyncMatchClient::Ping() {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
Result<WireStats> AsyncMatchClient::Stats() {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
Status AsyncMatchClient::RequestShutdown() {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
void AsyncMatchClient::Close() {}
void AsyncMatchClient::ReaderLoop() {}
void AsyncMatchClient::FinishOne(WireOutcome) {}
void AsyncMatchClient::FailAll(const Status&) {}

#endif  // HGMATCH_HAVE_SOCKETS

Result<uint64_t> AsyncMatchClient::Submit(const std::string& graph,
                                          const Hypergraph& query,
                                          const SubmitOptions& options,
                                          OutcomeCallback callback) {
  Result<std::vector<uint64_t>> ids =
      SubmitBatch(graph, {&query}, options, std::move(callback));
  if (!ids.ok()) return ids.status();
  return ids.value().front();
}

}  // namespace hgmatch
