#ifndef HGMATCH_NET_CLIENT_H_
#define HGMATCH_NET_CLIENT_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/hypergraph.h"
#include "net/async_client.h"
#include "net/protocol.h"
#include "parallel/submit_options.h"
#include "util/status.h"

namespace hgmatch {

/// Blocking client of the hgmatch wire protocol (net/protocol.h), used by
/// `hgmatch query --connect`, the loopback tests and the benches. One
/// instance speaks for one connection; the synchronous surface stays the
/// deliberately simple one — concurrency comes from pipelining (submit
/// many, then wait) or from one client per thread.
///
/// This is a thin facade over AsyncMatchClient (net/async_client.h): each
/// Submit() registers a callback that files the reply into a ready map,
/// and WaitOutcome(id) parks on a condition variable until that id's
/// outcome (or a connection failure) arrives — outcomes of other ids wait
/// in the map for their own waits. A submission shed by server
/// backpressure or rate limiting surfaces as a normal outcome with
/// QueryStatus::kRejected (the shed reason lands in
/// WireOutcome::reject_reason).
class MatchClient {
 public:
  MatchClient() = default;
  /// Non-default transport options — a bounded in-flight window, or
  /// AsyncClientOptions::request_features to negotiate compression or
  /// tracing at Connect() (`hgmatch query --compress/--trace`).
  explicit MatchClient(const AsyncClientOptions& options)
      : async_(options) {}
  ~MatchClient();

  MatchClient(const MatchClient&) = delete;
  MatchClient& operator=(const MatchClient&) = delete;

  /// Connects to host:port (numeric IP or hostname). POSIX-only.
  Status Connect(const std::string& host, uint16_t port);

  bool connected() const { return async_.connected(); }

  /// Sends one query; returns its request id. `options.sink` is ignored
  /// (embeddings do not cross the wire; counts and stats do).
  Result<uint64_t> Submit(const Hypergraph& query,
                          const SubmitOptions& options = {});

  /// Submit routed to a named graph in the server's catalog (empty =
  /// default graph). An unknown graph resolves as a QueryStatus::kRejected
  /// outcome with reject_reason kUnknownGraph.
  Result<uint64_t> SubmitTo(const std::string& graph,
                            const Hypergraph& query,
                            const SubmitOptions& options = {});

  /// Sends many queries sharing one options block, coalesced into
  /// kSubmit frames (Submit() sends a frame of one). Returns the request
  /// ids in input order; wait for each with WaitOutcome() as usual.
  Result<std::vector<uint64_t>> SubmitBatch(
      const std::vector<const Hypergraph*>& queries,
      const SubmitOptions& options = {});

  /// SubmitBatch routed to a named catalog graph (empty = default graph;
  /// unknown names resolve per entry as kRejected/kUnknownGraph).
  Result<std::vector<uint64_t>> SubmitBatchTo(
      const std::string& graph,
      const std::vector<const Hypergraph*>& queries,
      const SubmitOptions& options = {});

  /// Feature bits granted at Connect() (0 when none were requested).
  uint32_t features() const { return async_.features(); }

  /// Wire transfer counters since Connect() (framing stats).
  ClientTransferStats TransferStats() const {
    return async_.TransferStats();
  }

  /// Blocks until `request_id`'s outcome (or rejection) arrives.
  Result<WireOutcome> WaitOutcome(uint64_t request_id);

  /// Requests cancellation of an in-flight submission (fire and forget:
  /// the outcome — cancelled or already finished — still arrives).
  Status Cancel(uint64_t request_id);

  /// Round-trips a PING frame.
  Status Ping();

  /// Fetches the server statistics snapshot.
  Result<WireStats> Stats();

  /// Catalog verbs (see AsyncMatchClient for the reply contract).
  Result<WireCatalogReply> ListGraphs() { return async_.ListGraphs(); }
  Result<WireCatalogReply> LoadGraph(const std::string& name,
                                     const std::string& path) {
    return async_.LoadGraph(name, path);
  }
  Result<WireCatalogReply> UnloadGraph(const std::string& name) {
    return async_.UnloadGraph(name);
  }

  /// Asks the server process to shut down (needs the server to run with
  /// allow_remote_shutdown).
  Status RequestShutdown();

  void Close();

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<uint64_t, WireOutcome> ready_;  // out-of-order arrivals
  Status failure_;  // sticky first transport/server failure

  // Every submission's callback: files the reply into ready_ (or records
  // the transport failure) and wakes the waiters.
  const OutcomeCallback file_outcome_ = [this](const AsyncOutcome& result) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (result.transport.ok()) {
      ready_.emplace(result.request_id, result.wire);
    } else if (failure_.ok()) {
      failure_ = result.transport;
    }
    cv_.notify_all();
  };

  // Declared last: destroyed first, so the reader thread joins (and every
  // callback into the members above returns) before they die.
  AsyncMatchClient async_;
};

}  // namespace hgmatch

#endif  // HGMATCH_NET_CLIENT_H_
