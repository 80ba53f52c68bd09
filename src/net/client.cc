#include "net/client.h"

#include <utility>

namespace hgmatch {

MatchClient::~MatchClient() { Close(); }

void MatchClient::Close() { async_.Close(); }

Status MatchClient::Connect(const std::string& host, uint16_t port) {
  return async_.Connect(host, port);
}

Result<uint64_t> MatchClient::Submit(const Hypergraph& query,
                                     const SubmitOptions& options) {
  return SubmitTo("", query, options);
}

Result<uint64_t> MatchClient::SubmitTo(const std::string& graph,
                                       const Hypergraph& query,
                                       const SubmitOptions& options) {
  return async_.Submit(graph, query, options, file_outcome_);
}

Result<std::vector<uint64_t>> MatchClient::SubmitBatch(
    const std::vector<const Hypergraph*>& queries,
    const SubmitOptions& options) {
  return SubmitBatchTo("", queries, options);
}

Result<std::vector<uint64_t>> MatchClient::SubmitBatchTo(
    const std::string& graph,
    const std::vector<const Hypergraph*>& queries,
    const SubmitOptions& options) {
  return async_.SubmitBatch(graph, queries, options, file_outcome_);
}

Result<WireOutcome> MatchClient::WaitOutcome(uint64_t request_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this, request_id] {
    return ready_.count(request_id) != 0 || !failure_.ok();
  });
  auto it = ready_.find(request_id);
  if (it != ready_.end()) {
    WireOutcome outcome = std::move(it->second);
    ready_.erase(it);
    return outcome;
  }
  return failure_;
}

Status MatchClient::Cancel(uint64_t request_id) {
  return async_.Cancel(request_id);
}

Status MatchClient::Ping() { return async_.Ping(); }

Result<WireStats> MatchClient::Stats() { return async_.Stats(); }

Status MatchClient::RequestShutdown() { return async_.RequestShutdown(); }

}  // namespace hgmatch
