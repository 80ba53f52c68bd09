#include "net/protocol.h"

#include <cstring>

#include "io/binary_format.h"
#include "io/byte_io.h"
#include "io/compress.h"

namespace hgmatch {

namespace {

// Types below kRejected are the retired HGN3 single-entry frames.
bool ValidFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kRejected) &&
         type <= static_cast<uint8_t>(FrameType::kCatalogReply);
}

size_t VarintBytes(uint64_t value) {
  size_t bytes = 1;
  for (; value >= 0x80; value >>= 7) ++bytes;
  return bytes;
}

// Length-prefixed string: varint byte count, then the bytes.
void AppendString(std::string_view s, std::string* out) {
  AppendVarint(s.size(), out);
  out->append(s);
}

// Returns false (leaving *out untouched) on truncation; the caller folds
// that into its frame-level Corruption status.
bool ReadString(ByteReader& r, std::string* out) {
  const uint64_t bytes = ReadVarint(r);
  if (!r.ok() || bytes > r.remaining()) return false;
  out->assign(r.rest().substr(0, bytes));
  r.Skip(bytes);
  return true;
}

void AppendGraphStats(const WireGraphStats& g, std::string* payload) {
  AppendString(g.name, payload);
  AppendValue<uint8_t>(g.is_default ? 1 : 0, payload);
  AppendValue<uint64_t>(g.queries, payload);
  AppendValue<uint64_t>(g.live_tickets, payload);
  AppendValue<uint64_t>(g.index_bytes, payload);
}

// Encoded size of a graph row with an empty name; a row count beyond
// remaining / kMinGraphRowBytes is corrupt before anything is allocated.
constexpr size_t kMinGraphRowBytes = 1 + 1 + 8 + 8 + 8;

// Reads a varint row count followed by that many graph rows.
bool ReadGraphRows(ByteReader& r, std::vector<WireGraphStats>* rows) {
  const uint64_t count = ReadVarint(r);
  if (!r.ok() || count > r.remaining() / kMinGraphRowBytes) return false;
  rows->resize(count);
  for (WireGraphStats& g : *rows) {
    if (!ReadString(r, &g.name)) return false;
    g.is_default = r.ReadValue<uint8_t>() != 0;
    g.queries = r.ReadValue<uint64_t>();
    g.live_tickets = r.ReadValue<uint64_t>();
    g.index_bytes = r.ReadValue<uint64_t>();
  }
  return r.ok();
}

}  // namespace

void AppendFrame(FrameType type, std::string_view payload, std::string* out) {
  out->reserve(out->size() + kWireHeaderBytes + payload.size());
  AppendValue<uint32_t>(kWireMagic, out);
  AppendValue<uint8_t>(static_cast<uint8_t>(type), out);
  AppendValue<uint32_t>(static_cast<uint32_t>(payload.size()), out);
  out->append(payload);
}

std::string EncodeSubmit(const WireSubmit& submit) {
  return EncodeSubmit(submit, submit.query);
}

std::string EncodeSubmit(const WireSubmit& fields, const Hypergraph& query) {
  std::string payload;
  AppendValue<uint64_t>(fields.request_id, &payload);
  AppendValue<uint32_t>(fields.tenant_id, &payload);
  AppendValue<int32_t>(fields.priority, &payload);
  AppendValue<double>(fields.weight, &payload);
  AppendValue<double>(fields.timeout_seconds, &payload);
  AppendValue<uint64_t>(fields.limit, &payload);
  // The graph name sits before the query image because the image consumes
  // the remainder of the payload.
  AppendString(fields.graph, &payload);
  AppendHypergraphBinary(query, &payload);
  return payload;
}

Result<WireSubmit> DecodeSubmit(std::string_view payload) {
  ByteReader r(payload);
  WireSubmit submit;
  submit.request_id = r.ReadValue<uint64_t>();
  submit.tenant_id = r.ReadValue<uint32_t>();
  submit.priority = r.ReadValue<int32_t>();
  submit.weight = r.ReadValue<double>();
  submit.timeout_seconds = r.ReadValue<double>();
  submit.limit = r.ReadValue<uint64_t>();
  if (!r.ok() || !ReadString(r, &submit.graph)) {
    return Status::Corruption("truncated SUBMIT frame");
  }
  const std::string_view image = r.rest();
  Result<Hypergraph> query =
      DecodeHypergraphBinary(image.data(), image.size());
  if (!query.ok()) {
    return Status::Corruption("SUBMIT query: " + query.status().message());
  }
  submit.query = std::move(query).value();
  return submit;
}

std::string EncodeOutcome(const WireOutcome& wire, bool with_trace) {
  const QueryOutcome& out = wire.outcome;
  std::string payload;
  AppendValue<uint64_t>(wire.request_id, &payload);
  AppendValue<uint8_t>(static_cast<uint8_t>(out.status), &payload);
  AppendValue<uint8_t>(out.mirrored ? 1 : 0, &payload);
  AppendValue<uint8_t>(out.stats.timed_out ? 1 : 0, &payload);
  AppendValue<uint8_t>(out.stats.limit_hit ? 1 : 0, &payload);
  AppendValue<uint64_t>(out.stats.embeddings, &payload);
  AppendValue<uint64_t>(out.stats.candidates, &payload);
  AppendValue<uint64_t>(out.stats.filtered, &payload);
  AppendValue<uint64_t>(out.stats.expansions, &payload);
  AppendValue<double>(out.stats.seconds, &payload);
  AppendValue<double>(out.admit_seconds, &payload);
  AppendValue<double>(out.finish_seconds, &payload);
  AppendValue<uint64_t>(out.admit_index, &payload);
  if (with_trace) {
    // Trailing trace section, present only between kFeatureTrace peers,
    // so untraced peers do not pay its bytes.
    const QuerySpan& span = out.span;
    AppendValue<uint8_t>(span.enabled ? 1 : 0, &payload);
    if (span.enabled) {
      AppendValue<double>(span.submit_seconds, &payload);
      AppendValue<double>(span.admit_seconds, &payload);
      AppendValue<double>(span.first_task_seconds, &payload);
      AppendValue<double>(span.last_task_seconds, &payload);
      AppendValue<double>(span.resolve_seconds, &payload);
      AppendValue<double>(span.deliver_seconds, &payload);
    }
  }
  return payload;
}

Result<WireOutcome> DecodeOutcome(std::string_view payload,
                                  bool with_trace) {
  ByteReader r(payload);
  WireOutcome wire;
  wire.request_id = r.ReadValue<uint64_t>();
  const uint8_t status = r.ReadValue<uint8_t>();
  if (status > static_cast<uint8_t>(QueryStatus::kRejected)) {
    return Status::Corruption("OUTCOME frame: unknown query status");
  }
  QueryOutcome& out = wire.outcome;
  out.status = static_cast<QueryStatus>(status);
  out.mirrored = r.ReadValue<uint8_t>() != 0;
  out.stats.timed_out = r.ReadValue<uint8_t>() != 0;
  out.stats.limit_hit = r.ReadValue<uint8_t>() != 0;
  out.stats.embeddings = r.ReadValue<uint64_t>();
  out.stats.candidates = r.ReadValue<uint64_t>();
  out.stats.filtered = r.ReadValue<uint64_t>();
  out.stats.expansions = r.ReadValue<uint64_t>();
  out.stats.seconds = r.ReadValue<double>();
  out.admit_seconds = r.ReadValue<double>();
  out.finish_seconds = r.ReadValue<double>();
  out.admit_index = r.ReadValue<uint64_t>();
  if (with_trace) {
    const uint8_t enabled = r.ReadValue<uint8_t>();
    if (r.ok() && enabled > 1) {
      return Status::Corruption("malformed OUTCOME trace section");
    }
    if (r.ok() && enabled == 1) {
      QuerySpan& span = out.span;
      span.enabled = true;
      span.submit_seconds = r.ReadValue<double>();
      span.admit_seconds = r.ReadValue<double>();
      span.first_task_seconds = r.ReadValue<double>();
      span.last_task_seconds = r.ReadValue<double>();
      span.resolve_seconds = r.ReadValue<double>();
      span.deliver_seconds = r.ReadValue<double>();
    }
  }
  if (!r.ok() || r.remaining() != 0) {
    return Status::Corruption("malformed OUTCOME frame");
  }
  return wire;
}

const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull:
      return "queue-full";
    case RejectReason::kRateLimited:
      return "rate-limited";
    case RejectReason::kUnknownGraph:
      return "unknown-graph";
  }
  return "unknown";
}

std::string EncodeRejected(const WireRejected& rejected) {
  std::string payload;
  AppendValue<uint64_t>(rejected.request_id, &payload);
  AppendValue<uint8_t>(static_cast<uint8_t>(rejected.reason), &payload);
  return payload;
}

Result<WireRejected> DecodeRejected(std::string_view payload) {
  ByteReader r(payload);
  WireRejected rejected;
  rejected.request_id = r.ReadValue<uint64_t>();
  const uint8_t reason = r.ReadValue<uint8_t>();
  if (!r.ok() || r.remaining() != 0 ||
      reason > static_cast<uint8_t>(RejectReason::kUnknownGraph)) {
    return Status::Corruption("malformed REJECTED frame");
  }
  rejected.reason = static_cast<RejectReason>(reason);
  return rejected;
}

std::string EncodeRequestId(uint64_t request_id) {
  std::string payload;
  AppendValue<uint64_t>(request_id, &payload);
  return payload;
}

Result<uint64_t> DecodeRequestId(std::string_view payload) {
  ByteReader r(payload);
  const uint64_t id = r.ReadValue<uint64_t>();
  if (!r.ok() || r.remaining() != 0) {
    return Status::Corruption("malformed request-id frame");
  }
  return id;
}

std::string EncodeStats(const WireStats& stats) {
  std::string payload;
  AppendValue<uint32_t>(stats.num_threads, &payload);
  AppendValue<uint64_t>(stats.connections, &payload);
  AppendValue<uint64_t>(stats.submitted, &payload);
  AppendValue<uint64_t>(stats.completed, &payload);
  AppendValue<uint64_t>(stats.rejected, &payload);
  AppendValue<uint64_t>(stats.rate_limited, &payload);
  AppendValue<uint64_t>(stats.cancelled_by_disconnect, &payload);
  AppendValue<uint64_t>(stats.inflight, &payload);
  AppendValue<uint64_t>(stats.service_finished, &payload);
  AppendValue<uint64_t>(stats.service_live_contexts, &payload);
  AppendValue<uint32_t>(static_cast<uint32_t>(stats.io_threads.size()),
                        &payload);
  for (const WireIoThreadStats& t : stats.io_threads) {
    AppendValue<uint64_t>(t.connections, &payload);
    AppendValue<uint64_t>(t.frames_in, &payload);
    AppendValue<uint64_t>(t.frames_out, &payload);
    AppendValue<uint64_t>(t.bytes_in, &payload);
    AppendValue<uint64_t>(t.bytes_out, &payload);
    AppendValue<uint64_t>(t.rejects, &payload);
  }
  AppendVarint(stats.graphs.size(), &payload);
  for (const WireGraphStats& g : stats.graphs) AppendGraphStats(g, &payload);
  AppendValue<double>(stats.uptime_seconds, &payload);
  AppendValue<double>(stats.monotonic_seconds, &payload);
  AppendVarint(stats.slow_queries.size(), &payload);
  for (const WireSlowQuery& s : stats.slow_queries) {
    AppendValue<uint64_t>(s.request_id, &payload);
    AppendValue<uint32_t>(s.tenant_id, &payload);
    AppendString(s.graph, &payload);
    AppendValue<double>(s.total_seconds, &payload);
    AppendValue<double>(s.queue_seconds, &payload);
    AppendValue<double>(s.run_seconds, &payload);
    AppendValue<double>(s.deliver_seconds, &payload);
  }
  return payload;
}

Result<WireStats> DecodeStats(std::string_view payload) {
  ByteReader r(payload);
  WireStats stats;
  stats.num_threads = r.ReadValue<uint32_t>();
  stats.connections = r.ReadValue<uint64_t>();
  stats.submitted = r.ReadValue<uint64_t>();
  stats.completed = r.ReadValue<uint64_t>();
  stats.rejected = r.ReadValue<uint64_t>();
  stats.rate_limited = r.ReadValue<uint64_t>();
  stats.cancelled_by_disconnect = r.ReadValue<uint64_t>();
  stats.inflight = r.ReadValue<uint64_t>();
  stats.service_finished = r.ReadValue<uint64_t>();
  stats.service_live_contexts = r.ReadValue<uint64_t>();
  const uint32_t threads = r.ReadValue<uint32_t>();
  if (!r.ok()) return Status::Corruption("malformed STATS frame");
  // 6 u64 counters per row; the bound keeps a corrupt count from turning
  // into a giant allocation before the length check can fail. A lower
  // bound (not equality) because the graph and slow-query rows follow.
  if (r.remaining() < static_cast<size_t>(threads) * 48) {
    return Status::Corruption("malformed STATS frame");
  }
  stats.io_threads.resize(threads);
  for (WireIoThreadStats& t : stats.io_threads) {
    t.connections = r.ReadValue<uint64_t>();
    t.frames_in = r.ReadValue<uint64_t>();
    t.frames_out = r.ReadValue<uint64_t>();
    t.bytes_in = r.ReadValue<uint64_t>();
    t.bytes_out = r.ReadValue<uint64_t>();
    t.rejects = r.ReadValue<uint64_t>();
  }
  if (!r.ok() || !ReadGraphRows(r, &stats.graphs)) {
    return Status::Corruption("malformed STATS frame");
  }
  stats.uptime_seconds = r.ReadValue<double>();
  stats.monotonic_seconds = r.ReadValue<double>();
  const uint64_t count = ReadVarint(r);
  // >= 37 bytes per row (fixed fields + 1-byte name length); the bound
  // keeps a corrupt count from turning into a giant allocation.
  if (!r.ok() || count > r.remaining() / 37) {
    return Status::Corruption("malformed STATS frame");
  }
  stats.slow_queries.resize(count);
  for (WireSlowQuery& s : stats.slow_queries) {
    s.request_id = r.ReadValue<uint64_t>();
    s.tenant_id = r.ReadValue<uint32_t>();
    if (!ReadString(r, &s.graph)) {
      return Status::Corruption("malformed STATS frame");
    }
    s.total_seconds = r.ReadValue<double>();
    s.queue_seconds = r.ReadValue<double>();
    s.run_seconds = r.ReadValue<double>();
    s.deliver_seconds = r.ReadValue<double>();
  }
  if (!r.ok() || r.remaining() != 0) {
    return Status::Corruption("malformed STATS frame");
  }
  return stats;
}

std::string EncodeCatalogRequest(const WireCatalogRequest& request) {
  std::string payload;
  AppendString(request.name, &payload);
  AppendString(request.path, &payload);
  return payload;
}

Result<WireCatalogRequest> DecodeCatalogRequest(std::string_view payload) {
  ByteReader r(payload);
  WireCatalogRequest request;
  if (!ReadString(r, &request.name) || !ReadString(r, &request.path) ||
      r.remaining() != 0) {
    return Status::Corruption("malformed catalog-request frame");
  }
  return request;
}

std::string EncodeCatalogReply(const WireCatalogReply& reply) {
  std::string payload;
  AppendValue<uint8_t>(reply.ok ? 1 : 0, &payload);
  AppendString(reply.message, &payload);
  AppendVarint(reply.graphs.size(), &payload);
  for (const WireGraphStats& g : reply.graphs) AppendGraphStats(g, &payload);
  return payload;
}

Result<WireCatalogReply> DecodeCatalogReply(std::string_view payload) {
  ByteReader r(payload);
  WireCatalogReply reply;
  reply.ok = r.ReadValue<uint8_t>() != 0;
  if (!r.ok() || !ReadString(r, &reply.message) ||
      !ReadGraphRows(r, &reply.graphs) || r.remaining() != 0) {
    return Status::Corruption("malformed CATALOG_REPLY frame");
  }
  return reply;
}

std::string EncodeFeatures(uint32_t features) {
  std::string payload;
  AppendValue<uint32_t>(features, &payload);
  return payload;
}

Result<uint32_t> DecodeFeatures(std::string_view payload) {
  ByteReader r(payload);
  const uint32_t features = r.ReadValue<uint32_t>();
  if (!r.ok() || r.remaining() != 0) {
    return Status::Corruption("malformed HELLO frame");
  }
  return features;
}

std::string EncodeEntryList(std::span<const std::string> entries) {
  size_t total = 10;
  for (const std::string& e : entries) total += e.size() + 10;
  std::string payload;
  payload.reserve(total);
  AppendVarint(entries.size(), &payload);
  for (const std::string& e : entries) {
    AppendVarint(e.size(), &payload);
    payload.append(e);
  }
  return payload;
}

Result<std::vector<std::string_view>> DecodeEntryList(
    std::string_view payload) {
  ByteReader r(payload);
  const uint64_t count = ReadVarint(r);
  // Every entry costs at least its one-byte length prefix, so a count
  // beyond the remaining bytes is corrupt before anything is reserved.
  if (!r.ok() || count > r.remaining()) {
    return Status::Corruption("malformed entry list");
  }
  std::vector<std::string_view> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t bytes = ReadVarint(r);
    if (!r.ok() || bytes > r.remaining()) {
      return Status::Corruption("malformed entry list");
    }
    entries.push_back(r.rest().substr(0, bytes));
    r.Skip(bytes);
  }
  if (!r.ok() || r.remaining() != 0) {
    return Status::Corruption("malformed entry list");
  }
  return entries;
}

size_t FittingEntries(std::span<const std::string> entries,
                      size_t max_entries) {
  size_t count = 0;
  size_t bytes = 0;  // length prefixes + entries so far
  for (const std::string& e : entries) {
    if (count == max_entries) break;
    const size_t next = bytes + VarintBytes(e.size()) + e.size();
    if (VarintBytes(count + 1) + next > kMaxWirePayload) break;
    bytes = next;
    ++count;
  }
  return count;
}

void AppendFrameMaybeCompressed(FrameType type, std::string_view payload,
                                bool compress, std::string* out) {
  if (compress && payload.size() >= kCompressThresholdBytes) {
    std::string wrapped;
    wrapped.reserve(payload.size() / 2 + 16);
    AppendValue<uint8_t>(static_cast<uint8_t>(type), &wrapped);
    AppendVarint(payload.size(), &wrapped);
    const size_t header = wrapped.size();
    LzssCompress(payload, &wrapped);
    if (wrapped.size() - header < payload.size()) {
      AppendFrame(FrameType::kCompressed, wrapped, out);
      return;
    }
  }
  AppendFrame(type, payload, out);
}

Result<FrameType> DecodeCompressedFrame(std::string_view payload,
                                        std::string* inner_payload) {
  ByteReader r(payload);
  const uint8_t inner = r.ReadValue<uint8_t>();
  const uint64_t raw_bytes = ReadVarint(r);
  if (!r.ok() || !ValidFrameType(inner) ||
      inner == static_cast<uint8_t>(FrameType::kCompressed)) {
    return Status::Corruption("malformed COMPRESSED frame");
  }
  if (raw_bytes > kMaxWirePayload) {
    return Status::Corruption("COMPRESSED frame exceeds the payload bound");
  }
  inner_payload->clear();
  inner_payload->reserve(raw_bytes);
  Status s = LzssDecompress(r.rest(), raw_bytes, inner_payload);
  if (!s.ok()) return s;
  if (inner_payload->size() != raw_bytes) {
    return Status::Corruption("COMPRESSED frame: raw-size mismatch");
  }
  return static_cast<FrameType>(inner);
}

Result<bool> FrameReader::Next(Frame* out) {
  // Compact lazily: drop consumed bytes once they dominate the buffer, so
  // the hot path is an offset bump, not a memmove per frame.
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  if (buffer_.size() - consumed_ < kWireHeaderBytes) return false;
  const char* header = buffer_.data() + consumed_;
  uint32_t magic;
  std::memcpy(&magic, header, sizeof(magic));
  if (magic != kWireMagic) {
    return Status::Corruption("bad frame magic (incompatible peer?)");
  }
  const uint8_t type = static_cast<uint8_t>(header[4]);
  if (!ValidFrameType(type)) {
    return Status::Corruption("unknown frame type");
  }
  uint32_t payload_bytes;
  std::memcpy(&payload_bytes, header + 5, sizeof(payload_bytes));
  if (payload_bytes > kMaxWirePayload) {
    return Status::Corruption("frame exceeds the payload bound");
  }
  if (buffer_.size() - consumed_ < kWireHeaderBytes + payload_bytes) {
    return false;
  }
  out->type = static_cast<FrameType>(type);
  out->payload.assign(buffer_, consumed_ + kWireHeaderBytes, payload_bytes);
  consumed_ += kWireHeaderBytes + payload_bytes;
  return true;
}

}  // namespace hgmatch
