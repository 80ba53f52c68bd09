#include "io/binary_format.h"

#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "io/byte_io.h"
#include "io/compress.h"

namespace hgmatch {

namespace {

// Thin RAII + error-folding wrapper over std::FILE, mirroring ByteReader's
// sticky-failure contract so one decoder template (below) serves both the
// streaming file path and the in-memory wire path.
class BinaryFile {
 public:
  BinaryFile(const std::string& path, const char* mode)
      : file_(std::fopen(path.c_str(), mode)) {}
  ~BinaryFile() {
    if (file_ != nullptr) std::fclose(file_);
  }
  bool ok() const { return file_ != nullptr && !failed_; }
  void MarkFailed() { failed_ = true; }

  // Files are trusted local input: no cheap size bound exists before
  // reading, so the hostile-header pre-check degrades to a no-op and
  // truncation surfaces through the sticky failure bit instead.
  uint64_t remaining() const { return ~uint64_t{0}; }

  void Append(const void* data, size_t bytes) {  // encoder-sink face
    if (!ok()) return;
    failed_ |= std::fwrite(data, 1, bytes, file_) != bytes;
  }

  void Read(void* data, size_t bytes) {
    if (!ok()) return;
    failed_ |= std::fread(data, 1, bytes, file_) != bytes;
  }

  template <typename T>
  T ReadValue() {
    T value{};
    Read(&value, sizeof(T));
    return value;
  }

 private:
  std::FILE* file_;
  bool failed_ = false;
};

// Decodes one v1 hypergraph body (the magic is already consumed by the
// dispatcher) from any sticky-failure reader exposing
// ok()/remaining()/Read()/ReadValue() — BinaryFile streams from disk
// without materialising the file, ByteReader decodes wire payloads.
template <typename Reader>
Result<Hypergraph> DecodeHypergraphV1From(Reader& r) {
  const uint64_t num_vertices = r.template ReadValue<uint64_t>();
  const uint64_t num_edges = r.template ReadValue<uint64_t>();
  const uint64_t num_incidences = r.template ReadValue<uint64_t>();
  if (!r.ok()) return Status::Corruption("truncated header");
  // Every vertex costs one Label, every hyperedge an arity, a label and at
  // least one VertexId, and every incidence one VertexId, so a header whose
  // counts exceed the bytes at hand is corrupt; checking here stops a
  // hostile header from driving the loops below through billions of
  // iterations (the wire front end decodes untrusted bytes).
  if (num_vertices > r.remaining() / sizeof(Label) ||
      num_edges > r.remaining() / (2 * sizeof(uint32_t) + sizeof(VertexId)) ||
      num_incidences > r.remaining() / sizeof(VertexId)) {
    return Status::Corruption("section counts exceed image size");
  }

  Hypergraph h;
  for (uint64_t v = 0; v < num_vertices; ++v) {
    h.AddVertex(r.template ReadValue<Label>());
  }
  if (!r.ok()) return Status::Corruption("truncated label section");

  uint64_t incidences = 0;
  VertexSet members;
  for (uint64_t e = 0; e < num_edges; ++e) {
    const uint32_t arity = r.template ReadValue<uint32_t>();
    const Label edge_label = r.template ReadValue<Label>();
    if (!r.ok() || arity == 0 || arity > num_vertices) {
      return Status::Corruption("bad hyperedge record");
    }
    members.resize(arity);
    r.Read(members.data(), arity * sizeof(VertexId));
    if (!r.ok()) return Status::Corruption("truncated hyperedge");
    incidences += arity;
    Result<EdgeId> added = h.AddEdge(members, edge_label);
    if (!added.ok()) return added.status();
  }
  if (incidences != num_incidences) {
    return Status::Corruption("incidence count mismatch");
  }
  return h;
}

// Pulls the v2 chunk stream off an underlying reader and exposes the
// decompressed compact body through the same sticky-failure face, so the
// body decoder below never sees chunk boundaries. Allocation is bounded
// by one chunk's declared raw size, which is itself bounded by
// kBinaryChunkBytes before anything is read — a hostile chunk header
// cannot buy a large allocation.
template <typename Reader>
class ChunkedBodyReader {
 public:
  explicit ChunkedBodyReader(Reader& r) : r_(r) {}

  bool ok() const { return !failed_; }
  void MarkFailed() { failed_ = true; }
  bool Exhausted() const { return pos_ == body_.size(); }

  void Read(void* out, size_t bytes) {
    char* dst = static_cast<char*>(out);
    while (bytes > 0) {
      if (failed_) return;
      if (pos_ == body_.size() && !Refill()) return;
      const size_t take = std::min(bytes, body_.size() - pos_);
      std::memcpy(dst, body_.data() + pos_, take);
      pos_ += take;
      dst += take;
      bytes -= take;
    }
  }

  template <typename T>
  T ReadValue() {
    T value{};
    Read(&value, sizeof(T));
    return value;
  }

 private:
  bool Refill() {
    const uint32_t raw = r_.template ReadValue<uint32_t>();
    const uint32_t stored = r_.template ReadValue<uint32_t>();
    const uint8_t codec = r_.template ReadValue<uint8_t>();
    if (!r_.ok() || raw == 0 || raw > kBinaryChunkBytes || stored > raw ||
        codec > 1 || (codec == 0 && stored != raw)) {
      failed_ = true;
      return false;
    }
    chunk_.resize(stored);
    r_.Read(chunk_.data(), stored);
    if (!r_.ok()) {
      failed_ = true;
      return false;
    }
    body_.clear();
    pos_ = 0;
    if (codec == 0) {
      body_.assign(chunk_.data(), chunk_.size());
    } else if (!LzssDecompress(std::string_view(chunk_.data(), chunk_.size()),
                               raw, &body_)
                    .ok() ||
               body_.size() != raw) {
      failed_ = true;
      return false;
    }
    return true;
  }

  Reader& r_;
  std::string chunk_;  // stored (possibly compressed) bytes
  std::string body_;   // decoded raw bytes of the current chunk
  size_t pos_ = 0;
  bool failed_ = false;
};

// Decodes one v2 compact body. Loops check ok() per iteration (instead of
// the v1 counts-vs-remaining pre-check, which varint bodies defeat): a
// hostile count bails at the first failed read, so work and memory stay
// bounded by the actual bytes supplied.
template <typename Reader>
Result<Hypergraph> DecodeHypergraphV2From(Reader& r) {
  const uint64_t num_vertices = r.template ReadValue<uint64_t>();
  const uint64_t num_edges = r.template ReadValue<uint64_t>();
  const uint64_t num_incidences = r.template ReadValue<uint64_t>();
  if (!r.ok()) return Status::Corruption("truncated header");

  ChunkedBodyReader<Reader> body(r);
  Hypergraph h;
  for (uint64_t v = 0; v < num_vertices; ++v) {
    const uint64_t label = ReadVarint(body);
    if (!body.ok() || label > ~Label{0}) {
      return Status::Corruption("truncated label section");
    }
    h.AddVertex(static_cast<Label>(label));
  }

  uint64_t incidences = 0;
  VertexSet members;
  for (uint64_t e = 0; e < num_edges; ++e) {
    const uint64_t arity = ReadVarint(body);
    const uint64_t edge_label = ReadVarint(body);
    if (!body.ok() || arity == 0 || arity > num_vertices ||
        edge_label > ~Label{0}) {
      return Status::Corruption("bad hyperedge record");
    }
    members.clear();
    uint64_t id = 0;
    for (uint64_t k = 0; k < arity; ++k) {
      // Sorted ascending on write, so ids travel as first + deltas.
      id = k == 0 ? ReadVarint(body) : id + ReadVarint(body);
      if (!body.ok() || id > ~VertexId{0}) {
        return Status::Corruption("truncated hyperedge");
      }
      members.push_back(static_cast<VertexId>(id));
    }
    incidences += arity;
    Result<EdgeId> added = h.AddEdge(members, edge_label);
    if (!added.ok()) return added.status();
  }
  if (incidences != num_incidences) {
    return Status::Corruption("incidence count mismatch");
  }
  if (!body.Exhausted()) {
    return Status::Corruption("trailing bytes in compressed body");
  }
  return h;
}

// Decodes either format version, dispatching on the magic.
template <typename Reader>
Result<Hypergraph> DecodeHypergraphFrom(Reader& r) {
  const uint32_t magic = r.template ReadValue<uint32_t>();
  if (!r.ok()) return Status::Corruption("truncated header");
  if (magic == kBinaryMagic) return DecodeHypergraphV1From(r);
  if (magic == kBinaryMagicV2) return DecodeHypergraphV2From(r);
  return Status::Corruption("bad magic (not an HGM1/HGM2 image)");
}

// Encodes one v1 hypergraph image into any sink exposing Append(ptr,
// bytes) — a std::string for wire payloads, the file directly for
// SaveHypergraph (no multi-GB intermediate image).
template <typename Sink>
void EncodeHypergraphTo(const Hypergraph& h, Sink& out) {
  const auto put = [&out](const auto value) {
    out.Append(&value, sizeof(value));
  };
  put(kBinaryMagic);
  put(static_cast<uint64_t>(h.NumVertices()));
  put(static_cast<uint64_t>(h.NumEdges()));
  put(h.NumIncidences());
  for (VertexId v = 0; v < h.NumVertices(); ++v) put(h.label(v));
  for (EdgeId e = 0; e < h.NumEdges(); ++e) {
    const std::span<const VertexId> members = h.edge(e);
    put(static_cast<uint32_t>(members.size()));
    put(h.edge_label(e));
    out.Append(members.data(), members.size() * sizeof(VertexId));
  }
}

// Buffers compact-body bytes and flushes them as bounded chunks, each
// stored raw or LZSS-compressed — whichever is smaller — so the sink
// (file or string) only ever sees finished chunks and decoding never
// needs more than one chunk in memory.
template <typename Sink>
class ChunkedCompressSink {
 public:
  explicit ChunkedCompressSink(Sink& out) : out_(out) {}

  void Append(const void* data, size_t bytes) {
    buf_.append(static_cast<const char*>(data), bytes);
    while (buf_.size() >= kBinaryChunkBytes) {
      Flush(kBinaryChunkBytes);
    }
  }

  void Finish() {
    if (!buf_.empty()) Flush(buf_.size());
  }

 private:
  void Flush(size_t raw_bytes) {
    packed_.clear();
    LzssCompress(std::string_view(buf_.data(), raw_bytes), &packed_);
    const bool win = packed_.size() < raw_bytes;  // passthrough otherwise
    std::string header;
    AppendValue<uint32_t>(static_cast<uint32_t>(raw_bytes), &header);
    AppendValue<uint32_t>(
        static_cast<uint32_t>(win ? packed_.size() : raw_bytes), &header);
    AppendValue<uint8_t>(win ? 1 : 0, &header);
    out_.Append(header.data(), header.size());
    out_.Append(win ? packed_.data() : buf_.data(),
                win ? packed_.size() : raw_bytes);
    buf_.erase(0, raw_bytes);
  }

  Sink& out_;
  std::string buf_;
  std::string packed_;
};

// Encodes one v2 image: fixed header, then the chunked compact body.
template <typename Sink>
void EncodeHypergraphCompressedTo(const Hypergraph& h, Sink& out) {
  const auto put = [&out](const auto value) {
    out.Append(&value, sizeof(value));
  };
  put(kBinaryMagicV2);
  put(static_cast<uint64_t>(h.NumVertices()));
  put(static_cast<uint64_t>(h.NumEdges()));
  put(h.NumIncidences());

  ChunkedCompressSink<Sink> body(out);
  std::string varint;  // reused scratch for one value at a time
  const auto put_varint = [&body, &varint](uint64_t value) {
    varint.clear();
    AppendVarint(value, &varint);
    body.Append(varint.data(), varint.size());
  };
  for (VertexId v = 0; v < h.NumVertices(); ++v) put_varint(h.label(v));
  for (EdgeId e = 0; e < h.NumEdges(); ++e) {
    const std::span<const VertexId> members = h.edge(e);
    put_varint(members.size());
    put_varint(h.edge_label(e));
    for (size_t k = 0; k < members.size(); ++k) {
      put_varint(k == 0 ? members[0] : members[k] - members[k - 1]);
    }
  }
  body.Finish();
}

struct StringSink {
  std::string* out;
  void Append(const void* data, size_t bytes) {
    out->append(static_cast<const char*>(data), bytes);
  }
};

}  // namespace

void AppendHypergraphBinary(const Hypergraph& h, std::string* out) {
  out->reserve(out->size() + 4 + 3 * 8 + h.NumVertices() * sizeof(Label) +
               h.NumEdges() * (4 + sizeof(Label)) +
               h.NumIncidences() * sizeof(VertexId));
  StringSink sink{out};
  EncodeHypergraphTo(h, sink);
}

void AppendHypergraphCompressed(const Hypergraph& h, std::string* out) {
  StringSink sink{out};
  EncodeHypergraphCompressedTo(h, sink);
}

Result<Hypergraph> DecodeHypergraphBinary(const void* data, size_t size) {
  ByteReader r(data, size);
  Result<Hypergraph> h = DecodeHypergraphFrom(r);
  if (h.ok() && r.remaining() != 0) {
    return Status::Corruption("trailing bytes after hypergraph");
  }
  return h;
}

Status SaveHypergraphBinary(const Hypergraph& h, const std::string& path,
                            bool compress) {
  BinaryFile f(path, "wb");
  if (!f.ok()) return Status::IOError("cannot open " + path);
  if (compress) {
    EncodeHypergraphCompressedTo(h, f);
  } else {
    EncodeHypergraphTo(h, f);
  }
  if (!f.ok()) return Status::IOError("short write to " + path);
  return Status::OK();
}

Result<Hypergraph> LoadHypergraphBinary(const std::string& path) {
  BinaryFile f(path, "rb");
  if (!f.ok()) return Status::IOError("cannot open " + path);
  Result<Hypergraph> h = DecodeHypergraphFrom(f);
  if (!h.ok()) {
    return Status(h.status().code(), path + ": " + h.status().message());
  }
  return h;
}

}  // namespace hgmatch
