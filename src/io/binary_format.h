#ifndef HGMATCH_IO_BINARY_FORMAT_H_
#define HGMATCH_IO_BINARY_FORMAT_H_

#include <string>

#include "core/hypergraph.h"
#include "util/status.h"

namespace hgmatch {

/// Compact binary hypergraph formats for fast offline preprocessing
/// round-trips (the "Load Graph" step of Fig 3 for large datasets, where
/// text parsing dominates — dataset load is the serve cold-start cost).
///
/// v1 (magic 'HGM1'), fixed-width — the wire image of SUBMIT frames:
///
///   [u32 magic 'HGM1'] [u64 |V|] [u64 |E|] [u64 incidences]
///   [Label * |V|]                     vertex labels
///   [u32 arity, Label edge_label, VertexId * arity]...  per hyperedge
///
/// v2 (magic 'HGM2'), the on-disk default since the codec landed: the same
/// header counts, then the *compact body* — varint labels, then per edge
/// varint arity + edge label + the sorted vertex ids as a first id plus
/// ascending deltas — split into bounded chunks, each stored raw or
/// LZSS-compressed (io/compress.h), whichever is smaller:
///
///   [u32 magic 'HGM2'] [u64 |V|] [u64 |E|] [u64 incidences]
///   [u32 raw bytes, u32 stored bytes, u8 codec, stored bytes...]...
///
/// codec 0 = raw (stored == raw), 1 = LZSS. Chunks are at most
/// kBinaryChunkBytes raw, so decoding never allocates more than one
/// chunk's raw size before validation can fail. Both little-endian, no
/// alignment padding; corruption is detected by size mismatches rather
/// than UB. Readers accept either magic — v1 files keep loading forever.
///
/// Decoding reads the labels into AddVertex, then each hyperedge into
/// one scratch buffer reused for every record, which AddEdge copies onto
/// the end of the graph's flat hyperedge arrays after its duplicate
/// check. Nothing is reserved from the header counts, so memory grows
/// only with the records actually decoded; v1 also rejects, before any
/// loop, a header whose counts need more bytes than the image holds. The
/// incidence lists are left to the graph's first incident() read.
inline constexpr uint32_t kBinaryMagic = 0x31'4d'47'48;    // "HGM1"
inline constexpr uint32_t kBinaryMagicV2 = 0x32'4d'47'48;  // "HGM2"

/// Raw-byte bound of one v2 body chunk (writer emits exactly this except
/// for the final partial chunk; readers reject chunks declaring more).
inline constexpr uint32_t kBinaryChunkBytes = 1u << 20;

/// Appends the v1 binary encoding of `h` — the exact file image above,
/// magic included — to *out. This is the wire image: net/protocol.cc
/// inlines it into SUBMIT frames (frame-level compression is negotiated
/// separately).
void AppendHypergraphBinary(const Hypergraph& h, std::string* out);

/// Appends the v2 (compact + chunk-compressed) encoding of `h` to *out.
void AppendHypergraphCompressed(const Hypergraph& h, std::string* out);

/// Decodes a hypergraph from an in-memory binary image, v1 or v2
/// (dispatched on the magic). `size` must cover exactly one hypergraph;
/// trailing bytes are a Corruption error like any other size mismatch.
Result<Hypergraph> DecodeHypergraphBinary(const void* data, size_t size);

/// Writes `h` to `path`: v2 compressed by default, v1 fixed-width when
/// `compress` is false (interop with pre-v2 readers).
Status SaveHypergraphBinary(const Hypergraph& h, const std::string& path,
                            bool compress = true);

/// Reads a binary hypergraph from `path` (v1 or v2).
Result<Hypergraph> LoadHypergraphBinary(const std::string& path);

}  // namespace hgmatch

#endif  // HGMATCH_IO_BINARY_FORMAT_H_
