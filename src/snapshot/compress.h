// LZ77 block compression for provenance logs.
//
// The paper compresses the perf/PT logs with lz4 and reports 6-37x
// ratios (§VII-D, Figure 9). This is a from-scratch LZ4-style block
// codec: greedy hash-chain matching, token = (literal_len | match_len)
// nibbles with 255-byte length extensions and 16-bit match offsets.
// Real PT streams compress extremely well because TNT-heavy regions
// repeat; the codec reproduces that behaviour on our encoded streams.
//
// A block is self-contained: a 16-byte header carries the decoded size
// and an FNV-1a checksum of the decoded bytes, so any corruption --
// structural (truncated lengths, out-of-window offsets, trailing
// garbage) or content (a bit flip inside a literal run) -- surfaces as
// a typed error from decompress_checked(), never as silently wrong
// output. The sharded CPG store persists these blocks on disk
// (src/shard/format.cpp); the snapshot ring holds them in memory.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/status.h"

namespace inspector::snapshot {

/// Bytes of block header: decoded size (u64 LE) + FNV-1a checksum of
/// the decoded bytes (u64 LE).
inline constexpr std::size_t kBlockHeaderBytes = 16;

/// FNV-1a-64 over `bytes`: the content-integrity hash used by the LZ
/// block header and by the shard manifest's whole-file checksums.
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) noexcept;

/// Compress `input` into a self-contained block (decoded size and
/// checksum live in the header).
[[nodiscard]] std::vector<std::uint8_t> compress(
    std::span<const std::uint8_t> input);

/// Decompress a block produced by compress(). Every way the block can
/// be malformed -- truncated header or body, a length extension running
/// past the end, a match offset reaching before the window start,
/// trailing garbage after the final sequence, a decoded size mismatch
/// -- returns kInvalidArgument with a precise message; a decoded-bytes
/// checksum mismatch (structurally valid, wrong content) returns
/// kDataLoss. This is the only decode path; nothing throws.
[[nodiscard]] Result<std::vector<std::uint8_t>> decompress_checked(
    std::span<const std::uint8_t> block);

/// ratio = uncompressed / compressed (the paper's "Ratio" column).
/// The zero-denominator case is explicit: nothing-to-nothing is 1.0
/// (no change), and a nonzero payload "compressed" to zero bytes is
/// +infinity -- never 0.0, which a report column would render as the
/// *worst* possible ratio. compress() always emits at least the
/// header, so real call sites never hit either branch; they exist so a
/// stats pipeline fed zeros stays monotone.
[[nodiscard]] double compression_ratio(std::uint64_t uncompressed,
                                       std::uint64_t compressed);

}  // namespace inspector::snapshot
