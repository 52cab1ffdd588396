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
// and a stripe_hash() checksum of the decoded bytes, so any corruption --
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

/// Bytes of block header: decoded size (u64 LE) + stripe_hash() of
/// the decoded bytes (u64 LE).
inline constexpr std::size_t kBlockHeaderBytes = 16;

/// The on-disk integrity checksum: the LZ block header's decoded-bytes
/// checksum and the shard manifest's whole-file and self checksums.
/// Four independent 64-bit lanes consume 32-byte stripes a word at a
/// time, the lanes and the tail words fold into one value, and a final
/// mix avalanches it. Every per-word step is a bijection of its word
/// (and of the state it updates), so for a fixed length any change
/// confined to one 8-byte word -- every single-bit flip -- changes the
/// result. Memory speed, where a byte-serial hash would dominate a
/// shard load.
[[nodiscard]] std::uint64_t stripe_hash(
    std::span<const std::uint8_t> bytes) noexcept;

/// FNV-1a-64 over `bytes`: a byte-serial fingerprint (capture_pin_test
/// pins capture files by it); no file format stores it.
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) noexcept;

/// Compress `input` into a self-contained block (decoded size and
/// checksum live in the header).
[[nodiscard]] std::vector<std::uint8_t> compress(
    std::span<const std::uint8_t> input);

/// Decompress a block produced by compress() into a buffer sized once
/// from the header. Literal runs copy 16 bytes and matches 8 bytes at a
/// time wherever the buffer has room for the overshoot (a match whose
/// offset is below 8 copies byte by byte). Every way the block can
/// be malformed -- truncated header or body, a length extension running
/// past the end, a match offset reaching before the window start,
/// trailing garbage after the final sequence, a decoded size mismatch
/// -- returns kInvalidArgument with a precise message; a decoded-bytes
/// checksum mismatch (structurally valid, wrong content) returns
/// kDataLoss. This is the only decode path; nothing throws.
[[nodiscard]] Result<std::vector<std::uint8_t>> decompress_checked(
    std::span<const std::uint8_t> block);

namespace detail {
/// The byte-at-a-time decoder decompress_checked() replaced: every
/// output byte one push_back, every match byte copied singly, with the
/// same checks, StatusCodes and messages. Kept as the reference the
/// differential tests compare against and bench_micro's decode floor
/// measures the speedup over; nothing else decodes through it.
[[nodiscard]] Result<std::vector<std::uint8_t>> decompress_bytewise(
    std::span<const std::uint8_t> block);
}  // namespace detail

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
