// Frame layer for the serving transport: every byte that crosses a
// connection travels inside a length-prefixed frame with a fixed
// 24-byte little-endian header. The payload is opaque to this layer --
// for Data frames it is a slice of the existing canonical JSON
// request/reply lines (src/query/wire.*), so the byte-identical reply
// contract extends across the process boundary unchanged.
//
// Header layout (all little-endian, offsets in bytes):
//
//   [0,4)   magic           "CPGN" (0x4E475043)
//   [4,6)   format version  currently 1
//   [6,7)   frame type      FrameType
//   [7,8)   flags           kFlagEndStream
//   [8,16)  stream id       one id per in-flight request
//   [16,20) payload length  capped at kMaxFramePayload
//   [20,24) checksum        CRC-32 over header[0,20) ++ payload
//
// Decoding mirrors cpg/binary_io.h: typed Status errors, never
// exceptions, and every field validated before the payload is
// trusted. A checksum mismatch is kDataLoss (the bytes were damaged
// in flight); everything else malformed is kInvalidArgument.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace inspector::net {

/// "CPGN" when the four magic bytes are read in file order.
inline constexpr std::uint32_t kFrameMagic = 0x4E475043;
/// Bumped on any incompatible header or framing change.
inline constexpr std::uint16_t kFrameFormatVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 24;
/// Hard ceiling on a single frame's payload. Larger replies are split
/// into multiple Data frames (kFlagEndStream marks the last one), so
/// a decoder never has to trust an absurd length field.
inline constexpr std::uint32_t kMaxFramePayload = 64u * 1024 * 1024;

enum class FrameType : std::uint8_t {
  kData = 0,      ///< request/reply bytes for one stream
  kSettings = 1,  ///< reserved in format 1; receivers ignore it
  kGoodbye = 2,   ///< drain: no new streams, finish in-flight, close
  kPing = 3,      ///< reserved in format 1; receivers ignore it
  kCancel = 4,    ///< tear down one stream; no reply will be sent
  kError = 5,     ///< fatal connection-level error (payload = message)
  kTrace = 6,     ///< trace context for the next stream on this link
                  ///< (JSON; sent only when tracing is enabled)
};
inline constexpr std::uint8_t kMaxFrameType =
    static_cast<std::uint8_t>(FrameType::kTrace);

[[nodiscard]] const char* to_string(FrameType type) noexcept;

/// Last frame of a stream in this direction (request fully sent /
/// reply fully sent).
inline constexpr std::uint8_t kFlagEndStream = 0x01;
/// Flags a version-1 decoder understands; anything else is rejected.
inline constexpr std::uint8_t kKnownFlags = kFlagEndStream;

struct FrameHeader {
  std::uint16_t version = kFrameFormatVersion;
  FrameType type = FrameType::kData;
  std::uint8_t flags = 0;
  std::uint64_t stream_id = 0;
  std::uint32_t payload_length = 0;
  std::uint32_t checksum = 0;

  [[nodiscard]] bool end_stream() const noexcept {
    return (flags & kFlagEndStream) != 0;
  }
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Incremental CRC-32 (IEEE reflected polynomial 0xEDB88320). Start
/// from kCrc32Init, fold in byte runs, finish with crc32_finalize.
/// CRC-32 (not a hash) because it guarantees detection of any
/// single-bit flip -- which is exactly what the bit-flip sweep tests.
inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFu;
[[nodiscard]] std::uint32_t crc32_update(
    std::uint32_t state, std::span<const std::uint8_t> bytes) noexcept;
[[nodiscard]] inline std::uint32_t crc32_finalize(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

/// Encode one frame (header + payload) onto `out`. The payload must
/// fit kMaxFramePayload; callers split larger bodies across frames.
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint8_t flags, std::uint64_t stream_id,
                  std::span<const std::uint8_t> payload);
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint8_t flags, std::uint64_t stream_id,
                  std::string_view payload);

/// Decode a header from exactly kFrameHeaderSize bytes. Validates
/// magic, version, type, flags, and the payload cap; the checksum is
/// verified separately once the payload has arrived (verify_frame).
[[nodiscard]] Result<FrameHeader> decode_header(
    std::span<const std::uint8_t> bytes);

/// Checksum check: `header_bytes` is the same 24-byte span the header
/// was decoded from, `payload` the following header.payload_length
/// bytes. kDataLoss on mismatch.
[[nodiscard]] Status verify_frame(const FrameHeader& header,
                                  std::span<const std::uint8_t> header_bytes,
                                  std::span<const std::uint8_t> payload);

/// One-shot decode of the frame starting at `pos`, advancing `pos`
/// past it on success. For buffered transports and tests; the socket
/// channel reads header and payload separately.
[[nodiscard]] Result<Frame> decode_frame(std::span<const std::uint8_t> bytes,
                                         std::size_t& pos);

}  // namespace inspector::net
