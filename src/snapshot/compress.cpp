#include "snapshot/compress.h"

#include <bit>
#include <cstring>
#include <limits>
#include <string>

#include "cpg/binary_io.h"
#include "util/failpoint.h"

namespace inspector::snapshot {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashBits = 16;
constexpr std::size_t kHashSize = 1u << kHashBits;

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void write_length(std::vector<std::uint8_t>& out, std::size_t len) {
  while (len >= 255) {
    out.push_back(255);
    len -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(len));
}

Status corrupt(const std::string& what) {
  return Status(StatusCode::kInvalidArgument, "lz: " + what);
}

Status offset_outside_window(std::size_t offset, std::size_t window) {
  return corrupt("match offset " + std::to_string(offset) +
                 " reaches before the window start (window " +
                 std::to_string(window) + ")");
}

// stripe_hash: odd 64-bit multipliers (a multiplication by an odd
// constant is a bijection mod 2^64). The hash wraps on purpose, so
// clang's unsigned-overflow check (the integer-sanitizer build) is off
// for the functions doing its arithmetic.
#if defined(__clang__)
#define INSPECTOR_MODULAR [[clang::no_sanitize("unsigned-integer-overflow")]]
#else
#define INSPECTOR_MODULAR
#endif
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

/// One lane step: add the scaled word, rotate, scale. Each operation
/// is a bijection, of the word for a fixed lane and of the lane for a
/// fixed word.
INSPECTOR_MODULAR std::uint64_t lane_step(std::uint64_t lane,
                                          std::uint64_t word) noexcept {
  return std::rotl(lane + word * kP2, 31) * kP1;
}

/// Fold one 64-bit value into the running hash: a bijection of the
/// value for a fixed hash, and of the hash for a fixed value.
INSPECTOR_MODULAR std::uint64_t fold(std::uint64_t h,
                                     std::uint64_t value) noexcept {
  return std::rotl(h ^ lane_step(0, value), 27) * kP1 + kP4;
}

/// A match of `len` bytes from `offset` back, written at `op` with at
/// least `room` bytes writable there (room >= len). Offsets of 8 and
/// more copy 8 bytes at a time -- each chunk reads bytes written before
/// it -- overshooting up to 7 bytes when the room allows (the next
/// sequence overwrites them); shorter offsets repeat a pattern narrower
/// than a word and copy byte by byte.
void copy_match(std::uint8_t* op, std::size_t offset, std::size_t len,
                std::size_t room) noexcept {
  const std::uint8_t* src = op - offset;
  std::uint8_t* const end = op + len;
  if (offset < 8) {
    while (op < end) *op++ = *src++;
    return;
  }
  if (room - len >= 7) {
    do {
      std::memcpy(op, src, 8);
      op += 8;
      src += 8;
    } while (op < end);
    return;
  }
  while (end - op >= 8) {
    std::memcpy(op, src, 8);
    op += 8;
    src += 8;
  }
  std::memcpy(op, src, static_cast<std::size_t>(end - op));
}

}  // namespace

INSPECTOR_MODULAR std::uint64_t stripe_hash(
    std::span<const std::uint8_t> bytes) noexcept {
  const std::uint8_t* p = bytes.data();
  const std::uint8_t* const end = p + bytes.size();
  std::uint64_t v1 = kP1 + kP2;
  std::uint64_t v2 = kP2;
  std::uint64_t v3 = 0;
  std::uint64_t v4 = ~kP1 + 1;  // -kP1 mod 2^64
  // Four independent dependency chains, one 8-byte word each per
  // 32-byte stripe.
  for (; end - p >= 32; p += 32) {
    v1 = lane_step(v1, cpg::detail::load_u64(p));
    v2 = lane_step(v2, cpg::detail::load_u64(p + 8));
    v3 = lane_step(v3, cpg::detail::load_u64(p + 16));
    v4 = lane_step(v4, cpg::detail::load_u64(p + 24));
  }
  std::uint64_t h = kP5 + static_cast<std::uint64_t>(bytes.size());
  h = fold(h, v1);
  h = fold(h, v2);
  h = fold(h, v3);
  h = fold(h, v4);
  // The tail under a stripe: whole words, then a 4-byte chunk, then
  // bytes, each folded by a step that is a bijection of its input.
  for (; end - p >= 8; p += 8) h = fold(h, cpg::detail::load_u64(p));
  if (end - p >= 4) {
    h = std::rotl(h ^ (cpg::detail::load_u32(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
  // Final mix: xor-shifts and odd multiplies, each invertible.
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::vector<std::uint8_t> compress(std::span<const std::uint8_t> input) {
  std::vector<std::uint8_t> out;
  // Header: decoded size + decoded-bytes checksum (both u64 LE).
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(input.size() >> (8 * i)));
  }
  const std::uint64_t checksum = stripe_hash(input);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(checksum >> (8 * i)));
  }
  if (input.empty()) return out;

  std::vector<std::uint32_t> table(kHashSize, 0xFFFFFFFFu);
  const std::uint8_t* base = input.data();
  std::size_t pos = 0;
  std::size_t literal_start = 0;

  auto emit_sequence = [&](std::size_t lit_len, std::size_t match_len,
                           std::size_t offset) {
    // Token: high nibble literal length, low nibble match length - 4;
    // 15 in a nibble means "extended length byte(s) follow".
    const std::uint8_t lit_nibble =
        static_cast<std::uint8_t>(lit_len >= 15 ? 15 : lit_len);
    const std::size_t m = match_len == 0 ? 0 : match_len - kMinMatch;
    const std::uint8_t match_nibble =
        static_cast<std::uint8_t>(match_len == 0 ? 0
                                  : (m >= 15 ? 15 : m + 0));
    out.push_back(static_cast<std::uint8_t>((lit_nibble << 4) | match_nibble));
    if (lit_len >= 15) write_length(out, lit_len - 15);
    out.insert(out.end(), base + literal_start, base + literal_start + lit_len);
    if (match_len != 0) {
      out.push_back(static_cast<std::uint8_t>(offset));
      out.push_back(static_cast<std::uint8_t>(offset >> 8));
      if (m >= 15) write_length(out, m - 15);
    }
  };

  while (pos + kMinMatch <= input.size()) {
    const std::uint32_t h = hash4(base + pos);
    const std::uint32_t candidate = table[h];
    table[h] = static_cast<std::uint32_t>(pos);

    std::size_t match_len = 0;
    std::size_t offset = 0;
    if (candidate != 0xFFFFFFFFu && pos - candidate <= kMaxOffset &&
        std::memcmp(base + candidate, base + pos, kMinMatch) == 0) {
      offset = pos - candidate;
      match_len = kMinMatch;
      while (pos + match_len < input.size() &&
             base[candidate + match_len] == base[pos + match_len]) {
        ++match_len;
      }
    }
    if (match_len >= kMinMatch) {
      emit_sequence(pos - literal_start, match_len, offset);
      pos += match_len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  // Trailing literals. When the input ends exactly on a match there is
  // nothing left: emitting an empty-literal token here would be a byte
  // the decoder (which stops once the decoded size is reached) never
  // consumes, tripping its trailing-garbage check on a valid block.
  if (literal_start != input.size()) {
    emit_sequence(input.size() - literal_start, 0, 0);
  }
  return out;
}

Result<std::vector<std::uint8_t>> decompress_checked(
    std::span<const std::uint8_t> block) {
  if (util::failpoint_check("snapshot.decompress")) {
    return Status(StatusCode::kDataLoss,
                  "lz: injected decode failure (failpoint)");
  }
  if (block.size() < kBlockHeaderBytes) return corrupt("truncated header");
  std::uint64_t expected = 0;
  std::uint64_t checksum = 0;
  for (int i = 0; i < 8; ++i) {
    expected |= static_cast<std::uint64_t>(block[static_cast<std::size_t>(i)])
                << (8 * i);
    checksum |= static_cast<std::uint64_t>(
                    block[static_cast<std::size_t>(i) + 8])
                << (8 * i);
  }
  // Plausibility fence before reserving anything: one payload byte can
  // contribute at most 255 decoded bytes (a length-extension byte), so
  // a declared size beyond that is a corrupt header, not a block that
  // deserves a multi-gigabyte allocation.
  const std::size_t payload = block.size() - kBlockHeaderBytes;
  if (expected > 255 * static_cast<std::uint64_t>(payload) + 14) {
    return corrupt("implausible decoded size " + std::to_string(expected) +
                   " for a " + std::to_string(payload) + "-byte payload");
  }
  // Sized once: every sequence below writes in place, and the checks
  // keep every write inside [0, expected).
  std::vector<std::uint8_t> out(static_cast<std::size_t>(expected));
  std::uint8_t* const base = out.data();
  std::uint8_t* const out_end = base + out.size();
  std::uint8_t* op = base;
  const std::uint8_t* ip = block.data() + kBlockHeaderBytes;
  const std::uint8_t* const in_end = block.data() + block.size();

  // A nibble of 15 continues in 255-runs of extension bytes; false when
  // the block ends inside the run.
  const auto extend = [&](std::size_t& len) {
    std::uint8_t b = 0;
    do {
      if (ip == in_end) return false;
      b = *ip++;
      len += b;
    } while (b == 255);
    return true;
  };

  while (op < out_end) {
    if (ip == in_end) return corrupt("truncated block");
    const std::uint8_t token = *ip++;
    std::size_t lit_len = token >> 4;
    // Fast path for the common short sequence -- neither nibble
    // extended, a window of input and output ahead -- where none of
    // the checks below but the offset's can fail: one 16-byte literal
    // copy, then a match of at most 18 bytes in 8-byte chunks (offsets
    // below 8 byte by byte). It decodes a word_count@10 shard block
    // (57k sequences, most under 8 literal and 9 match bytes) in
    // 353-374 us, against 398-420 us with the general path alone and
    // 384-394 us with only the literal copy specialized (Release,
    // 4-vCPU VM).
    if (lit_len < 15 && (token & 0x0F) < 15 && in_end - ip >= 32 &&
        out_end - op >= 64) {
      std::memcpy(op, ip, 16);
      op += lit_len;
      ip += lit_len;
      const std::size_t offset = static_cast<std::size_t>(ip[0]) |
                                 (static_cast<std::size_t>(ip[1]) << 8);
      ip += 2;
      const auto window = static_cast<std::size_t>(op - base);
      if (offset == 0 || offset > window) {
        return offset_outside_window(offset, window);
      }
      const std::size_t match_len = (token & 0x0F) + kMinMatch;
      if (offset >= 8) {
        // Most matches end inside the first chunk; later chunks only
        // run when needed (a chunk reading the one just written would
        // stall the store forwarding).
        const std::uint8_t* src = op - offset;
        std::memcpy(op, src, 8);
        if (match_len > 8) {
          std::memcpy(op + 8, src + 8, 8);
          if (match_len > 16) std::memcpy(op + 16, src + 16, 8);
        }
      } else {
        copy_match(op, offset, match_len, match_len);
      }
      op += match_len;
      continue;
    }
    if (lit_len == 15 && !extend(lit_len)) return corrupt("truncated block");
    if (lit_len > static_cast<std::size_t>(in_end - ip)) {
      return corrupt("truncated literals");
    }
    const auto room = static_cast<std::size_t>(out_end - op);
    if (lit_len >= room) {
      // Only the final trailing-literal sequence can complete the
      // output, and the encoder always writes its match nibble as 0.
      // Anything else is a corrupt byte the decode would otherwise
      // never look at.
      if ((token & 0x0F) != 0) {
        return corrupt("final sequence declares a match");
      }
      if (lit_len > room) return corrupt("size mismatch after decompress");
      std::memcpy(op, ip, lit_len);
      op += lit_len;
      ip += lit_len;
      break;
    }
    // A short run copies one 16-byte chunk when both buffers have the
    // room; the bytes past the run are overwritten by what follows.
    if (lit_len <= 16 && room >= 16 && in_end - ip >= 16) {
      std::memcpy(op, ip, 16);
    } else {
      std::memcpy(op, ip, lit_len);
    }
    op += lit_len;
    ip += lit_len;

    if (in_end - ip < 2) return corrupt("truncated match offset");
    const std::size_t offset =
        static_cast<std::size_t>(ip[0]) | (static_cast<std::size_t>(ip[1]) << 8);
    ip += 2;
    const auto window = static_cast<std::size_t>(op - base);
    if (offset == 0 || offset > window) {
      return offset_outside_window(offset, window);
    }
    std::size_t match_len = token & 0x0F;
    if (match_len == 15 && !extend(match_len)) {
      return corrupt("truncated match length");
    }
    match_len += kMinMatch;
    const auto match_room = static_cast<std::size_t>(out_end - op);
    if (match_len > match_room) {
      return corrupt("match overruns the decoded size");
    }
    copy_match(op, offset, match_len, match_room);
    op += match_len;
  }
  if (ip != in_end) {
    return corrupt(std::to_string(in_end - ip) +
                   " byte(s) of trailing garbage after the final sequence");
  }
  if (stripe_hash(out) != checksum) {
    // Content damage, not a malformed request: the block parsed but
    // the decoded bytes are not what was stored.
    return Status(StatusCode::kDataLoss,
                  "lz: decoded-bytes checksum mismatch");
  }
  return out;
}

namespace detail {

Result<std::vector<std::uint8_t>> decompress_bytewise(
    std::span<const std::uint8_t> block) {
  if (block.size() < kBlockHeaderBytes) return corrupt("truncated header");
  std::uint64_t expected = 0;
  std::uint64_t checksum = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    expected |= static_cast<std::uint64_t>(block[i]) << (8 * i);
    checksum |= static_cast<std::uint64_t>(block[i + 8]) << (8 * i);
  }
  const std::size_t payload = block.size() - kBlockHeaderBytes;
  if (expected > 255 * static_cast<std::uint64_t>(payload) + 14) {
    return corrupt("implausible decoded size " + std::to_string(expected) +
                   " for a " + std::to_string(payload) + "-byte payload");
  }
  std::vector<std::uint8_t> out;
  out.reserve(expected);
  std::size_t pos = kBlockHeaderBytes;
  bool truncated = false;
  const auto read_byte = [&]() -> std::uint8_t {
    if (pos >= block.size()) {
      truncated = true;
      return 0;
    }
    return block[pos++];
  };
  const auto read_length = [&](std::size_t start) {
    std::size_t len = start;
    if (start == 15) {
      std::uint8_t b = 0;
      do {
        b = read_byte();
        len += b;
      } while (b == 255 && !truncated);
    }
    return len;
  };
  while (out.size() < expected) {
    const std::uint8_t token = read_byte();
    const std::size_t lit_len = read_length(token >> 4);
    if (truncated) return corrupt("truncated block");
    if (pos + lit_len > block.size()) return corrupt("truncated literals");
    for (std::size_t i = 0; i < lit_len; ++i) out.push_back(block[pos++]);
    if (out.size() >= expected) {
      if ((token & 0x0F) != 0) {
        return corrupt("final sequence declares a match");
      }
      break;
    }
    const std::size_t lo = read_byte();
    const std::size_t hi = read_byte();
    if (truncated) return corrupt("truncated match offset");
    const std::size_t offset = lo | (hi << 8);
    if (offset == 0 || offset > out.size()) {
      return corrupt("match offset " + std::to_string(offset) +
                     " reaches before the window start (window " +
                     std::to_string(out.size()) + ")");
    }
    const std::size_t match_len = read_length(token & 0x0F) + 4;
    if (truncated) return corrupt("truncated match length");
    if (out.size() + match_len > expected) {
      return corrupt("match overruns the decoded size");
    }
    const std::size_t src = out.size() - offset;
    for (std::size_t i = 0; i < match_len; ++i) out.push_back(out[src + i]);
  }
  if (out.size() != expected) return corrupt("size mismatch after decompress");
  if (pos != block.size()) {
    return corrupt(std::to_string(block.size() - pos) +
                   " byte(s) of trailing garbage after the final sequence");
  }
  if (stripe_hash(out) != checksum) {
    return Status(StatusCode::kDataLoss,
                  "lz: decoded-bytes checksum mismatch");
  }
  return out;
}

}  // namespace detail

double compression_ratio(std::uint64_t uncompressed,
                         std::uint64_t compressed) {
  if (compressed == 0) {
    return uncompressed == 0 ? 1.0
                             : std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(uncompressed) / static_cast<double>(compressed);
}

}  // namespace inspector::snapshot
