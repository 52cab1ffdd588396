#include "snapshot/compress.h"

#include <cstring>
#include <limits>
#include <string>

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

}  // namespace

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
  const std::uint64_t checksum = fnv1a(input);
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
  std::vector<std::uint8_t> out;
  out.reserve(expected);
  std::size_t pos = kBlockHeaderBytes;

  bool truncated = false;
  auto read_byte = [&]() -> std::uint8_t {
    if (pos >= block.size()) {
      truncated = true;
      return 0;
    }
    return block[pos++];
  };
  auto read_length = [&](std::size_t start) -> std::size_t {
    std::size_t len = start;
    if (start == 15) {
      std::uint8_t b;
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
    out.insert(out.end(), block.begin() + static_cast<std::ptrdiff_t>(pos),
               block.begin() + static_cast<std::ptrdiff_t>(pos + lit_len));
    pos += lit_len;
    if (out.size() >= expected) {
      // Only the final trailing-literal sequence can complete the
      // output, and the encoder always writes its match nibble as 0.
      // Anything else is a corrupt byte the decode would otherwise
      // never look at.
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
    const std::size_t match_len = read_length(token & 0x0F) + kMinMatch;
    if (truncated) return corrupt("truncated match length");
    if (out.size() + match_len > expected) {
      return corrupt("match overruns the decoded size");
    }
    // Byte-by-byte copy: matches may overlap their own output (RLE).
    std::size_t src = out.size() - offset;
    for (std::size_t i = 0; i < match_len; ++i) {
      out.push_back(out[src + i]);
    }
  }
  if (out.size() != expected) {
    return corrupt("size mismatch after decompress");
  }
  if (pos != block.size()) {
    return corrupt(std::to_string(block.size() - pos) +
                   " byte(s) of trailing garbage after the final sequence");
  }
  if (fnv1a(out) != checksum) {
    // Content damage, not a malformed request: the block parsed but
    // the decoded bytes are not what was stored.
    return Status(StatusCode::kDataLoss,
                  "lz: decoded-bytes checksum mismatch");
  }
  return out;
}

double compression_ratio(std::uint64_t uncompressed,
                         std::uint64_t compressed) {
  if (compressed == 0) {
    return uncompressed == 0 ? 1.0
                             : std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(uncompressed) / static_cast<double>(compressed);
}

}  // namespace inspector::snapshot
