// LEB128 varints and delta codecs for the monotone integer sequences
// that dominate the on-disk formats.
//
// Page sets, global-id sidecars, and frontier edge indices are sorted
// (most strictly ascending), and hb-rank/level sidecars are
// small-delta in local-id order -- the textbook inputs for
// delta+varint packing. Encoding them this way shrinks shard files
// directly *and* hands the LZ codec a lower-entropy stream, so the two
// savings compound. This header is the one shared implementation:
// every format (cpg/serialize, the shard store, the journal) encodes
// through these helpers, and every decode goes through one checked
// path that turns truncation, overlong (non-canonical) encodings, and
// accumulator overflow into typed Status errors instead of silently
// wrong integers.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace inspector::util {

/// A u64 varint needs at most 10 LEB128 bytes (ceil(64/7)).
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Append `v` as a canonical LEB128 varint (7 value bits per byte,
/// high bit = continuation, least-significant group first).
inline void put_uvarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Decode one varint from `in` at `pos`, advancing `pos` past it on
/// success. Rejects, as typed kInvalidArgument:
///   - truncation (the continuation bit runs off the buffer),
///   - overflow (an encoding wider than 64 bits),
///   - overlong encodings (a final zero group, e.g. 0x80 0x00 for 0):
///     every value has exactly one valid encoding, so corrupt bytes
///     cannot alias to a shorter valid stream.
[[nodiscard]] inline Status get_uvarint(std::span<const std::uint8_t> in,
                                        std::size_t& pos, std::uint64_t& v) {
  std::uint64_t result = 0;
  unsigned shift = 0;
  std::size_t p = pos;
  for (;;) {
    if (p >= in.size()) {
      return {StatusCode::kInvalidArgument,
              "truncated varint at offset " + std::to_string(pos)};
    }
    const std::uint8_t byte = in[p++];
    if (shift == 63 && byte > 1) {
      return {StatusCode::kInvalidArgument,
              "varint overflows u64 at offset " + std::to_string(pos)};
    }
    result |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      if (byte == 0 && shift != 0) {
        return {StatusCode::kInvalidArgument,
                "overlong varint encoding at offset " + std::to_string(pos)};
      }
      pos = p;
      v = result;
      return Status::Ok();
    }
    shift += 7;
    if (shift > 63) {
      return {StatusCode::kInvalidArgument,
              "varint overflows u64 at offset " + std::to_string(pos)};
    }
  }
}

/// Zigzag-fold a signed delta so small magnitudes of either sign get
/// short varints: 0,-1,1,-2,2,... -> 0,1,2,3,4,...
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

// --- sequence codecs --------------------------------------------------
//
// Both codecs are self-framing: a leading count varint, then one
// varint per element. The monotone codec requires strictly ascending
// input (sorted-unique page sets, global-id tables, edge indices) and
// stores delta-1, so consecutive ids cost one byte each; the zigzag
// codec takes any sequence (rank/level sidecars are near-sorted but
// not monotone in local-id order) and stores the signed
// difference-of-neighbors, wrapping mod 2^64, so it can never fail.

/// Encode a strictly ascending u64 sequence. Returns
/// kInvalidArgument naming the offending index when the input is not
/// strictly ascending (the delta-1 would underflow) -- writer bugs
/// surface at encode time, not as a corrupt file.
[[nodiscard]] inline Status put_monotone(std::vector<std::uint8_t>& out,
                                         std::span<const std::uint64_t> v) {
  put_uvarint(out, v.size());
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i == 0) {
      put_uvarint(out, v[0]);
    } else {
      if (v[i] <= prev) {
        return {StatusCode::kInvalidArgument,
                "non-monotone sequence: delta underflow at index " +
                    std::to_string(i)};
      }
      put_uvarint(out, v[i] - prev - 1);
    }
    prev = v[i];
  }
  return Status::Ok();
}

/// Store a decoded sequence value into an element of `out`'s type:
/// Ok when it fits, else kInvalidArgument naming the value and index
/// (a u32 sidecar decodes straight into its array and rejects values
/// no writer of it can have produced).
template <typename Vec>
[[nodiscard]] inline Status store_element(Vec& out, std::uint64_t i,
                                          std::uint64_t value) {
  using T = typename Vec::value_type;
  if constexpr (sizeof(T) < sizeof(std::uint64_t)) {
    if (value > std::numeric_limits<T>::max()) {
      return {StatusCode::kInvalidArgument,
              "sequence value " + std::to_string(value) + " at index " +
                  std::to_string(i) + " does not fit " +
                  std::to_string(8 * sizeof(T)) + " bits"};
    }
  }
  out[i] = static_cast<T>(value);
  return Status::Ok();
}

/// Decode a monotone sequence into `out` (replacing its contents), a
/// vector of u64 or of a narrower unsigned type (values past it are
/// typed errors). The count is checked against the bytes actually
/// available (every element needs at least one byte), so a corrupt
/// count can never drive a huge reserve(); an accumulator that would
/// pass u64 max is a typed error, so the strictly-ascending invariant
/// holds for every sequence this returns.
template <typename Vec>
[[nodiscard]] inline Status get_monotone(std::span<const std::uint8_t> in,
                                         std::size_t& pos, Vec& out) {
  std::uint64_t n = 0;
  if (Status st = get_uvarint(in, pos, n); !st.ok()) return st;
  if (n > in.size() - pos) {
    return {StatusCode::kInvalidArgument,
            "implausible monotone sequence length " + std::to_string(n) +
                " with " + std::to_string(in.size() - pos) + " bytes left"};
  }
  // Sized up front so the hot loop writes through a raw index -- no
  // per-element capacity check. A failed decode truncates `out` back
  // to the elements actually produced before returning the error.
  out.clear();
  out.resize(n);
  const std::size_t size = in.size();
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t d = 0;
    // One-byte fast path: dense sequences are almost all single-byte
    // deltas, and a byte below 0x80 is a complete canonical varint.
    if (pos < size && in[pos] < 0x80) {
      d = in[pos++];
    } else if (Status st = get_uvarint(in, pos, d); !st.ok()) {
      out.resize(i);
      return st;
    }
    std::uint64_t value;
    if (i == 0) {
      value = d;
    } else {
      if (prev == ~std::uint64_t{0} || d > ~std::uint64_t{0} - prev - 1) {
        out.resize(i);
        return {StatusCode::kInvalidArgument,
                "monotone sequence overflows u64 at index " +
                    std::to_string(i)};
      }
      value = prev + d + 1;
    }
    if (Status st = store_element(out, i, value); !st.ok()) {
      out.resize(i);
      return st;
    }
    prev = value;
  }
  return Status::Ok();
}

/// Encode any u64 sequence as zigzag varints of the wrapping
/// difference-of-neighbors. Total: unlike the monotone codec there is
/// no invalid input.
inline void put_zigzag_delta(std::vector<std::uint8_t>& out,
                             std::span<const std::uint64_t> v) {
  put_uvarint(out, v.size());
  std::uint64_t prev = 0;
  for (std::uint64_t x : v) {
    put_uvarint(out, zigzag_encode(static_cast<std::int64_t>(x - prev)));
    prev = x;
  }
}

/// Decode a zigzag-delta sequence into `out` (replacing its
/// contents; u64 or narrower elements, as get_monotone). Deltas
/// accumulate mod 2^64, mirroring the encoder, so every byte-valid
/// stream round-trips exactly.
template <typename Vec>
[[nodiscard]] inline Status get_zigzag_delta(std::span<const std::uint8_t> in,
                                             std::size_t& pos, Vec& out) {
  std::uint64_t n = 0;
  if (Status st = get_uvarint(in, pos, n); !st.ok()) return st;
  if (n > in.size() - pos) {
    return {StatusCode::kInvalidArgument,
            "implausible zigzag sequence length " + std::to_string(n) +
                " with " + std::to_string(in.size() - pos) + " bytes left"};
  }
  // Same sized-up-front + one-byte fast path as get_monotone.
  out.clear();
  out.resize(n);
  const std::size_t size = in.size();
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t z = 0;
    if (pos < size && in[pos] < 0x80) {
      z = in[pos++];
    } else if (Status st = get_uvarint(in, pos, z); !st.ok()) {
      out.resize(i);
      return st;
    }
    prev += static_cast<std::uint64_t>(zigzag_decode(z));
    if (Status st = store_element(out, i, prev); !st.ok()) {
      out.resize(i);
      return st;
    }
  }
  return Status::Ok();
}

}  // namespace inspector::util
