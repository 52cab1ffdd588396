// Varint/delta codec tests: round-trip properties over randomized
// monotone and arbitrary sequences, the typed-error cases (truncated
// varint, overlong encoding, non-monotone delta underflow at encode,
// accumulator overflow at decode, u64 max), and a bit-flip sweep in
// the spirit of compress_test.cpp -- the codec has no checksum, so the
// sweep asserts canonicality instead: every flipped stream either
// fails typed or decodes to a *different* sequence whose unique
// re-encoding reproduces the flipped bytes exactly.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <span>

#include "util/varint.h"

namespace {

using inspector::Status;
using inspector::StatusCode;
using namespace inspector::util;

std::uint64_t decode_one(const std::vector<std::uint8_t>& bytes) {
  std::size_t pos = 0;
  std::uint64_t v = 0;
  const Status st = get_uvarint(bytes, pos, v);
  EXPECT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(pos, bytes.size());
  return v;
}

TEST(Varint, SingleValueRoundTrips) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{127}, std::uint64_t{128},
                          std::uint64_t{16383}, std::uint64_t{16384},
                          std::uint64_t{1} << 32, ~std::uint64_t{0} - 1,
                          ~std::uint64_t{0}}) {
    std::vector<std::uint8_t> bytes;
    put_uvarint(bytes, v);
    EXPECT_EQ(decode_one(bytes), v);
  }
}

TEST(Varint, EncodedSizeMatchesMagnitude) {
  std::vector<std::uint8_t> bytes;
  put_uvarint(bytes, 0x7F);
  EXPECT_EQ(bytes.size(), 1u);
  bytes.clear();
  put_uvarint(bytes, 0x80);
  EXPECT_EQ(bytes.size(), 2u);
  bytes.clear();
  put_uvarint(bytes, ~std::uint64_t{0});
  EXPECT_EQ(bytes.size(), kMaxVarintBytes);
}

TEST(Varint, TruncatedIsTypedError) {
  std::vector<std::uint8_t> bytes;
  put_uvarint(bytes, 300);  // two bytes
  ASSERT_EQ(bytes.size(), 2u);
  bytes.resize(1);  // continuation bit set, no next byte
  std::size_t pos = 0;
  std::uint64_t v = 0;
  const Status st = get_uvarint(bytes, pos, v);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("truncated varint"), std::string::npos)
      << st.message();
  // The empty buffer is the degenerate truncation.
  pos = 0;
  EXPECT_FALSE(get_uvarint(std::span<const std::uint8_t>{}, pos, v).ok());
}

TEST(Varint, OverlongEncodingIsTypedError) {
  // 0x80 0x00 decodes to 0 but spends two bytes: non-canonical.
  const std::vector<std::uint8_t> overlong = {0x80, 0x00};
  std::size_t pos = 0;
  std::uint64_t v = 0;
  const Status st = get_uvarint(overlong, pos, v);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("overlong"), std::string::npos) << st.message();
  // A longer zero tail is just as overlong.
  const std::vector<std::uint8_t> longer = {0xFF, 0x80, 0x00};
  pos = 0;
  EXPECT_FALSE(get_uvarint(longer, pos, v).ok());
}

TEST(Varint, WiderThan64BitsIsTypedError) {
  // Ten continuation bytes followed by anything: > 64 bits of payload.
  std::vector<std::uint8_t> wide(10, 0xFF);
  wide.push_back(0x01);
  std::size_t pos = 0;
  std::uint64_t v = 0;
  const Status st = get_uvarint(wide, pos, v);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("overflows u64"), std::string::npos)
      << st.message();
  // A 10th byte carrying more than bit 63 overflows too.
  std::vector<std::uint8_t> top(9, 0xFF);
  top.push_back(0x02);
  pos = 0;
  EXPECT_FALSE(get_uvarint(top, pos, v).ok());
  // ...while exactly bit 63 is u64 max, which must round-trip.
  std::vector<std::uint8_t> max_bytes;
  put_uvarint(max_bytes, ~std::uint64_t{0});
  EXPECT_EQ(decode_one(max_bytes), ~std::uint64_t{0});
}

TEST(Varint, SequentialDecodeAdvancesPosition) {
  std::vector<std::uint8_t> bytes;
  const std::vector<std::uint64_t> values = {0, 127, 128, 99999,
                                             ~std::uint64_t{0}};
  for (std::uint64_t v : values) put_uvarint(bytes, v);
  std::size_t pos = 0;
  for (std::uint64_t expected : values) {
    std::uint64_t v = 0;
    ASSERT_TRUE(get_uvarint(bytes, pos, v).ok());
    EXPECT_EQ(v, expected);
  }
  EXPECT_EQ(pos, bytes.size());
}

TEST(Varint, ZigzagFoldsSmallMagnitudes) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
                         std::int64_t{1} << 40, -(std::int64_t{1} << 40),
                         std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
}

std::vector<std::uint64_t> random_monotone(std::mt19937_64& rng,
                                           std::size_t len,
                                           std::uint64_t max_gap) {
  std::vector<std::uint64_t> v;
  v.reserve(len);
  std::uint64_t cur = rng() % 1000;
  for (std::size_t i = 0; i < len; ++i) {
    v.push_back(cur);
    cur += 1 + rng() % max_gap;
  }
  return v;
}

TEST(Monotone, RandomizedSequencesRoundTrip) {
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t len = rng() % 300;
    // Mix dense (gap 1-2: consecutive pages) and sparse sequences.
    const std::uint64_t max_gap = iter % 2 == 0 ? 2 : 1 + rng() % (1 << 20);
    const auto v = random_monotone(rng, len, max_gap);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(put_monotone(bytes, v).ok());
    std::size_t pos = 0;
    std::vector<std::uint64_t> back;
    const Status st = get_monotone(bytes, pos, back);
    ASSERT_TRUE(st.ok()) << st.message();
    EXPECT_EQ(back, v);
    EXPECT_EQ(pos, bytes.size());
  }
}

TEST(Monotone, DenseSequencesPackToOneBytePerElement) {
  // Consecutive ids (delta-1 == 0) are the common page-bucket shape.
  std::vector<std::uint64_t> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 5000 + i;
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(put_monotone(bytes, v).ok());
  // count (2B) + first value (2B) + 999 zero deltas (1B each).
  EXPECT_LE(bytes.size(), 4 + (v.size() - 1));
  // vs 8 bytes per element raw: an 8x shrink on this shape.
  EXPECT_LT(bytes.size() * 7, v.size() * 8);
}

TEST(Monotone, U64MaxRoundTrips) {
  const std::vector<std::uint64_t> v = {0, 1, ~std::uint64_t{0} - 1,
                                        ~std::uint64_t{0}};
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(put_monotone(bytes, v).ok());
  std::size_t pos = 0;
  std::vector<std::uint64_t> back;
  ASSERT_TRUE(get_monotone(bytes, pos, back).ok());
  EXPECT_EQ(back, v);
}

TEST(Monotone, NonMonotoneInputIsATypedEncodeError) {
  std::vector<std::uint8_t> bytes;
  const std::vector<std::uint64_t> descending = {5, 3};
  const Status st = put_monotone(bytes, descending);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("delta underflow"), std::string::npos)
      << st.message();
  // Equal neighbors violate *strict* ascent the same way.
  bytes.clear();
  const std::vector<std::uint64_t> equal = {7, 7};
  EXPECT_FALSE(put_monotone(bytes, equal).ok());
}

TEST(Monotone, AccumulatorOverflowIsATypedDecodeError) {
  // Hand-craft: first value u64 max, then one more delta.
  std::vector<std::uint8_t> bytes;
  put_uvarint(bytes, 2);  // count
  put_uvarint(bytes, ~std::uint64_t{0});
  put_uvarint(bytes, 0);  // would need max + 1
  std::size_t pos = 0;
  std::vector<std::uint64_t> out;
  const Status st = get_monotone(bytes, pos, out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("overflows u64"), std::string::npos)
      << st.message();
}

TEST(Monotone, ImplausibleCountIsRejectedBeforeAllocating) {
  std::vector<std::uint8_t> bytes;
  put_uvarint(bytes, ~std::uint64_t{0} / 2);  // count far beyond the bytes
  put_uvarint(bytes, 1);
  std::size_t pos = 0;
  std::vector<std::uint64_t> out;
  const Status st = get_monotone(bytes, pos, out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("implausible"), std::string::npos)
      << st.message();
}

TEST(Monotone, TruncatedSequenceIsATypedError) {
  std::mt19937_64 rng(7);
  const auto v = random_monotone(rng, 50, 1000);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(put_monotone(bytes, v).ok());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(cut));
    std::size_t pos = 0;
    std::vector<std::uint64_t> out;
    EXPECT_FALSE(get_monotone(prefix, pos, out).ok()) << "cut at " << cut;
  }
}

TEST(ZigzagDelta, ArbitrarySequencesRoundTrip) {
  std::mt19937_64 rng(9);
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<std::uint64_t> v(rng() % 200);
    for (auto& x : v) {
      // Near-sorted small values (rank sidecars) and raw u64 noise.
      x = iter % 2 == 0 ? rng() % 100000 : rng();
    }
    std::vector<std::uint8_t> bytes;
    put_zigzag_delta(bytes, v);
    std::size_t pos = 0;
    std::vector<std::uint64_t> back;
    const Status st = get_zigzag_delta(bytes, pos, back);
    ASSERT_TRUE(st.ok()) << st.message();
    EXPECT_EQ(back, v);
    EXPECT_EQ(pos, bytes.size());
  }
}

TEST(ZigzagDelta, WrappingDeltasRoundTrip) {
  // Max <-> min swings wrap mod 2^64 by design.
  const std::vector<std::uint64_t> v = {~std::uint64_t{0}, 0,
                                        ~std::uint64_t{0}, 1, 0};
  std::vector<std::uint8_t> bytes;
  put_zigzag_delta(bytes, v);
  std::size_t pos = 0;
  std::vector<std::uint64_t> back;
  ASSERT_TRUE(get_zigzag_delta(bytes, pos, back).ok());
  EXPECT_EQ(back, v);
}

TEST(NarrowSequences, U32ArraysDecodeInPlaceAndRejectWideValues) {
  // u32 sidecars decode straight into their arrays: values that fit
  // come back exactly, wrapping zigzag deltas included, and a value
  // past 32 bits -- which no writer of a u32 array produces -- is a
  // typed error naming it, with the array cut back to what decoded.
  constexpr std::uint64_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  const std::vector<std::uint64_t> fits = {0, 7, 8, kMax32 - 1, kMax32};
  const std::vector<std::uint64_t> wide = {1, 2, kMax32 + 1, kMax32 + 2};
  for (const bool monotone : {true, false}) {
    const auto encode = [&](const std::vector<std::uint64_t>& v) {
      std::vector<std::uint8_t> bytes;
      if (monotone) {
        EXPECT_TRUE(put_monotone(bytes, v).ok());
      } else {
        put_zigzag_delta(bytes, v);
      }
      return bytes;
    };
    const auto decode = [&](const std::vector<std::uint8_t>& bytes,
                            std::vector<std::uint32_t>& out) {
      std::size_t pos = 0;
      return monotone ? get_monotone(bytes, pos, out)
                      : get_zigzag_delta(bytes, pos, out);
    };
    std::vector<std::uint32_t> out;
    ASSERT_TRUE(decode(encode(fits), out).ok());
    EXPECT_EQ(std::vector<std::uint64_t>(out.begin(), out.end()), fits);
    const Status st = decode(encode(wide), out);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("4294967296 at index 2 does not fit 32 bits"),
              std::string::npos)
        << st.message();
    EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 2}));
  }
}

TEST(BitFlip, SweepNeverDecodesToTheOriginal) {
  // No checksum here, so the guarantee is canonicality, not
  // detection: a flipped stream either fails typed or decodes to a
  // different sequence whose unique re-encoding IS the flipped bytes.
  std::mt19937_64 rng(1234);
  const auto v = random_monotone(rng, 40, 1 << 14);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(put_monotone(bytes, v).ok());
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    auto corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    std::size_t pos = 0;
    std::vector<std::uint64_t> out;
    const Status st = get_monotone(corrupt, pos, out);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "bit " << bit;
      continue;
    }
    // Decoded cleanly: it must not alias the original sequence, and
    // the decode must have consumed exactly the flipped stream whose
    // re-encoding reproduces it byte for byte.
    EXPECT_NE(out, v) << "bit " << bit << " flipped silently";
    std::vector<std::uint8_t> reencoded;
    ASSERT_TRUE(put_monotone(reencoded, out).ok());
    std::vector<std::uint8_t> consumed(
        corrupt.begin(), corrupt.begin() + static_cast<long>(pos));
    EXPECT_EQ(reencoded, consumed) << "bit " << bit;
  }
}

}  // namespace
