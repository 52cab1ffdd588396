// LZ block-codec tests: round trips on adversarial and realistic
// inputs, malformed-input handling through the typed
// decompress_checked() path (truncations, out-of-window offsets,
// trailing garbage, a full bit-flip sweep), plus the fig-9 claim that
// PT logs compress very well.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ptsim/encoder.h"
#include "ptsim/sink.h"
#include "snapshot/compress.h"

namespace {

using inspector::StatusCode;
using inspector::snapshot::compress;
using inspector::snapshot::compression_ratio;
using inspector::snapshot::decompress_checked;
using inspector::snapshot::kBlockHeaderBytes;

/// Decode through the typed path; a failed decode fails the test.
std::vector<std::uint8_t> unpack(const std::vector<std::uint8_t>& block) {
  auto out = decompress_checked(block);
  EXPECT_TRUE(out.ok()) << out.status().message();
  return out.ok() ? std::move(out).value() : std::vector<std::uint8_t>{};
}

std::vector<std::uint8_t> roundtrip(const std::vector<std::uint8_t>& in) {
  return unpack(compress(in));
}

TEST(Compress, EmptyInput) {
  const std::vector<std::uint8_t> empty;
  EXPECT_EQ(roundtrip(empty), empty);
}

TEST(Compress, SingleByte) {
  const std::vector<std::uint8_t> one = {0x42};
  EXPECT_EQ(roundtrip(one), one);
}

TEST(Compress, AllZeros) {
  const std::vector<std::uint8_t> zeros(100000, 0);
  const auto packed = compress(zeros);
  EXPECT_EQ(unpack(packed), zeros);
  EXPECT_GT(compression_ratio(zeros.size(), packed.size()), 50.0)
      << "RLE-like input must compress massively";
}

TEST(Compress, RepeatingPattern) {
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 5000; ++i) {
    input.push_back(static_cast<std::uint8_t>(i % 7));
  }
  const auto packed = compress(input);
  EXPECT_EQ(unpack(packed), input);
  EXPECT_GT(compression_ratio(input.size(), packed.size()), 10.0);
}

TEST(Compress, IncompressibleRandomSurvives) {
  std::mt19937_64 rng(99);
  std::vector<std::uint8_t> input(65536);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng());
  const auto packed = compress(input);
  EXPECT_EQ(unpack(packed), input);
  // Random data cannot compress; expansion must stay modest.
  EXPECT_LT(packed.size(), input.size() + input.size() / 8 + 64);
}

TEST(Compress, OverlappingMatchRle) {
  // "abcabcabc...": matches overlap their own output.
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 3000; ++i) input.push_back("abc"[i % 3]);
  EXPECT_EQ(roundtrip(input), input);
}

TEST(Compress, LongLiteralRuns) {
  // > 255 literals forces extended length bytes.
  std::mt19937_64 rng(7);
  std::vector<std::uint8_t> input(1000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng());
  EXPECT_EQ(roundtrip(input), input);
}

TEST(Compress, LongMatchRuns) {
  // > 255-byte match forces extended match-length bytes.
  std::vector<std::uint8_t> input(1, 0xAA);
  input.insert(input.end(), 2000, 0xAA);
  EXPECT_EQ(roundtrip(input), input);
}

TEST(Compress, TruncatedBlockIsTypedError) {
  const std::vector<std::uint8_t> input(500, 0x11);
  auto packed = compress(input);
  packed.resize(packed.size() / 2);
  const auto result = decompress_checked(packed);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  const std::vector<std::uint8_t> tiny = {1, 2, 3};
  const auto header_cut = decompress_checked(tiny);
  ASSERT_FALSE(header_cut.ok());
  EXPECT_EQ(header_cut.status().code(), StatusCode::kInvalidArgument);
}

/// A hand-crafted header: decoded size + arbitrary checksum (the
/// crafted bodies below die structurally before the checksum runs).
std::vector<std::uint8_t> header_for(std::uint64_t decoded_size) {
  std::vector<std::uint8_t> block(kBlockHeaderBytes, 0);
  for (int i = 0; i < 8; ++i) {
    block[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(decoded_size >> (8 * i));
  }
  return block;
}

TEST(Compress, OffsetBeforeWindowStartIsTypedError) {
  // A match offset reaching before the start of the decoded window.
  auto block = header_for(16);
  block.push_back(0x10);  // 1 literal, match len 4
  block.push_back(0xAB);  // the literal
  block.push_back(0x50);  // offset 80 > output size 1
  block.push_back(0x00);
  const auto result = decompress_checked(block);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("window start"),
            std::string::npos)
      << result.status().message();
}

TEST(Compress, ZeroOffsetIsTypedError) {
  auto block = header_for(16);
  block.push_back(0x10);
  block.push_back(0xAB);
  block.push_back(0x00);  // offset 0: always invalid
  block.push_back(0x00);
  EXPECT_FALSE(decompress_checked(block).ok());
}

TEST(Compress, TruncatedLengthExtensionIsTypedError) {
  // Literal nibble 15 announces extension bytes that never arrive.
  auto block = header_for(64);
  block.push_back(0xF0);
  const auto ended = decompress_checked(block);
  ASSERT_FALSE(ended.ok());
  EXPECT_EQ(ended.status().code(), StatusCode::kInvalidArgument);

  // A run of 255-extensions cut mid-stream.
  auto run = header_for(2000);
  run.push_back(0xF0);
  run.push_back(255);
  run.push_back(255);
  const auto cut = decompress_checked(run);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kInvalidArgument);
}

TEST(Compress, TrailingGarbageIsTypedError) {
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 600; ++i) input.push_back("provenance"[i % 10]);
  auto packed = compress(input);
  ASSERT_EQ(decompress_checked(packed).value(), input);
  packed.push_back(0x00);
  const auto one = decompress_checked(packed);
  ASSERT_FALSE(one.ok());
  EXPECT_NE(one.status().message().find("trailing garbage"),
            std::string::npos)
      << one.status().message();
  packed.push_back(0xAB);
  packed.push_back(0xCD);
  EXPECT_FALSE(decompress_checked(packed).ok());
}

TEST(Compress, ImplausibleDecodedSizeIsRejectedBeforeAllocating) {
  // A corrupt header declaring an absurd decoded size must fail fast,
  // not reserve gigabytes.
  auto block = header_for(~std::uint64_t{0} / 2);
  block.push_back(0x10);
  block.push_back(0xAB);
  const auto result = decompress_checked(block);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("implausible"),
            std::string::npos)
      << result.status().message();
}

TEST(Compress, BitFlipSweepYieldsTypedErrors) {
  // Flip every bit of a valid block: each flip must surface as a
  // typed error -- structurally (bad token, offset, size) or through
  // the decoded-bytes checksum (a flipped literal decodes cleanly to
  // the wrong output, which only the checksum can catch). Random
  // input keeps the body literal-dominated, so no flip can alias to a
  // second valid encoding of the same bytes.
  std::mt19937_64 rng(1234);
  std::vector<std::uint8_t> input(2048);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng());
  const auto packed = compress(input);
  ASSERT_EQ(decompress_checked(packed).value(), input);
  for (std::size_t bit = 0; bit < packed.size() * 8; ++bit) {
    auto corrupt = packed;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const auto result = decompress_checked(corrupt);
    ASSERT_FALSE(result.ok()) << "bit " << bit << " flipped silently";
    // Structural damage is kInvalidArgument; a flip the structure
    // survives decodes to wrong bytes and fails the checksum as
    // kDataLoss. Nothing else is acceptable.
    EXPECT_TRUE(result.status().code() == StatusCode::kInvalidArgument ||
                result.status().code() == StatusCode::kDataLoss)
        << "bit " << bit << ": " << to_string(result.status().code());
  }
}

TEST(Compress, ContentCorruptionFailsTheChecksum) {
  // A patterned input compresses into matches; flipping one literal
  // byte leaves the block structurally valid, so only the checksum
  // reports it.
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 4000; ++i) {
    input.push_back(static_cast<std::uint8_t>(i % 13));
  }
  auto packed = compress(input);
  packed[kBlockHeaderBytes + 1] ^= 0x01;  // first literal byte
  const auto result = decompress_checked(packed);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
      << result.status().message();
}

TEST(Compress, RatioZeroDenominatorIsExplicit) {
  // 0-byte "compressed" output must never read as the *worst* ratio.
  EXPECT_EQ(compression_ratio(0, 0), 1.0);
  EXPECT_TRUE(std::isinf(compression_ratio(1000, 0)));
  EXPECT_GT(compression_ratio(1000, 0), 0.0);
  // The plain cases are untouched.
  EXPECT_DOUBLE_EQ(compression_ratio(100, 50), 2.0);
  EXPECT_DOUBLE_EQ(compression_ratio(0, 16), 0.0);
}

// The fig-9 behaviour: a loop-heavy PT stream (uniform TNT) compresses
// far better than a data-dependent one (random TNT), bracketing the
// paper's 6x..37x range from both sides.
TEST(Compress, PtStreamsCompressByEntropy) {
  using namespace inspector::ptsim;
  std::mt19937_64 rng(5);

  VectorSink loops;
  PacketEncoder loop_enc(loops);
  loop_enc.on_enable(0x1000);
  for (int i = 0; i < 60000; ++i) loop_enc.on_conditional(i % 16 != 15);
  loop_enc.flush();

  VectorSink data;
  PacketEncoder data_enc(data);
  data_enc.on_enable(0x1000);
  for (int i = 0; i < 60000; ++i) data_enc.on_conditional((rng() & 1) != 0);
  data_enc.flush();

  const auto packed_loops = compress(loops.data());
  const auto packed_data = compress(data.data());
  EXPECT_EQ(unpack(packed_loops), loops.data());
  EXPECT_EQ(unpack(packed_data), data.data());

  const double loop_ratio =
      compression_ratio(loops.data().size(), packed_loops.size());
  const double data_ratio =
      compression_ratio(data.data().size(), packed_data.size());
  EXPECT_GT(loop_ratio, 3.0 * data_ratio)
      << "loop back-edge streams (histogram, 34x) must compress far "
         "better than data-dependent streams (string_match, 6x)";
  EXPECT_GT(data_ratio, 1.0);
}

class CompressFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompressFuzzTest, MixedContentRoundTrips) {
  std::mt19937_64 rng(GetParam());
  std::vector<std::uint8_t> input;
  // Alternating compressible and random segments of random sizes.
  for (int seg = 0; seg < 20; ++seg) {
    const std::size_t len = 1 + rng() % 3000;
    if (seg % 2 == 0) {
      const auto fill = static_cast<std::uint8_t>(rng());
      input.insert(input.end(), len, fill);
    } else {
      for (std::size_t i = 0; i < len; ++i) {
        input.push_back(static_cast<std::uint8_t>(rng()));
      }
    }
  }
  EXPECT_EQ(roundtrip(input), input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
