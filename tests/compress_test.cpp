// LZ block-codec tests: round trips on adversarial and realistic
// inputs, malformed-input handling through the typed
// decompress_checked() path (truncations, out-of-window offsets,
// trailing garbage, a full bit-flip sweep), the fast decoder against
// a byte-loop reference on real shard bodies and crafted blocks, the
// stripe_hash checksum's known answers and bit-flip sensitivity, plus
// the fig-9 claim that PT logs compress very well.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <random>
#include <string>

#include "core/inspector.h"
#include "history_fixtures.h"
#include "ptsim/encoder.h"
#include "ptsim/sink.h"
#include "shard/format.h"
#include "shard/planner.h"
#include "snapshot/compress.h"
#include "workloads/registry.h"

namespace {

using inspector::Result;
using inspector::Status;
using inspector::StatusCode;
using inspector::snapshot::compress;
using inspector::snapshot::compression_ratio;
using inspector::snapshot::decompress_checked;
using inspector::snapshot::kBlockHeaderBytes;
using inspector::snapshot::detail::decompress_bytewise;
using inspector::snapshot::stripe_hash;

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

// --- the decoder against a byte-loop reference ------------------------

/// Both decoders on one block: identical bytes, or identical errors.
void expect_same_decode(std::span<const std::uint8_t> block,
                        const std::string& what) {
  const auto fast = decompress_checked(block);
  const auto slow = decompress_bytewise(block);
  ASSERT_EQ(fast.ok(), slow.ok())
      << what << ": " << (fast.ok() ? slow : fast).status().message();
  if (fast.ok()) {
    ASSERT_EQ(fast.value(), slow.value()) << what;
  } else {
    ASSERT_EQ(fast.status().code(), slow.status().code()) << what;
    ASSERT_EQ(fast.status().message(), slow.status().message()) << what;
  }
}

/// Every prefix cut in the first 512 bytes and every 257th after.
void expect_same_on_cuts(const std::vector<std::uint8_t>& block,
                         const std::string& what) {
  for (std::size_t cut = 0; cut < block.size();
       cut += cut < 512 ? 1 : 257) {
    expect_same_decode(std::span(block.data(), cut),
                       what + " cut at " + std::to_string(cut));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Every byte position replaced by each of `values(original)`.
template <typename Values>
void expect_same_on_substitutions(std::vector<std::uint8_t> block,
                                  const std::vector<std::size_t>& positions,
                                  Values values, const std::string& what) {
  for (const std::size_t at : positions) {
    const std::uint8_t original = block[at];
    for (const std::uint8_t v : values(original)) {
      if (v == original) continue;
      block[at] = v;
      expect_same_decode(block, what + " byte " + std::to_string(at) +
                                    " := " + std::to_string(v));
      if (::testing::Test::HasFatalFailure()) return;
    }
    block[at] = original;
  }
}

std::vector<std::uint8_t> all_byte_values(std::uint8_t) {
  std::vector<std::uint8_t> v(256);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<std::uint8_t>(i);
  return v;
}

std::vector<std::size_t> every_position(std::size_t size) {
  std::vector<std::size_t> v(size);
  for (std::size_t i = 0; i < size; ++i) v[i] = i;
  return v;
}

/// The LZ blocks of a store's shard files: the payload after the
/// versioned header (8 bytes) and the codec frame (tag + decoded size).
std::vector<std::vector<std::uint8_t>> shard_blocks(
    const inspector::cpg::Graph& graph, std::uint32_t shards,
    const std::string& name) {
  using namespace inspector;
  const std::string dir = ::testing::TempDir() + "compress_" + name;
  std::filesystem::remove_all(dir);
  const auto manifest =
      shard::write_store(graph, dir, shard::PlanOptions{shards},
                         shard::ShardCodec::kLz);
  EXPECT_TRUE(manifest.ok()) << manifest.status().message();
  std::vector<std::vector<std::uint8_t>> blocks;
  if (!manifest.ok()) return blocks;
  for (const shard::ShardInfo& info : manifest->shards) {
    const auto bytes = shard::read_file_bytes(dir + "/" + info.file);
    EXPECT_TRUE(bytes.ok());
    if (!bytes.ok()) continue;
    blocks.emplace_back(bytes->begin() + 17, bytes->end());
  }
  std::filesystem::remove_all(dir);
  return blocks;
}

TEST(CompressDifferential, FixtureShardBodiesMatchTheReference) {
  inspector::fixtures::ThreadCountGuard guard;
  const auto blocks = shard_blocks(inspector::fixtures::random_history(12), 3,
                                   "fixture");
  ASSERT_EQ(blocks.size(), 3u);
  // Every shard decodes alike and survives every cut; the first (~310
  // bytes) also takes every single-byte substitution.
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::string what = "fixture shard " + std::to_string(b);
    expect_same_decode(blocks[b], what);
    expect_same_on_cuts(blocks[b], what);
    if (HasFatalFailure()) return;
  }
  expect_same_on_substitutions(blocks[0], every_position(blocks[0].size()),
                               all_byte_values, "fixture shard 0");
}

TEST(CompressDifferential, WorkloadShardBodiesMatchTheReference) {
  using namespace inspector;
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.05;
  config.seed = 1;
  core::Options options;
  options.schedule_seed = 1;
  const auto run =
      core::Inspector(options).run(workloads::make_workload("word_count", config));
  const auto blocks = shard_blocks(*run.graph, 2, "word_count");
  ASSERT_EQ(blocks.size(), 2u);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::string what = "word_count shard " + std::to_string(b);
    expect_same_decode(blocks[b], what);
    expect_same_on_cuts(blocks[b], what);
    // The header and first sequences byte by byte, then every 257th
    // byte, each hit with the values that perturb a token, a length
    // run or an offset in every direction.
    std::vector<std::size_t> positions;
    for (std::size_t at = 0; at < blocks[b].size();
         at += at < 128 ? 1 : 257) {
      positions.push_back(at);
    }
    expect_same_on_substitutions(
        blocks[b], positions,
        [](std::uint8_t x) {
          return std::vector<std::uint8_t>{
              0x00, 0x0F, 0xF0, 0xFF, static_cast<std::uint8_t>(x ^ 0x01),
              static_cast<std::uint8_t>(x ^ 0x80),
              static_cast<std::uint8_t>(x + 1),
              static_cast<std::uint8_t>(x - 1)};
        },
        what);
    if (HasFatalFailure()) return;
  }
}

/// An LZ block assembled sequence by sequence, its decoded bytes kept
/// alongside, so a test can place matches and literal runs exactly.
class BlockBuilder {
 public:
  void sequence(const std::vector<std::uint8_t>& literals, std::size_t offset,
                std::size_t match_len) {
    literal_run(literals, match_len - 4);
    body_.push_back(static_cast<std::uint8_t>(offset));
    body_.push_back(static_cast<std::uint8_t>(offset >> 8));
    extension(match_len - 4);
    const std::size_t src = decoded_.size() - offset;
    for (std::size_t i = 0; i < match_len; ++i) {
      decoded_.push_back(decoded_[src + i]);
    }
  }
  void final_literals(const std::vector<std::uint8_t>& literals) {
    literal_run(literals, 0);
  }
  [[nodiscard]] std::size_t decoded_size() const { return decoded_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& decoded() const {
    return decoded_;
  }
  [[nodiscard]] std::vector<std::uint8_t> block() const {
    std::vector<std::uint8_t> out;
    const std::uint64_t checksum = stripe_hash(decoded_);
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(decoded_.size() >> (8 * i)));
    }
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(checksum >> (8 * i)));
    }
    out.insert(out.end(), body_.begin(), body_.end());
    return out;
  }

 private:
  // Token (literal and match nibbles, 15 = extended), the literal
  // run's extension, then the literals.
  void literal_run(const std::vector<std::uint8_t>& literals,
                   std::size_t match_extra) {
    body_.push_back(static_cast<std::uint8_t>(
        (std::min<std::size_t>(literals.size(), 15) << 4) |
        std::min<std::size_t>(match_extra, 15)));
    extension(literals.size());
    body_.insert(body_.end(), literals.begin(), literals.end());
    decoded_.insert(decoded_.end(), literals.begin(), literals.end());
  }
  void extension(std::size_t len) {
    if (len < 15) return;
    for (len -= 15; len >= 255; len -= 255) body_.push_back(255);
    body_.push_back(static_cast<std::uint8_t>(len));
  }

  std::vector<std::uint8_t> body_;
  std::vector<std::uint8_t> decoded_;
};

TEST(CompressDifferential, CraftedBlocksMatchTheReference) {
  // Overlapping matches at every offset the byte loop handles and past
  // it (1-16), literal runs around the 16-byte copy width and matches
  // around the 8-byte one, a length past one extension run, and blocks
  // that end on a match as well as on a literal run.
  std::mt19937_64 rng(2024);
  const auto literals = [&](std::size_t n) {
    std::vector<std::uint8_t> v(n);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng());
    return v;
  };
  constexpr std::size_t kLiteralRuns[] = {0, 1, 2, 7, 8, 9, 14, 15,
                                          16, 17, 18, 31, 32, 33};
  constexpr std::size_t kMatchLengths[] = {4, 5, 7, 8, 9, 15, 16, 17,
                                           18, 19, 24, 25, 40, 300};
  std::size_t next_offset = 0;  // cycles 1..16 across the blocks
  for (int b = 0; b < 4; ++b) {
    BlockBuilder builder;
    const int sequences = 8 + static_cast<int>(rng() % 4);
    for (int i = 0; i < sequences; ++i) {
      std::size_t lit = kLiteralRuns[rng() % std::size(kLiteralRuns)];
      if (builder.decoded_size() == 0 && lit == 0) lit = 1;
      const std::size_t len = kMatchLengths[rng() % std::size(kMatchLengths)];
      const auto run = literals(lit);
      const std::size_t window = builder.decoded_size() + lit;
      const std::size_t offset =
          std::min<std::size_t>(window, 1 + next_offset++ % 16);
      builder.sequence(run, offset, len);
    }
    if (b % 2 == 0) {
      builder.final_literals(
          literals(1 + kLiteralRuns[rng() % std::size(kLiteralRuns)]));
    }
    const auto block = builder.block();
    const std::string what = "crafted block " + std::to_string(b);
    const auto decoded = decompress_checked(block);
    ASSERT_TRUE(decoded.ok()) << what << ": " << decoded.status().message();
    ASSERT_EQ(decoded.value(), builder.decoded()) << what;
    expect_same_on_cuts(block, what);
    expect_same_on_substitutions(block, every_position(block.size()),
                                 all_byte_values, what);
    if (HasFatalFailure()) return;
  }
}

// --- the checksum -----------------------------------------------------

std::vector<std::uint8_t> kat_input(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return v;
}

TEST(StripeHash, KnownAnswers) {
  // Pinned: the value is on disk in every manifest and LZ block, so a
  // change here is a format change. Bytes are (i * 131 + 7) mod 256.
  const std::pair<std::size_t, std::uint64_t> kAnswers[] = {
      {0, 0xF0CB58107A7055CAULL},  {1, 0x5FEBBF4433574C41ULL},
      {7, 0xE5E8524FE04628AFULL},  {8, 0xB37708856F45E48CULL},
      {31, 0x5125B7D56FD06472ULL}, {32, 0x41ADBD46FFCAC1C5ULL},
      {33, 0x562913C73006A7B4ULL}, {64, 0xF5DD6304A877DA4FULL},
      {65, 0x26B1BF8CAC28A98EULL},
  };
  for (const auto& [length, value] : kAnswers) {
    EXPECT_EQ(stripe_hash(kat_input(length)), value) << "length " << length;
  }
}

TEST(StripeHash, KnownAnswerForAShardBody) {
  // The decoded body of a one-shard LZ store over a fixed history; its
  // block header stores the same value.
  inspector::fixtures::ThreadCountGuard guard;
  const auto blocks =
      shard_blocks(inspector::fixtures::random_history(5), 1, "kat");
  ASSERT_EQ(blocks.size(), 1u);
  const auto body = decompress_checked(blocks[0]);
  ASSERT_TRUE(body.ok()) << body.status().message();
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(blocks[0][8 + i]) << (8 * i);
  }
  EXPECT_EQ(stripe_hash(body.value()), stored);
  EXPECT_EQ(body->size(), 1958u);
  EXPECT_EQ(stored, 0xA39786AB3E58F3B4ULL);
}

TEST(StripeHash, EverySingleBitFlipChangesTheValue) {
  // Each per-word step is a bijection, so a change inside one word --
  // any single flipped bit -- must change the hash, at every length
  // and alignment around the stripe and word widths.
  std::mt19937_64 rng(77);
  for (std::size_t n = 0; n <= 130; ++n) {
    std::vector<std::uint8_t> bytes(n);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    const std::uint64_t clean = stripe_hash(bytes);
    for (std::size_t bit = 0; bit < 8 * n; ++bit) {
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      ASSERT_NE(stripe_hash(bytes), clean)
          << "length " << n << ", bit " << bit << " flipped silently";
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
}

}  // namespace
