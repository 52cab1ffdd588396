// Intel PT packet encoder/decoder tests: wire-format details, IP
// compression, TNT packing, PSB sync, TSC timing, overflow, and
// malformed input.
#include <gtest/gtest.h>

#include <random>

#include "ptsim/decoder.h"
#include "ptsim/encoder.h"
#include "ptsim/sink.h"

namespace {

using namespace inspector::ptsim;
namespace ptsim = inspector::ptsim;

std::vector<Packet> filter(const std::vector<Packet>& packets,
                           PacketType type) {
  std::vector<Packet> out;
  for (const auto& p : packets) {
    if (p.type == type) out.push_back(p);
  }
  return out;
}

TEST(PtPackets, EnableEmitsPsbPlusAndPge) {
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x401000);
  PacketDecoder dec(sink.data());
  const auto packets = dec.decode_all();
  ASSERT_GE(packets.size(), 5u);
  EXPECT_EQ(packets[0].type, PacketType::kPsb);
  EXPECT_EQ(packets[1].type, PacketType::kCbr);
  EXPECT_EQ(packets[2].type, PacketType::kMode);
  EXPECT_EQ(packets[3].type, PacketType::kFup);
  EXPECT_EQ(packets[3].ip, 0x401000u);
  EXPECT_EQ(packets[4].type, PacketType::kPsbEnd);
  EXPECT_EQ(packets[5].type, PacketType::kTipPge);
  EXPECT_EQ(packets[5].ip, 0x401000u);
}

TEST(PtPackets, ShortTntRoundTrip) {
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x1000);
  const bool pattern[] = {true, false, true, true, false, false};
  for (bool taken : pattern) enc.on_conditional(taken);
  // 6 bits force a short-TNT flush.
  PacketDecoder dec(sink.data());
  const auto tnts = filter(dec.decode_all(), PacketType::kTnt);
  ASSERT_EQ(tnts.size(), 1u);
  EXPECT_EQ(tnts[0].tnt.count, 6);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(tnts[0].tnt.taken(static_cast<std::uint8_t>(i)), pattern[i])
        << "bit " << i;
  }
}

TEST(PtPackets, PartialTntFlush) {
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x1000);
  enc.on_conditional(true);
  enc.on_conditional(false);
  enc.on_conditional(true);
  enc.flush();
  PacketDecoder dec(sink.data());
  const auto tnts = filter(dec.decode_all(), PacketType::kTnt);
  ASSERT_EQ(tnts.size(), 1u);
  EXPECT_EQ(tnts[0].tnt.count, 3);
  EXPECT_TRUE(tnts[0].tnt.taken(0));
  EXPECT_FALSE(tnts[0].tnt.taken(1));
  EXPECT_TRUE(tnts[0].tnt.taken(2));
}

TEST(PtPackets, LongTntRoundTrip) {
  VectorSink sink;
  EncoderOptions opts;
  opts.use_long_tnt = true;
  PacketEncoder enc(sink, opts);
  enc.on_enable(0x1000);
  std::mt19937_64 rng(7);
  std::vector<bool> pattern;
  for (int i = 0; i < 47; ++i) pattern.push_back((rng() & 1) != 0);
  for (bool taken : pattern) enc.on_conditional(taken);
  PacketDecoder dec(sink.data());
  const auto tnts = filter(dec.decode_all(), PacketType::kTnt);
  ASSERT_EQ(tnts.size(), 1u);
  ASSERT_EQ(tnts[0].tnt.count, 47);
  for (int i = 0; i < 47; ++i) {
    EXPECT_EQ(tnts[0].tnt.taken(static_cast<std::uint8_t>(i)), pattern[i])
        << "bit " << i;
  }
}

TEST(PtPackets, TipIpCompressionModes) {
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x0000700000401000ull);
  // Same upper 48 bits -> 2-byte update.
  enc.on_indirect(0x0000700000401abcull);
  // Same upper 32 bits -> 4-byte update.
  enc.on_indirect(0x0000700012345678ull);
  // Different upper bits, canonical -> 6-byte sign-extended.
  enc.on_indirect(0x0000000000401000ull);
  PacketDecoder dec(sink.data());
  const auto tips = filter(dec.decode_all(), PacketType::kTip);
  ASSERT_EQ(tips.size(), 3u);
  EXPECT_EQ(tips[0].ip, 0x0000700000401abcull);
  EXPECT_EQ(tips[0].ipc, IpCompression::kUpdate16);
  EXPECT_EQ(tips[1].ip, 0x0000700012345678ull);
  EXPECT_EQ(tips[1].ipc, IpCompression::kUpdate32);
  EXPECT_EQ(tips[2].ip, 0x0000000000401000ull);
}

TEST(PtPackets, NonCanonicalIpUsesFullBytes) {
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x1000);
  enc.on_indirect(0xDEAD00000040F000ull);  // upper bits non-canonical
  PacketDecoder dec(sink.data());
  const auto tips = filter(dec.decode_all(), PacketType::kTip);
  ASSERT_EQ(tips.size(), 1u);
  EXPECT_EQ(tips[0].ip, 0xDEAD00000040F000ull);
  EXPECT_EQ(tips[0].ipc, IpCompression::kFull);
}

TEST(PtPackets, DisableEmitsPgdWithSuppressedIp) {
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x1000);
  enc.on_conditional(true);
  enc.on_disable();
  PacketDecoder dec(sink.data());
  const auto packets = dec.decode_all();
  // The pending TNT bit must be flushed before the PGD.
  const auto pgds = filter(packets, PacketType::kTipPgd);
  ASSERT_EQ(pgds.size(), 1u);
  EXPECT_EQ(pgds[0].ipc, IpCompression::kSuppressed);
  const auto tnts = filter(packets, PacketType::kTnt);
  ASSERT_EQ(tnts.size(), 1u);
  EXPECT_EQ(tnts[0].tnt.count, 1);
}

TEST(PtPackets, OverflowDropsPendingTntAndResyncs) {
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x1000);
  enc.on_conditional(true);
  enc.on_conditional(true);
  enc.on_overflow(0x2000);
  PacketDecoder dec(sink.data());
  const auto packets = dec.decode_all();
  EXPECT_TRUE(filter(packets, PacketType::kTnt).empty())
      << "pending TNT bits must be lost on overflow";
  const auto ovfs = filter(packets, PacketType::kOvf);
  ASSERT_EQ(ovfs.size(), 1u);
  // The FUP after OVF carries the resume IP.
  bool seen_ovf = false;
  for (const auto& p : packets) {
    if (p.type == PacketType::kOvf) seen_ovf = true;
    if (seen_ovf && p.type == PacketType::kFup) {
      EXPECT_EQ(p.ip, 0x2000u);
      return;
    }
  }
  FAIL() << "no FUP after OVF";
}

TEST(PtPackets, PsbPeriodEmitsSyncPoints) {
  VectorSink sink;
  EncoderOptions opts;
  opts.psb_period_bytes = 64;
  PacketEncoder enc(sink, opts);
  enc.on_enable(0x1000);
  for (int i = 0; i < 4000; ++i) enc.on_conditional(i % 3 == 0);
  enc.flush();
  EXPECT_GT(enc.stats().psb_sequences, 4u);
  PacketDecoder dec(sink.data());
  const auto psbs = filter(dec.decode_all(), PacketType::kPsb);
  EXPECT_EQ(psbs.size(), enc.stats().psb_sequences);
}

TEST(PtPackets, SyncForwardFindsPsbMidStream) {
  VectorSink sink;
  EncoderOptions opts;
  opts.psb_period_bytes = 128;
  PacketEncoder enc(sink, opts);
  enc.on_enable(0x1000);
  for (int i = 0; i < 3000; ++i) enc.on_conditional(i % 2 == 0);
  enc.flush();
  // Chop the front mid-packet, as a snapshot-mode window would.
  std::vector<std::uint8_t> window(sink.data().begin() + 7,
                                   sink.data().end());
  PacketDecoder dec(window);
  ASSERT_TRUE(dec.sync_forward());
  EXPECT_GT(dec.stats().sync_skipped_bytes, 0u);
  // Decoding from the PSB must succeed to the end of the stream.
  const auto packets = dec.decode_all();
  EXPECT_FALSE(packets.empty());
  EXPECT_EQ(packets[0].type, PacketType::kPsb);
}

TEST(PtPackets, SyncForwardFailsWithoutPsb) {
  std::vector<std::uint8_t> junk = {0x04, 0x06, 0x08, 0x0A};  // short TNTs
  PacketDecoder dec(junk);
  EXPECT_FALSE(dec.sync_forward());
  EXPECT_TRUE(dec.at_end());
}

TEST(PtPackets, TruncatedTipThrows) {
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x1000);
  enc.on_indirect(0xABCDEF0123ull);
  std::vector<std::uint8_t> cut(sink.data().begin(), sink.data().end() - 2);
  PacketDecoder dec(cut);
  EXPECT_THROW(
      {
        while (dec.next().has_value()) {
        }
      },
      DecodeError);
}

TEST(PtPackets, UnknownOpcodeThrowsWithOffset) {
  std::vector<std::uint8_t> bad = {0x00, 0x00, 0xD9};  // 0xD9: no such base
  PacketDecoder dec(bad);
  (void)dec.next();
  (void)dec.next();
  try {
    (void)dec.next();
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.offset(), 2u);
  }
}

TEST(PtPackets, PadIsSkippedCleanly) {
  std::vector<std::uint8_t> pads(16, 0x00);
  PacketDecoder dec(pads);
  const auto packets = dec.decode_all();
  EXPECT_EQ(packets.size(), 16u);
  for (const auto& p : packets) EXPECT_EQ(p.type, PacketType::kPad);
}

TEST(PtPackets, StatsCountBitsAndBytes) {
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x1000);
  for (int i = 0; i < 100; ++i) enc.on_conditional(true);
  enc.on_indirect(0x2000);
  enc.flush();
  EXPECT_EQ(enc.stats().tnt_bits, 100u);
  EXPECT_EQ(enc.stats().tip_packets, 1u);
  EXPECT_EQ(enc.stats().bytes, sink.data().size());
}

// Fuzz-style round trip: random branch streams must decode to the same
// TNT bit sequence and TIP targets.
class PtRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PtRoundTripTest, RandomStreamRoundTrips) {
  std::mt19937_64 rng(GetParam());
  VectorSink sink;
  EncoderOptions opts;
  opts.psb_period_bytes = 256;
  opts.use_long_tnt = (GetParam() % 2) == 0;
  PacketEncoder enc(sink, opts);
  enc.on_enable(0x400000);

  std::vector<bool> bits;
  std::vector<std::uint64_t> targets;
  for (int i = 0; i < 5000; ++i) {
    if (rng() % 8 == 0) {
      const std::uint64_t target = 0x400000 + (rng() % 0x100000);
      targets.push_back(target);
      enc.on_indirect(target);
    } else {
      const bool taken = (rng() & 1) != 0;
      bits.push_back(taken);
      enc.on_conditional(taken);
    }
  }
  enc.on_disable();

  PacketDecoder dec(sink.data());
  std::vector<bool> got_bits;
  std::vector<std::uint64_t> got_targets;
  while (auto p = dec.next()) {
    if (p->type == PacketType::kTnt) {
      for (std::uint8_t i = 0; i < p->tnt.count; ++i) {
        got_bits.push_back(p->tnt.taken(i));
      }
    } else if (p->type == PacketType::kTip) {
      got_targets.push_back(p->ip);
    }
  }
  EXPECT_EQ(got_bits, bits);
  EXPECT_EQ(got_targets, targets);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PtRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 101, 102, 103));

// Robustness fuzz: arbitrary bytes must either decode or throw
// DecodeError -- never hang, crash, or read out of bounds.
class PtFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PtFuzzTest, ArbitraryBytesNeverCrash) {
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint8_t> junk(1 + rng() % 512);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    PacketDecoder dec(junk);
    std::size_t packets = 0;
    try {
      while (dec.next().has_value()) {
        ++packets;
        ASSERT_LT(packets, junk.size() + 1) << "decoder must make progress";
      }
    } catch (const DecodeError&) {
      // acceptable outcome for malformed input
    }
  }
}

TEST_P(PtFuzzTest, TruncatedValidStreamsNeverCrash) {
  std::mt19937_64 rng(GetParam());
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x400000);
  for (int i = 0; i < 500; ++i) {
    if (rng() % 5 == 0) {
      enc.on_indirect(0x400000 + (rng() % 0x10000));
    } else {
      enc.on_conditional((rng() & 1) != 0);
    }
  }
  enc.flush();
  for (std::size_t cut = 1; cut < sink.data().size(); cut += 7) {
    std::vector<std::uint8_t> prefix(sink.data().begin(),
                                     sink.data().begin() +
                                         static_cast<std::ptrdiff_t>(cut));
    PacketDecoder dec(prefix);
    try {
      while (dec.next().has_value()) {
      }
    } catch (const DecodeError&) {
      // truncation mid-packet: expected
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PtFuzzTest, ::testing::Values(7, 77, 777));

// --- PT timestamps ------------------------------------------------------

TEST(PtTiming, TscStampedInPsbPlus) {
  ptsim::VectorSink sink;
  ptsim::EncoderOptions opts;
  opts.psb_period_bytes = 64;
  ptsim::PacketEncoder enc(sink, opts);
  enc.set_timestamp(1000);
  enc.on_enable(0x1000);
  for (int i = 0; i < 2000; ++i) {
    enc.set_timestamp(1000 + static_cast<std::uint64_t>(i) * 10);
    enc.on_conditional(i % 2 == 0);
  }
  enc.flush();
  ptsim::PacketDecoder dec(sink.data());
  std::vector<std::uint64_t> stamps;
  while (auto p = dec.next()) {
    if (p->type == ptsim::PacketType::kTsc) stamps.push_back(p->payload);
  }
  ASSERT_GT(stamps.size(), 2u) << "periodic PSB+ must carry TSC";
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_LE(stamps[i - 1], stamps[i]) << "timestamps must be monotone";
  }
  EXPECT_EQ(stamps.front(), 1000u);
}

}  // namespace
