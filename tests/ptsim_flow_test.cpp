// Flow-decoder tests: reconstructing control flow from packets + image
// (the libipt-style layer of §V-B), and the timestamps a traced run
// exposes through it.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/inspector.h"
#include "ptsim/encoder.h"
#include "ptsim/flow.h"
#include "ptsim/image.h"
#include "ptsim/sink.h"
#include "workloads/registry.h"

namespace {

using namespace inspector::ptsim;
namespace core = inspector::core;
namespace ptsim = inspector::ptsim;
namespace workloads = inspector::workloads;

// A tiny image:
//   0x1000: cond branch -> taken 0x1040 / fall 0x1020
//   0x1020: pad, jumps to 0x1040
//   0x1040: indirect
//   0x1060: exit
Image tiny_image() {
  Image img;
  img.add_segment({"tiny.text", 0x1000, 0x100});
  img.add_block({0x1000, 0x20, 3, TermKind::kCondBranch, 0x1040, 0x1020});
  img.add_block({0x1020, 0x20, 1, TermKind::kJump, 0x1040, 0});
  img.add_block({0x1040, 0x20, 2, TermKind::kIndirect, 0, 0});
  img.add_block({0x1060, 0x20, 1, TermKind::kExit, 0, 0});
  return img;
}

TEST(Image, BlockLookup) {
  const Image img = tiny_image();
  ASSERT_NE(img.block_at(0x1000), nullptr);
  EXPECT_EQ(img.block_at(0x1001), nullptr);
  const BasicBlock* mid = img.block_containing(0x1005);
  ASSERT_NE(mid, nullptr);
  EXPECT_EQ(mid->start, 0x1000u);
  EXPECT_EQ(img.block_containing(0x0FFF), nullptr);
  EXPECT_EQ(img.block_containing(0x1080), nullptr);
  EXPECT_EQ(img.block_count(), 4u);
}

TEST(Image, RejectsOverlaps) {
  Image img = tiny_image();
  EXPECT_THROW(img.add_block({0x1010, 0x20, 1, TermKind::kJump, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(img.add_block({0x0FF0, 0x20, 1, TermKind::kJump, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(img.add_block({0x2000, 0, 1, TermKind::kJump, 0, 0}),
               std::invalid_argument);
}

TEST(Image, ShuffledBlocksComeOutSortedAndLookupsMatchAScan) {
  std::mt19937_64 rng(5);
  std::vector<BasicBlock> sorted;
  std::uint64_t addr = 0x1000;
  for (int i = 0; i < 300; ++i) {
    addr += 8 * (rng() % 3);  // gaps of 0, 8 or 16 bytes
    const auto size = static_cast<std::uint32_t>(1 + rng() % 40);
    sorted.push_back({addr, size, 1, TermKind::kJump, addr, 0});
    addr += size;
  }
  std::vector<BasicBlock> shuffled = sorted;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  Image img;
  for (const BasicBlock& b : shuffled) img.add_block(b);

  ASSERT_EQ(img.blocks().size(), sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(img.blocks()[i].start, sorted[i].start) << i;
  }
  for (std::uint64_t ip = 0x0FF0; ip < addr + 16; ++ip) {
    const BasicBlock* at = nullptr;
    const BasicBlock* containing = nullptr;
    for (const BasicBlock& b : img.blocks()) {
      if (b.start == ip) at = &b;
      if (b.start <= ip && ip < b.end()) containing = &b;
    }
    ASSERT_EQ(img.block_at(ip), at) << std::hex << ip;
    ASSERT_EQ(img.block_containing(ip), containing) << std::hex << ip;
  }

  // Overlaps still throw, appended or inserted, and change nothing.
  const BasicBlock& mid = sorted[sorted.size() / 2];
  const BasicBlock& last = sorted.back();
  EXPECT_THROW(img.add_block({mid.start, 1, 1, TermKind::kJump, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(img.add_block({mid.end() - 1, 8, 1, TermKind::kJump, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(img.add_block({mid.start - 1, 2, 1, TermKind::kJump, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(img.add_block({last.end() - 1, 4, 1, TermKind::kJump, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(img.add_block({0x0F00, 0x200, 1, TermKind::kJump, 0, 0}),
               std::invalid_argument);
  EXPECT_EQ(img.block_count(), sorted.size());
}

TEST(Flow, TakenPathSkipsPad) {
  const Image img = tiny_image();
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x1000);
  enc.on_conditional(true);    // 0x1000 -> 0x1040
  enc.on_indirect(0x1060);     // 0x1040 -> exit block
  enc.on_disable();

  FlowDecoder dec(img, sink.data());
  const FlowResult result = dec.run();
  ASSERT_EQ(result.events.size(), 4u);
  EXPECT_EQ(result.events[0].kind, BranchEvent::Kind::kEnable);
  EXPECT_EQ(result.events[1].kind, BranchEvent::Kind::kConditional);
  EXPECT_TRUE(result.events[1].taken);
  EXPECT_EQ(result.events[1].target, 0x1040u);
  EXPECT_EQ(result.events[2].kind, BranchEvent::Kind::kIndirect);
  EXPECT_EQ(result.events[2].target, 0x1060u);
  EXPECT_EQ(result.events[3].kind, BranchEvent::Kind::kDisable);
  // Blocks: 0x1000, 0x1040, 0x1060 (pad skipped on the taken path).
  EXPECT_EQ(result.blocks_executed, 3u);
  EXPECT_EQ(result.instructions_retired, 3u + 2u + 1u);
}

TEST(Flow, NotTakenPathWalksPad) {
  const Image img = tiny_image();
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x1000);
  enc.on_conditional(false);   // -> 0x1020 (pad) -> jump -> 0x1040
  enc.on_indirect(0x1060);
  enc.on_disable();

  FlowDecoder dec(img, sink.data());
  const FlowResult result = dec.run();
  EXPECT_EQ(result.blocks_executed, 4u);  // pad block included
  ASSERT_GE(result.events.size(), 2u);
  EXPECT_FALSE(result.events[1].taken);
  EXPECT_EQ(result.events[1].target, 0x1020u);
}

TEST(Flow, OverflowGapResumesAtFup) {
  const Image img = tiny_image();
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x1000);
  enc.on_conditional(true);
  // Overflow: some execution is lost; trace resumes at the indirect
  // block.
  enc.on_overflow(0x1040);
  enc.on_indirect(0x1060);
  enc.on_disable();

  FlowDecoder dec(img, sink.data());
  const FlowResult result = dec.run();
  EXPECT_EQ(result.gaps, 1u);
  bool seen_gap = false;
  for (const auto& e : result.events) {
    if (e.kind == BranchEvent::Kind::kGap) {
      seen_gap = true;
      EXPECT_EQ(e.target, 0x1040u);
    }
  }
  EXPECT_TRUE(seen_gap);
}

TEST(Flow, UncoveredIpThrows) {
  const Image img = tiny_image();
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x9000);  // not in the image
  enc.on_conditional(true);
  enc.flush();
  FlowDecoder dec(img, sink.data());
  EXPECT_THROW((void)dec.run(), DecodeError);
}

// A block that jumps to itself consumes no packet, so an unbounded
// walk never ends. Walking more blocks than the image holds without a
// packet is a cycle, reported as a DecodeError.
TEST(Flow, PacketFreeCycleIsDecodeError) {
  Image img;
  img.add_block({0x1000, 0x20, 1, TermKind::kJump, 0x1020, 0});
  img.add_block({0x1020, 0x20, 1, TermKind::kFallThrough, 0, 0x1000});
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x1000);
  enc.flush();
  FlowDecoder dec(img, sink.data());
  try {
    (void)dec.run();
    FAIL() << "a packet-free cycle must not decode";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("cycles"), std::string::npos)
        << e.what();
  }
}

// A block kind outside TermKind matches no arm of the walk, so it
// consumes nothing and trips the same bound instead of spinning.
TEST(Flow, UnknownBlockKindIsDecodeError) {
  Image img;
  img.add_block({0x1000, 0x20, 1, static_cast<TermKind>(7), 0, 0});
  VectorSink sink;
  PacketEncoder enc(sink);
  enc.on_enable(0x1000);
  enc.flush();
  FlowDecoder dec(img, sink.data());
  EXPECT_THROW((void)dec.run(), DecodeError);
}

TEST(Flow, EmptyTraceYieldsNoEvents) {
  const Image img = tiny_image();
  std::vector<std::uint8_t> empty;
  FlowDecoder dec(img, empty);
  const FlowResult result = dec.run();
  EXPECT_TRUE(result.events.empty());
  EXPECT_EQ(result.blocks_executed, 0u);
}

// Chain image for longer round trips: N cond blocks, each taken ->
// next, not-taken -> pad -> next, final exit.
Image chain_image(int n) {
  Image img;
  std::uint64_t addr = 0x10000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t pad = addr + 0x10;
    const std::uint64_t next = addr + 0x20;
    img.add_block({addr, 0x10, 2, TermKind::kCondBranch, next, pad});
    img.add_block({pad, 0x10, 1, TermKind::kJump, next, 0});
    addr = next;
  }
  img.add_block({addr, 0x10, 1, TermKind::kExit, 0, 0});
  return img;
}

class FlowChainTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowChainTest, LongChainsRoundTripAnyPattern) {
  const int n = 300;
  const Image img = chain_image(n);
  std::mt19937_64 rng(GetParam());
  std::vector<bool> pattern;
  for (int i = 0; i < n; ++i) pattern.push_back((rng() & 1) != 0);

  VectorSink sink;
  EncoderOptions opts;
  opts.psb_period_bytes = 128;
  PacketEncoder enc(sink, opts);
  enc.on_enable(0x10000);
  for (bool taken : pattern) enc.on_conditional(taken);
  enc.on_disable();

  FlowDecoder dec(img, sink.data());
  const FlowResult result = dec.run();
  std::vector<bool> decoded;
  for (const auto& e : result.events) {
    if (e.kind == BranchEvent::Kind::kConditional) {
      decoded.push_back(e.taken);
    }
  }
  EXPECT_EQ(decoded, pattern);
  EXPECT_EQ(result.gaps, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowChainTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(PtTiming, FlowResultExposesTimestamps) {
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.2;
  core::Inspector insp;
  const auto result = insp.run(workloads::make_histogram(config));
  bool any = false;
  for (auto pid : result.perf_session->traced_pids()) {
    const auto& trace = result.perf_session->trace_for(pid);
    ptsim::FlowDecoder decoder(result.image->image, trace);
    const auto flow = decoder.run();
    if (flow.last_timestamp != 0) {
      any = true;
      EXPECT_LE(flow.first_timestamp, flow.last_timestamp);
      EXPECT_LE(flow.last_timestamp, result.stats.sim_time_ns);
    }
  }
  EXPECT_TRUE(any) << "executor stamps simulated time into the trace";
}

}  // namespace
