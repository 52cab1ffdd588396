// AUX ring-buffer tests: full-trace vs snapshot semantics (§V-B, §VI).
#include <gtest/gtest.h>

#include <deque>
#include <numeric>
#include <random>

#include "ptsim/decoder.h"
#include "ptsim/encoder.h"
#include "ptsim/ring_buffer.h"

namespace {

using namespace inspector::ptsim;

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

TEST(AuxRing, WriteAndDrain) {
  AuxRingBuffer ring(16);
  const auto data = bytes({1, 2, 3, 4});
  ring.write(data);
  EXPECT_EQ(ring.readable(), 4u);
  EXPECT_EQ(ring.drain(), data);
  EXPECT_EQ(ring.readable(), 0u);
  EXPECT_EQ(ring.bytes_written(), 4u);
}

TEST(AuxRing, WrapsAroundCapacity) {
  AuxRingBuffer ring(8);
  ring.write(bytes({1, 2, 3, 4, 5, 6}));
  (void)ring.drain();
  // Next write wraps the physical buffer.
  ring.write(bytes({7, 8, 9, 10}));
  EXPECT_EQ(ring.drain(), bytes({7, 8, 9, 10}));
}

TEST(AuxRing, FullTraceDropsOnOverflow) {
  AuxRingBuffer ring(8, RingMode::kFullTrace);
  ring.write(bytes({1, 2, 3, 4, 5, 6}));
  ring.write(bytes({7, 8, 9}));  // does not fit: dropped entirely
  EXPECT_TRUE(ring.take_overflow());
  EXPECT_FALSE(ring.take_overflow()) << "flag must reset after read";
  EXPECT_EQ(ring.bytes_lost(), 3u);
  EXPECT_EQ(ring.overflow_count(), 1u);
  EXPECT_EQ(ring.drain(), bytes({1, 2, 3, 4, 5, 6}));
}

TEST(AuxRing, SnapshotOverwritesOldest) {
  AuxRingBuffer ring(8, RingMode::kSnapshot);
  ring.write(bytes({1, 2, 3, 4, 5, 6}));
  ring.write(bytes({7, 8, 9, 10}));  // overwrites 1,2
  EXPECT_FALSE(ring.take_overflow());
  EXPECT_EQ(ring.bytes_lost(), 0u);
  const auto window = ring.snapshot();
  EXPECT_EQ(window, bytes({3, 4, 5, 6, 7, 8, 9, 10}));
  // snapshot() does not consume.
  EXPECT_EQ(ring.readable(), 8u);
}

TEST(AuxRing, OversizedWriteAlwaysOverflows) {
  AuxRingBuffer ring(4, RingMode::kSnapshot);
  ring.write(bytes({1, 2, 3, 4, 5}));
  EXPECT_TRUE(ring.take_overflow());
  EXPECT_EQ(ring.bytes_lost(), 5u);
}

TEST(AuxRing, ZeroCapacityRejected) {
  EXPECT_THROW(AuxRingBuffer(0), std::invalid_argument);
}

TEST(AuxRing, SnapshotWindowIsDecodableAfterSync) {
  // Fill a small snapshot ring far beyond capacity with encoded PT; the
  // surviving window must decode from its first PSB (the §VI recipe).
  AuxRingBuffer ring(512, RingMode::kSnapshot);
  EncoderOptions opts;
  opts.psb_period_bytes = 64;
  PacketEncoder enc(ring, opts);
  enc.on_enable(0x1000);
  for (int i = 0; i < 10000; ++i) enc.on_conditional(i % 3 != 0);
  enc.flush();

  const auto window = ring.snapshot();
  ASSERT_EQ(window.size(), 512u);
  PacketDecoder dec(window);
  ASSERT_TRUE(dec.sync_forward());
  std::uint64_t tnt_bits = 0;
  while (auto p = dec.next()) {
    if (p->type == PacketType::kTnt) tnt_bits += p->tnt.count;
  }
  EXPECT_GT(tnt_bits, 100u);
}

TEST(AuxRing, ManySmallWritesAccumulate) {
  AuxRingBuffer ring(1024);
  std::uint64_t total = 0;
  for (int i = 0; i < 100; ++i) {
    ring.write(bytes({i % 256, (i + 1) % 256}));
    total += 2;
  }
  EXPECT_EQ(ring.bytes_written(), total);
  EXPECT_EQ(ring.drain().size(), total);
}

/// The ring's contract with no physical layout at all: a window of at
/// most `capacity` bytes.
struct RingModel {
  std::size_t capacity;
  RingMode mode;
  std::deque<std::uint8_t> window;
  std::uint64_t written = 0;
  std::uint64_t lost = 0;
  std::uint64_t overflows = 0;
  bool pending = false;

  void write(const std::vector<std::uint8_t>& bytes) {
    const std::size_t free = capacity - window.size();
    if (bytes.size() > capacity ||
        (mode == RingMode::kFullTrace && bytes.size() > free)) {
      lost += bytes.size();
      ++overflows;
      pending = true;
      return;
    }
    for (std::size_t i = free; i < bytes.size(); ++i) window.pop_front();
    window.insert(window.end(), bytes.begin(), bytes.end());
    written += bytes.size();
  }
  [[nodiscard]] std::vector<std::uint8_t> contents() const {
    return {window.begin(), window.end()};
  }
};

// Random writes (sizes up to capacity + 1), drains and snapshots in
// both modes, against the model: across the backing store's growth
// steps and its wraps, every drained and snapshotted byte and every
// counter must match. Capacities straddle the first physical size
// (4 KiB) so the store grows more than once before its first wrap.
TEST(AuxRing, MatchesADequeModelAcrossGrowthAndWrap) {
  for (const RingMode mode : {RingMode::kFullTrace, RingMode::kSnapshot}) {
    for (const std::size_t capacity : {1u, 7u, 4096u, 5000u, 20011u}) {
      std::mt19937_64 rng(capacity * 2 + static_cast<unsigned>(mode));
      AuxRingBuffer ring(capacity, mode);
      RingModel model{capacity, mode, {}};
      EXPECT_EQ(ring.capacity(), capacity);
      for (int step = 0; step < 600; ++step) {
        const std::uint64_t dice = rng() % 10;
        if (dice < 7) {
          // Mostly small writes, sometimes up to one past the capacity.
          const std::size_t size = dice == 0 ? rng() % (capacity + 2)
                                             : rng() % (capacity / 8 + 2);
          std::vector<std::uint8_t> bytes(size);
          for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
          ring.write(bytes);
          model.write(bytes);
        } else if (dice < 9) {
          ASSERT_EQ(ring.drain(), model.contents()) << "step " << step;
          model.window.clear();
        } else {
          ASSERT_EQ(ring.snapshot(), model.contents()) << "step " << step;
        }
        ASSERT_EQ(ring.readable(), model.window.size());
        ASSERT_EQ(ring.bytes_written(), model.written);
        ASSERT_EQ(ring.bytes_lost(), model.lost);
        ASSERT_EQ(ring.overflow_count(), model.overflows);
        ASSERT_EQ(ring.take_overflow(), model.pending);
        model.pending = false;
      }
      EXPECT_EQ(ring.drain(), model.contents());
    }
  }
}

}  // namespace
