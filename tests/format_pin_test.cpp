// Format pins: the bytes each versioned file kind is written as, tied
// to that kind's version number.
//
// A stored history is read back by later builds, so a build must never
// misread bytes an earlier one wrote. Each row of kPins holds a kind's
// k*FormatVersion and snapshot::fnv1a of the bytes its serializer
// writes for one fixed value built in this file. The values are built
// by hand -- no capture, no planned store -- so recorder and planner
// changes move no pin; a change to the encoding does, wherever it lives
// (the serializers, util/varint.h, cpg/binary_io.h, the LZ codec,
// ThunkColumn::push, the frame writer). The rule for a moved pin sits
// beside the table.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#include "cpg/graph.h"
#include "cpg/serialize.h"
#include "net/frame.h"
#include "shard/format.h"
#include "snapshot/compress.h"

namespace {

using namespace inspector;
using Bytes = std::vector<std::uint8_t>;
using K = sync::SyncEventKind;

constexpr sync::ObjectId kMutex =
    sync::make_object_id(sync::ObjectKind::kMutex, 7);

vclock::VectorClock clock(std::initializer_list<std::uint64_t> ticks) {
  vclock::VectorClock c(ticks.size());
  std::size_t t = 0;
  for (const std::uint64_t tick : ticks) c.set(t++, tick);
  return c;
}

/// Two threads, four nodes: empty and non-empty page sets (with gaps
/// wide enough for multi-byte varints), thunks with each flag bit and
/// both, a node without thunks, control and sync edges, and schedule
/// events. Node 2 runs a loop over 1,024 branch sites: 160 thunks,
/// enough repeated and distinct 4-byte runs that the LZ row pins the
/// encoder's hash table as well as its token layout.
cpg::Graph pinned_graph() {
  std::vector<cpg::SubComputation> nodes = {
      {0, 0, 0, clock({1, 0}), {}, {1, 2}, {K::kMutexUnlock, kMutex}, 1, 2},
      {1, 1, 0, clock({0, 1}), {2}, {}, {K::kMutexLock, kMutex}, 3, 4},
      {2, 0, 1, clock({300, 0}), {1, 300}, {4096}, {K::kThreadExit, 0}, 5,
       200},
      {3, 1, 1, clock({2, 2}), {}, {}, {K::kThreadExit, 0}, 201, 202},
  };
  cpg::ThunkColumn thunks;
  thunks.push({0, {0x401000, 0x401040, true, false}});
  thunks.push({1, {0x401050, 0x7f0000002000, false, true}});
  thunks.end_node();
  thunks.end_node();
  for (std::uint32_t beta = 0; beta < 160; ++beta) {
    const std::uint64_t ip = 0x402000 + 16 * ((beta * 7919) % 1024);
    thunks.push({beta,
                 {ip, ip + 16 * (1 + beta % 7), (beta & 1) != 0,
                  (beta & 2) != 0}});
  }
  thunks.end_node();
  thunks.push({0, {0x403000, 0x403008, false, false}});
  thunks.end_node();
  std::vector<cpg::Edge> edges = {
      {0, 2, cpg::EdgeKind::kControl, 0},
      {1, 3, cpg::EdgeKind::kControl, 0},
      {0, 3, cpg::EdgeKind::kSync, kMutex},
  };
  std::vector<sync::SyncEvent> schedule = {
      {2, 0, kMutex, K::kMutexUnlock},
      {4, 1, kMutex, K::kMutexLock},
  };
  return cpg::Graph(std::move(nodes), std::move(edges), std::move(schedule),
                    std::move(thunks));
}

/// A middle shard of a larger store: the pinned graph as its local
/// graph, sidecars for its four nodes and three edges, and frontier
/// edges entering and leaving it.
shard::ShardData pinned_shard() {
  shard::ShardData s;
  s.shard_index = 1;
  s.rank_lo = 2;
  s.rank_hi = 9;
  s.global_ids = {5, 7, 8, 300};
  s.global_ranks = {2, 4, 3, 8};
  s.global_levels = {1, 2, 2, 5};
  s.edge_globals = {4, 9, 200};
  s.frontier_in = {{2, 1, 5, cpg::EdgeKind::kSync, kMutex},
                   {6, 3, 8, cpg::EdgeKind::kControl, 0}};
  s.frontier_out = {{10, 7, 301, cpg::EdgeKind::kControl, 0},
                    {400, 300, 1000, cpg::EdgeKind::kSync, kMutex}};
  s.graph = pinned_graph();
  return s;
}

shard::Manifest pinned_manifest() {
  shard::Manifest m;
  m.shard_count = 2;
  m.generation = 3;
  m.total_nodes = 6;
  m.total_edges = 7;
  m.thread_count = 2;
  m.level_count = 4;
  m.stats = {6, 4, 2, 2, 11, 9, 5};
  m.node_shard = {0, 0, 1, 1, 0, 1};
  m.shards = {
      {"shard-000.bin", 0, 3, 3, 2, 1, 0, 1, 412, 412,
       shard::ShardCodec::kRaw, 0x0123456789ABCDEF, {1, 2, 4096}},
      {"shard-001.g3.bin", 3, 6, 3, 3, 1, 2, 3, 301, 530,
       shard::ShardCodec::kLz, 0xFEDCBA9876543210, {2, 70000}},
  };
  return m;
}

struct PinnedFrame {
  net::FrameType type;
  std::uint8_t flags;
  std::uint64_t stream_id;
  std::string_view payload;
};

/// A request split over two Data frames, then one frame of each other
/// kind a connection sends.
constexpr PinnedFrame kPinnedFrames[] = {
    {net::FrameType::kTrace, 0, 1, R"({"trace":"00ff","span":"01"})"},
    {net::FrameType::kData, 0, 1, R"({"id":1,)"},
    {net::FrameType::kData, net::kFlagEndStream, 1, "\"op\":\"stats\"}\n"},
    {net::FrameType::kCancel, net::kFlagEndStream, 0x0102030405060708, ""},
    {net::FrameType::kSettings, 0, 0, ""},
    {net::FrameType::kPing, 0, 0, "ping"},
    {net::FrameType::kError, 0, 9, "stream 9: bad request"},
    {net::FrameType::kGoodbye, 0, 0, ""},
};

Bytes cpg_bytes() { return cpg::serialize(pinned_graph()); }

Bytes cpg_reencode(const Bytes& bytes) {
  auto graph = cpg::deserialize_checked(bytes);
  EXPECT_TRUE(graph.ok()) << graph.status().message();
  return graph.ok() ? cpg::serialize(*graph) : Bytes{};
}

Bytes shard_raw_bytes() {
  return shard::serialize_shard(pinned_shard(), shard::ShardCodec::kRaw);
}

Bytes shard_lz_bytes() {
  return shard::serialize_shard(pinned_shard(), shard::ShardCodec::kLz);
}

Bytes shard_reencode(const Bytes& bytes) {
  auto data = shard::deserialize_shard(bytes);
  EXPECT_TRUE(data.ok()) << data.status().message();
  return data.ok() ? shard::serialize_shard(*data, data->codec) : Bytes{};
}

Bytes manifest_bytes() { return shard::serialize_manifest(pinned_manifest()); }

Bytes manifest_reencode(const Bytes& bytes) {
  auto m = shard::deserialize_manifest(bytes);
  EXPECT_TRUE(m.ok()) << m.status().message();
  return m.ok() ? shard::serialize_manifest(*m) : Bytes{};
}

Bytes frame_bytes() {
  Bytes out;
  for (const PinnedFrame& f : kPinnedFrames) {
    net::append_frame(out, f.type, f.flags, f.stream_id, f.payload);
  }
  return out;
}

Bytes frame_reencode(const Bytes& bytes) {
  Bytes out;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    auto frame = net::decode_frame(bytes, pos);
    EXPECT_TRUE(frame.ok()) << frame.status().message();
    if (!frame.ok()) return {};
    net::append_frame(out, frame->header.type, frame->header.flags,
                      frame->header.stream_id,
                      std::span<const std::uint8_t>(frame->payload));
  }
  return out;
}

struct FormatPin {
  const char* kind;
  std::uint32_t version;      ///< the version the bytes were pinned at
  std::uint64_t fingerprint;  ///< snapshot::fnv1a of encode()
  std::uint32_t current;      ///< the kind's k*FormatVersion
  Bytes (*encode)();
  Bytes (*reencode)(const Bytes&);  ///< decode, then encode again
};

// The rule: a moved fingerprint ships with a bumped version in the same
// diff, and the row is re-recorded at the new version. When a nested
// kind moves, bump both versions: a shard file embeds a CPG, so a CPG
// change moves the two shard rows too, and kCpgFormatVersion and
// kShardFormatVersion both go up. A change that moves no fingerprint (a
// rename, a faster decoder) needs no bump.
const FormatPin kPins[] = {
    {"cpg", 3, 0x3b858b59bbbddfc3, cpg::kCpgFormatVersion, cpg_bytes,
     cpg_reencode},
    {"shard-raw", 5, 0xcd98719fd27f5c14, shard::kShardFormatVersion,
     shard_raw_bytes, shard_reencode},
    {"shard-lz", 5, 0xcb092611e0afaa76, shard::kShardFormatVersion,
     shard_lz_bytes, shard_reencode},
    {"manifest", 5, 0x5e5936aebec58a26, shard::kManifestFormatVersion,
     manifest_bytes, manifest_reencode},
    {"frame", 1, 0x05a5249df9e6e141, net::kFrameFormatVersion, frame_bytes,
     frame_reencode},
};

TEST(FormatPin, EachRowIsAtItsKindsCurrentVersion) {
  for (const FormatPin& pin : kPins) {
    EXPECT_EQ(pin.version, pin.current)
        << pin.kind << ": the version changed; re-record the row's "
        << "fingerprint at the new version";
  }
}

TEST(FormatPin, FingerprintsMatchTheBytes) {
  for (const FormatPin& pin : kPins) {
    const std::uint64_t actual = snapshot::fnv1a(pin.encode());
    EXPECT_EQ(actual, pin.fingerprint)
        << pin.kind << " bytes moved (now 0x" << std::hex << actual
        << "): bump the version and re-record the row";
  }
}

TEST(FormatPin, BytesDecodeAndReencodeToThemselves) {
  for (const FormatPin& pin : kPins) {
    const Bytes bytes = pin.encode();
    EXPECT_EQ(pin.reencode(bytes), bytes) << pin.kind;
  }
}

}  // namespace
