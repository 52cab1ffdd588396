// CPG serialization round-trip and text export tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "cpg/recorder.h"
#include "cpg/serialize.h"

namespace {

using namespace inspector::cpg;
namespace sync = inspector::sync;

using inspector::PageSet;
constexpr sync::ObjectId kM = sync::make_object_id(sync::ObjectKind::kMutex, 1);

Graph sample_graph() {
  Recorder rec;
  rec.thread_started(0, 0);
  rec.thread_started(1, 0);
  rec.on_branch(0, {0x1000, 0x1040, true, false});
  rec.on_branch(0, {0x1050, 0x2000, true, true});
  rec.end_subcomputation(0, PageSet{1, 2}, PageSet{3},
                         {sync::SyncEventKind::kMutexUnlock, kM});
  rec.on_release(0, kM);
  rec.on_acquire(1, kM);
  rec.record_schedule_event(1, kM, sync::SyncEventKind::kMutexLock);
  rec.end_subcomputation(1, PageSet{3}, PageSet{4},
                         {sync::SyncEventKind::kMutexLock, kM});
  rec.thread_exiting(0, PageSet{}, PageSet{});
  rec.thread_exiting(1, PageSet{9}, PageSet{});
  return std::move(rec).finalize();
}

void expect_graphs_equal(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    const auto& x = a.nodes()[i];
    const auto& y = b.nodes()[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.thread, y.thread);
    EXPECT_EQ(x.alpha, y.alpha);
    EXPECT_EQ(x.clock, y.clock);
    EXPECT_EQ(x.read_set, y.read_set);
    EXPECT_EQ(x.write_set, y.write_set);
    EXPECT_EQ(a.thunks(x.id), b.thunks(y.id));
    EXPECT_EQ(static_cast<int>(x.end.kind), static_cast<int>(y.end.kind));
    EXPECT_EQ(x.start_seq, y.start_seq);
    EXPECT_EQ(x.end_seq, y.end_seq);
  }
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_EQ(a.schedule(), b.schedule());
}

TEST(Serialize, RoundTripPreservesEverything) {
  const Graph g = sample_graph();
  const auto bytes = serialize(g);
  const auto back = deserialize_checked(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  expect_graphs_equal(g, *back);
  std::string reason;
  EXPECT_TRUE(back->validate(&reason)) << reason;
}

TEST(Serialize, EmptyGraphRoundTrips) {
  Graph g;
  const auto back = deserialize_checked(serialize(g));
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_TRUE(back->nodes().empty());
  EXPECT_TRUE(back->edges().empty());
}

TEST(Serialize, BadMagicIsATypedStatus) {
  auto bytes = serialize(sample_graph());
  bytes[0] ^= 0xFF;
  const auto result = deserialize_checked(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), inspector::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("bad magic"), std::string::npos)
      << result.status().message();
}

TEST(Serialize, WrongFormatVersionIsAClearError) {
  // A build reads exactly its own generation: the previous one (2) is
  // rejected like a future one.
  for (const std::uint32_t version : {2u, kCpgFormatVersion + 1}) {
    auto bytes = serialize(sample_graph());
    // The version field sits right after the 4-byte magic.
    bytes[4] = static_cast<std::uint8_t>(version);
    const auto result = deserialize_checked(bytes);
    ASSERT_FALSE(result.ok()) << "version " << version;
    EXPECT_EQ(result.status().code(),
              inspector::StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find(
                  "format version " + std::to_string(version) + " "),
              std::string::npos)
        << "the error should name the version it saw: "
        << result.status().message();
  }
}

TEST(Serialize, HeaderlessVersion1FilesAreRejectedWithVersionError) {
  // A pre-version-field file (format generation 1) starts its node
  // count where version 2 keeps the version; the reader must call that
  // out as a version mismatch rather than misparse the layout.
  const Graph g = sample_graph();
  std::vector<std::uint8_t> legacy;
  const auto current = serialize(g);
  legacy.insert(legacy.end(), current.begin(), current.begin() + 4);  // magic
  legacy.insert(legacy.end(), current.begin() + 8, current.end());  // no ver
  const auto result = deserialize_checked(legacy);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("format version"),
            std::string::npos)
      << result.status().message();
}

TEST(Serialize, TruncationIsATypedStatus) {
  const auto bytes = serialize(sample_graph());
  for (std::size_t cut : {4u, 16u, 64u}) {
    ASSERT_LT(cut, bytes.size());
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(cut));
    const auto result = deserialize_checked(prefix);
    ASSERT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_EQ(result.status().code(),
              inspector::StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
}

TEST(Serialize, UnknownKindBytesAreTypedErrors) {
  // The writer emits whatever kind a graph holds, so a kind byte that
  // names no enumerator -- a crafted or corrupt file -- must die in the
  // decoder, not reach code that switches over the kind.
  const Graph good = sample_graph();
  const auto decode = [](const Graph& g) {
    return deserialize_checked(serialize(g));
  };
  const auto expect_rejected = [&](const Graph& g, const std::string& what) {
    const auto result = decode(g);
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_EQ(result.status().code(), inspector::StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("unknown " + what),
              std::string::npos)
        << result.status().message();
  };

  auto nodes = good.nodes();
  nodes[0].end.kind = static_cast<sync::SyncEventKind>(40);
  expect_rejected(Graph(nodes, good.edges(), good.schedule()),
                  "end-reason kind");

  auto edges = good.edges();
  bool saw_sync = false;
  for (Edge& e : edges) {
    if (e.kind != EdgeKind::kSync) continue;
    e.kind = static_cast<EdgeKind>(7);
    saw_sync = true;
  }
  ASSERT_TRUE(saw_sync);
  expect_rejected(Graph(good.nodes(), edges, good.schedule()), "edge kind");

  auto schedule = good.schedule();
  ASSERT_FALSE(schedule.empty());
  schedule[0].kind = static_cast<sync::SyncEventKind>(41);
  expect_rejected(Graph(good.nodes(), good.edges(), schedule),
                  "schedule event kind");

  // The last enumerator of each kind is still in range.
  nodes = good.nodes();
  nodes[0].end.kind = sync::SyncEventKind::kThreadJoin;
  edges = good.edges();
  edges[0].kind = EdgeKind::kData;
  schedule = good.schedule();
  schedule[0].kind = sync::SyncEventKind::kThreadJoin;
  const auto last_kinds = decode(Graph(nodes, edges, schedule));
  EXPECT_TRUE(last_kinds.ok()) << last_kinds.status().message();
}

TEST(Serialize, ThunkFlagBitsNoReaderUsesAreCleared) {
  // The decoder copies thunk records into the graph's column as they
  // are stored, but a flags byte carries only the taken (bit 0) and
  // indirect (bit 1) bits: the others are cleared, as a field-by-field
  // decode drops them, so a re-serialized graph writes 0-3 only.
  const Graph g = sample_graph();
  auto bytes = serialize(g);
  const ThunkSpan thunks = g.thunks(0);
  ASSERT_EQ(thunks.size(), 2u);
  const auto at = std::search(bytes.begin(), bytes.end(),
                              thunks.bytes().begin(), thunks.bytes().end());
  ASSERT_NE(at, bytes.end());
  const auto flags = at + (kThunkRecordBytes - 1);
  ASSERT_EQ(*flags, 1);  // taken, not indirect
  *flags |= 0xF0;
  const auto back = deserialize_checked(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->thunks(0), g.thunks(0));
  EXPECT_EQ(serialize(*back), serialize(g));
}

TEST(Serialize, TextExportMentionsNodesAndEdges) {
  const Graph g = sample_graph();
  const std::string text = to_text(g);
  EXPECT_NE(text.find("sub-computations"), std::string::npos);
  EXPECT_NE(text.find("L0[0]"), std::string::npos);
  EXPECT_NE(text.find("L1[0]"), std::string::npos);
  EXPECT_NE(text.find("sync"), std::string::npos);
}

TEST(Serialize, DotExportIsWellFormed) {
  const Graph g = sample_graph();
  const std::string dot = to_dot(g);
  EXPECT_EQ(dot.find("digraph cpg {"), 0u);
  EXPECT_NE(dot.find("n0 ->"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
  EXPECT_NE(dot.rfind("}"), std::string::npos);
}

}  // namespace
