// Snapshot-facility tests: consistent cuts and the 4MB-slot ring (§VI).
#include <gtest/gtest.h>

#include "cpg/recorder.h"
#include "snapshot/consistent_cut.h"
#include "snapshot/ring.h"
#include "util/failpoint.h"

namespace {

using namespace inspector::cpg;
using namespace inspector::snapshot;
namespace sync = inspector::sync;

using inspector::PageSet;
using inspector::StatusCode;
constexpr sync::ObjectId kM = sync::make_object_id(sync::ObjectKind::kMutex, 1);

Graph two_thread_graph() {
  Recorder rec;
  rec.thread_started(0, 0);
  rec.thread_started(1, 0);
  rec.end_subcomputation(0, PageSet{1}, PageSet{2},
                         {sync::SyncEventKind::kMutexUnlock, kM});
  rec.on_release(0, kM);
  rec.record_schedule_event(0, kM, sync::SyncEventKind::kMutexUnlock);
  rec.on_acquire(1, kM);
  rec.record_schedule_event(1, kM, sync::SyncEventKind::kMutexLock);
  rec.end_subcomputation(1, PageSet{2}, PageSet{},
                         {sync::SyncEventKind::kMutexLock, kM});
  rec.thread_exiting(0, PageSet{}, PageSet{});
  rec.thread_exiting(1, PageSet{}, PageSet{});
  return std::move(rec).finalize();
}

TEST(ConsistentCut, FullScheduleIsConsistent) {
  const Graph g = two_thread_graph();
  EXPECT_TRUE(is_consistent(g.schedule(), Cut{~0ull}));
  EXPECT_TRUE(is_consistent(g.schedule(), Cut{0}));
}

TEST(ConsistentCut, AcquireWithoutReleaseIsInconsistent) {
  // Hand-craft a schedule where the acquire precedes its release in
  // sequence order (an impossible recording -- the checker must flag
  // any cut containing the acquire but not the release).
  std::vector<sync::SyncEvent> schedule = {
      {1, 0, kM, sync::SyncEventKind::kMutexUnlock},  // release at seq 1
      {2, 1, kM, sync::SyncEventKind::kMutexLock},    // acquire at seq 2
      {3, 0, kM, sync::SyncEventKind::kMutexUnlock},  // release at seq 3
      {4, 1, kM, sync::SyncEventKind::kMutexLock},    // acquire at seq 4
  };
  EXPECT_TRUE(is_consistent(schedule, Cut{2}));
  EXPECT_TRUE(is_consistent(schedule, Cut{4}));
  // Swap so the acquire's matching release falls outside the cut.
  std::vector<sync::SyncEvent> bad = {
      {1, 0, kM, sync::SyncEventKind::kMutexUnlock},
      {3, 1, kM, sync::SyncEventKind::kMutexLock},  // acquire inside cut 3
      {2, 0, kM, sync::SyncEventKind::kMutexUnlock},  // release seq 2 BUT
  };
  // Reorder stream so the matching release (latest before the acquire)
  // has seq > cut: release seq 4 comes before acquire seq 3 in stream.
  std::vector<sync::SyncEvent> tricky = {
      {4, 0, kM, sync::SyncEventKind::kMutexUnlock},
      {3, 1, kM, sync::SyncEventKind::kMutexLock},
  };
  EXPECT_FALSE(is_consistent(tricky, Cut{3}));
  (void)bad;
}

TEST(ConsistentCut, PrefixSnapshotsAreCausallyClosed) {
  Recorder rec;
  rec.thread_started(0, 0);
  rec.thread_started(1, 0);
  rec.end_subcomputation(0, PageSet{}, PageSet{1},
                         {sync::SyncEventKind::kMutexUnlock, kM});
  rec.on_release(0, kM);
  const Cut mid{rec.sequence()};
  rec.on_acquire(1, kM);
  rec.end_subcomputation(1, PageSet{1}, PageSet{},
                         {sync::SyncEventKind::kMutexLock, kM});
  rec.thread_exiting(0, PageSet{}, PageSet{});
  rec.thread_exiting(1, PageSet{}, PageSet{});

  const Graph snap = rec.snapshot_prefix(mid.seq);
  const Graph full = std::move(rec).finalize();
  EXPECT_TRUE(is_causally_closed(full, snap));
  EXPECT_TRUE(is_causally_closed(full, full));
}

TEST(ConsistentCut, DetectsNonClosedSubgraph) {
  const Graph full = two_thread_graph();
  // A "snapshot" containing only the acquiring node (T1[0]) violates
  // closure: its sync-edge source T0[0] is missing.
  std::vector<SubComputation> nodes;
  for (const auto& n : full.nodes()) {
    if (n.thread == 1 && n.alpha == 0) {
      SubComputation copy = n;
      copy.id = 0;
      nodes.push_back(copy);
    }
  }
  ASSERT_EQ(nodes.size(), 1u);
  const Graph bogus(std::move(nodes), {}, {});
  EXPECT_FALSE(is_causally_closed(full, bogus));
}

TEST(SnapshotRing, StoreAndConsumeRoundTrips) {
  SnapshotRing ring(4);
  const Graph g = two_thread_graph();
  ASSERT_TRUE(ring.store(g));
  EXPECT_EQ(ring.occupied(), 1u);
  const auto back = ring.consume();
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->nodes().size(), g.nodes().size());
  EXPECT_EQ(back->edges(), g.edges());
  EXPECT_EQ(ring.occupied(), 0u);
  EXPECT_EQ(ring.consume().status().code(), StatusCode::kExhausted);
}

TEST(SnapshotRing, DamagedSlotIsATypedError) {
  SnapshotRing ring(4);
  ASSERT_TRUE(ring.store(two_thread_graph()));
  ASSERT_TRUE(ring.store(two_thread_graph()));
  // The LZ decoder's failpoint stands in for a damaged slot: consume()
  // returns the decoder's status, drops that slot, and the next one
  // still decodes.
  ASSERT_TRUE(inspector::util::configure_failpoints(
                  "snapshot.decompress:transient:1")
                  .ok());
  const auto damaged = ring.consume();
  inspector::util::clear_failpoints();
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kDataLoss)
      << damaged.status().message();
  EXPECT_EQ(ring.occupied(), 1u);
  const auto next = ring.consume();
  ASSERT_TRUE(next.ok()) << next.status().message();
  EXPECT_EQ(next->edges(), two_thread_graph().edges());
}

TEST(SnapshotRing, EvictsOldestWhenFull) {
  SnapshotRing ring(2);
  const Graph g = two_thread_graph();
  ASSERT_TRUE(ring.store(g));
  ASSERT_TRUE(ring.store(g));
  ASSERT_TRUE(ring.store(g));  // evicts the first
  EXPECT_EQ(ring.occupied(), 2u);
  EXPECT_EQ(ring.stats().stored, 3u);
  EXPECT_EQ(ring.stats().evicted, 1u);
}

TEST(SnapshotRing, RejectsOversizedSnapshot) {
  SnapshotRing ring(2, /*slot_bytes=*/16);  // absurdly small slot
  const Graph g = two_thread_graph();
  EXPECT_FALSE(ring.store(g));
  EXPECT_EQ(ring.stats().rejected, 1u);
  EXPECT_EQ(ring.occupied(), 0u);
}

TEST(SnapshotRing, TracksCompression) {
  SnapshotRing ring(4);
  ASSERT_TRUE(ring.store(two_thread_graph()));
  EXPECT_GT(ring.stats().bytes_uncompressed, 0u);
  EXPECT_GT(ring.stats().bytes_compressed, 0u);
  EXPECT_LE(ring.stats().bytes_compressed, ring.stats().bytes_uncompressed);
}

TEST(SnapshotRing, ZeroSlotsRejected) {
  EXPECT_THROW(SnapshotRing(0), std::invalid_argument);
}

}  // namespace
