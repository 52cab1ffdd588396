// Recorder tests: Algorithms 1 and 2 (thread clocks, sync-object
// clocks, sub-computation clocks, happens-before edges).
#include <gtest/gtest.h>

#include <unordered_set>

#include "cpg/recorder.h"

namespace {

using namespace inspector::cpg;
namespace sync = inspector::sync;

constexpr sync::ObjectId kM = sync::make_object_id(sync::ObjectKind::kMutex, 1);
constexpr sync::ObjectId kB =
    sync::make_object_id(sync::ObjectKind::kBarrier, 1);

using inspector::PageSet;

EndReason lock_end(sync::ObjectId m) {
  return {sync::SyncEventKind::kMutexLock, m};
}
EndReason unlock_end(sync::ObjectId m) {
  return {sync::SyncEventKind::kMutexUnlock, m};
}

TEST(Recorder, SingleThreadControlChain) {
  Recorder rec;
  rec.thread_started(0, 0);
  rec.end_subcomputation(0, PageSet{1, 2}, PageSet{3}, lock_end(kM));
  rec.end_subcomputation(0, PageSet{3}, PageSet{}, unlock_end(kM));
  rec.thread_exiting(0, PageSet{}, PageSet{});
  const Graph g = std::move(rec).finalize();

  ASSERT_EQ(g.nodes().size(), 3u);
  EXPECT_EQ(g.node(0).alpha, 0u);
  EXPECT_EQ(g.node(1).alpha, 1u);
  EXPECT_EQ(g.node(0).read_set, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(g.node(0).write_set, (std::vector<std::uint64_t>{3}));

  // Control edges chain consecutive sub-computations.
  std::size_t control = 0;
  for (const auto& e : g.edges()) {
    if (e.kind == EdgeKind::kControl) {
      EXPECT_EQ(e.from + 1, e.to);
      ++control;
    }
  }
  EXPECT_EQ(control, 2u);
  EXPECT_TRUE(g.happens_before(0, 1));
  EXPECT_TRUE(g.happens_before(1, 2));
  EXPECT_TRUE(g.happens_before(0, 2)) << "transitivity within a thread";
}

TEST(Recorder, MutexReleaseAcquireCreatesSyncEdge) {
  Recorder rec;
  rec.thread_started(0, 0);
  rec.thread_started(1, 0);

  // T0: work -> unlock(M).   T1: lock(M) -> work.
  rec.end_subcomputation(0, PageSet{}, PageSet{10}, unlock_end(kM));
  rec.on_release(0, kM);
  rec.on_acquire(1, kM);
  rec.end_subcomputation(1, PageSet{10}, PageSet{}, lock_end(kM));

  rec.thread_exiting(0, PageSet{}, PageSet{});
  rec.thread_exiting(1, PageSet{}, PageSet{});
  const Graph g = std::move(rec).finalize();

  const NodeId writer = *g.find(0, 0);
  const NodeId reader = *g.find(1, 0);
  EXPECT_TRUE(g.happens_before(writer, reader));

  bool found = false;
  for (const auto& e : g.edges()) {
    if (e.kind == EdgeKind::kSync && e.from == writer && e.to == reader) {
      EXPECT_EQ(e.object, kM);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "release->acquire edge missing";
}

TEST(Recorder, NoSyncMeansConcurrent) {
  Recorder rec;
  rec.thread_started(0, 0);
  rec.thread_started(1, 0);
  rec.end_subcomputation(0, PageSet{}, PageSet{}, lock_end(kM));
  rec.end_subcomputation(1, PageSet{}, PageSet{}, lock_end(kM));
  rec.thread_exiting(0, PageSet{}, PageSet{});
  rec.thread_exiting(1, PageSet{}, PageSet{});
  const Graph g = std::move(rec).finalize();
  EXPECT_TRUE(g.concurrent(*g.find(0, 0), *g.find(1, 0)));
}

TEST(Recorder, ParentChildLifecycleOrdering) {
  Recorder rec;
  rec.thread_started(0, 0);
  // Parent does some work, then creates thread 1.
  rec.end_subcomputation(0, PageSet{}, PageSet{5},
                         {sync::SyncEventKind::kThreadCreate, 0});
  rec.on_release(0, sync::thread_lifecycle_object(1));
  rec.thread_started(1, 0);
  rec.end_subcomputation(1, PageSet{5}, PageSet{}, lock_end(kM));
  rec.thread_exiting(1, PageSet{}, PageSet{});
  // Parent joins: acquire on the child's lifecycle object.
  rec.end_subcomputation(0, PageSet{}, PageSet{},
                         {sync::SyncEventKind::kThreadJoin,
                          sync::thread_lifecycle_object(1)});
  rec.on_acquire(0, sync::thread_lifecycle_object(1));
  rec.thread_exiting(0, PageSet{}, PageSet{});
  const Graph g = std::move(rec).finalize();

  const NodeId parent_pre = *g.find(0, 0);
  const NodeId child_work = *g.find(1, 0);
  const NodeId parent_post = *g.find(0, 2);
  EXPECT_TRUE(g.happens_before(parent_pre, child_work))
      << "everything before create() precedes the child";
  EXPECT_TRUE(g.happens_before(child_work, parent_post))
      << "everything in the child precedes join()";
}

TEST(Recorder, BarrierIsAllToAll) {
  Recorder rec;
  for (ThreadId t : {0u, 1u, 2u}) rec.thread_started(t, t);
  // All three threads arrive at the barrier: release all, then acquire
  // all (the executor's protocol for barrier_wait).
  for (ThreadId t : {0u, 1u, 2u}) {
    rec.end_subcomputation(t, PageSet{}, PageSet{100 + t},
                           {sync::SyncEventKind::kBarrierWait, kB});
    rec.on_release(t, kB);
  }
  for (ThreadId t : {0u, 1u, 2u}) rec.on_acquire(t, kB);
  for (ThreadId t : {0u, 1u, 2u}) {
    rec.end_subcomputation(t, PageSet{100}, PageSet{}, lock_end(kM));
    rec.thread_exiting(t, PageSet{}, PageSet{});
  }
  const Graph g = std::move(rec).finalize();

  // Every pre-barrier node happens-before every post-barrier node.
  for (ThreadId a : {0u, 1u, 2u}) {
    for (ThreadId b : {0u, 1u, 2u}) {
      EXPECT_TRUE(g.happens_before(*g.find(a, 0), *g.find(b, 1)))
          << "pre " << a << " vs post " << b;
    }
  }
  // Cross-thread sync edges exist from each arrival to each departure.
  std::size_t sync_edges = 0;
  for (const auto& e : g.edges()) {
    if (e.kind == EdgeKind::kSync && e.object == kB) ++sync_edges;
  }
  EXPECT_EQ(sync_edges, 6u) << "3 releases x 2 cross-thread acquires";
}

TEST(Recorder, MutexChainTransitivity) {
  // T0 -> T1 -> T2 through the same mutex: T0's work must precede T2's.
  Recorder rec;
  for (ThreadId t : {0u, 1u, 2u}) rec.thread_started(t, t);
  rec.end_subcomputation(0, PageSet{}, PageSet{7}, unlock_end(kM));
  rec.on_release(0, kM);
  rec.on_acquire(1, kM);
  rec.end_subcomputation(1, PageSet{7}, PageSet{8}, unlock_end(kM));
  rec.on_release(1, kM);
  rec.on_acquire(2, kM);
  rec.end_subcomputation(2, PageSet{8}, PageSet{}, lock_end(kM));
  for (ThreadId t : {0u, 1u, 2u}) rec.thread_exiting(t, PageSet{}, PageSet{});
  const Graph g = std::move(rec).finalize();
  EXPECT_TRUE(g.happens_before(*g.find(0, 0), *g.find(2, 0)));
}

TEST(Recorder, ThunksRecordBranchPath) {
  Recorder rec;
  rec.thread_started(0, 0);
  rec.on_branch(0, {0x1000, 0x1040, true, false});
  rec.on_branch(0, {0x1050, 0x1060, false, false});
  rec.on_branch(0, {0x1070, 0x2000, true, true});
  rec.end_subcomputation(0, PageSet{}, PageSet{}, lock_end(kM));
  rec.on_branch(0, {0x2000, 0x2040, true, false});
  rec.thread_exiting(0, PageSet{}, PageSet{});
  const Graph g = std::move(rec).finalize();

  const auto first = g.thunks(*g.find(0, 0));
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].beta, 0u);
  EXPECT_EQ(first[1].beta, 1u);
  EXPECT_EQ(first[2].beta, 2u);
  EXPECT_TRUE(first[2].branch.indirect);
  const auto second = g.thunks(*g.find(0, 1));
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].branch.ip, 0x2000u);
}

TEST(Recorder, ScheduleEventsAreSequenced) {
  Recorder rec;
  rec.thread_started(0, 0);
  rec.record_schedule_event(0, kM, sync::SyncEventKind::kMutexLock);
  rec.record_schedule_event(0, kM, sync::SyncEventKind::kMutexUnlock);
  rec.thread_exiting(0, PageSet{}, PageSet{});
  const Graph g = std::move(rec).finalize();
  ASSERT_GE(g.schedule().size(), 3u);  // start + lock + unlock + exit
  for (std::size_t i = 1; i < g.schedule().size(); ++i) {
    EXPECT_LT(g.schedule()[i - 1].seq, g.schedule()[i].seq);
  }
}

TEST(Recorder, FinalizeWithLiveThreadThrows) {
  Recorder rec;
  rec.thread_started(0, 0);
  EXPECT_THROW((void)std::move(rec).finalize(), std::logic_error);
}

TEST(Recorder, DoubleStartThrows) {
  Recorder rec;
  rec.thread_started(0, 0);
  EXPECT_THROW(rec.thread_started(0, 0), std::logic_error);
}

TEST(Recorder, UseBeforeStartThrows) {
  Recorder rec;
  EXPECT_THROW(rec.on_branch(3, {}), std::logic_error);
}

TEST(Recorder, SnapshotPrefixIsCausallyClosedSubgraph) {
  Recorder rec;
  rec.thread_started(0, 0);
  rec.thread_started(1, 0);
  rec.end_subcomputation(0, PageSet{}, PageSet{1}, unlock_end(kM));
  rec.on_release(0, kM);
  const std::uint64_t cut = rec.sequence();
  rec.on_acquire(1, kM);
  rec.end_subcomputation(1, PageSet{1}, PageSet{}, lock_end(kM));

  const Graph snap = rec.snapshot_prefix(cut);
  EXPECT_EQ(snap.nodes().size(), 1u) << "only T0's completed node is in";

  rec.thread_exiting(0, PageSet{}, PageSet{});
  rec.thread_exiting(1, PageSet{}, PageSet{});
  const Graph full = std::move(rec).finalize();
  EXPECT_GT(full.nodes().size(), snap.nodes().size());
  std::string reason;
  EXPECT_TRUE(snap.validate(&reason)) << reason;
}

}  // namespace
