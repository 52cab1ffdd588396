// Deterministic-replay tests: the CPG must be a sufficient record to
// re-execute the program and reproduce its final memory state (the
// state-machine-replication workflow of §I).
#include <gtest/gtest.h>

#include "core/inspector.h"
#include "replay/replay.h"
#include "workloads/common.h"
#include "workloads/registry.h"

namespace {

using namespace inspector;
using workloads::global_word;
using workloads::mutex_id;
using workloads::ScriptBuilder;

class ReplayWorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ReplayWorkloadTest, ReproducesFinalState) {
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.15;
  const auto program = workloads::make_workload(GetParam(), config);
  core::Inspector insp;
  const auto result = insp.run(program);
  EXPECT_TRUE(replay::replay_matches(program, *result.graph,
                                     *result.memory))
      << GetParam();
}

std::vector<std::string> names() {
  std::vector<std::string> out;
  for (const auto& e : workloads::all_workloads()) out.push_back(e.name);
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllTwelve, ReplayWorkloadTest,
                         ::testing::ValuesIn(names()),
                         [](const auto& info) { return info.param; });

TEST(Replay, CountsNodesAndThreads) {
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.15;
  const auto program = workloads::make_histogram(config);
  core::Inspector insp;
  const auto result = insp.run(program);
  const auto replayed = replay::replay_execution(program, *result.graph);
  EXPECT_EQ(replayed.nodes_replayed, result.graph->nodes().size());
  EXPECT_EQ(replayed.threads, result.stats.threads_spawned);
  EXPECT_GT(replayed.ops_executed, 0u);
}

TEST(Replay, LockOrderedValueIsReproduced) {
  // Two threads write the same word under a lock with *different*
  // values: the replay must reproduce whichever ordering the original
  // run took.
  runtime::Program p;
  p.name = "lock_order";
  const auto m = mutex_id(0);
  for (int w = 0; w < 2; ++w) {
    ScriptBuilder b(w + 1);
    b.compute(w == 0 ? 500 : 400);
    b.lock(m);
    b.load(global_word(0));
    b.store(global_word(0), 100 + static_cast<std::uint64_t>(w));
    b.unlock(m);
    p.scripts.push_back(b.take());
  }
  ScriptBuilder main(9);
  main.spawn(0).spawn(1).join(0).join(1);
  p.main_script = 2;
  p.scripts.push_back(main.take());

  core::Inspector insp;
  const auto result = insp.run(p);
  const auto replayed = replay::replay_execution(p, *result.graph);
  EXPECT_EQ(replayed.memory->read_word(global_word(0)),
            result.memory->read_word(global_word(0)));
}

TEST(Replay, SnapshotPrefixReplaysPartially) {
  // A consistent snapshot of the CPG replays the committed prefix: the
  // live-analysis workflow of §VI applied to replication.
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.15;
  const auto program = workloads::make_word_count(config);
  core::Options options;
  options.snapshot_every_syncs = 32;
  core::Inspector insp(options);
  const auto result = insp.run(program);
  ASSERT_NE(result.snapshots, nullptr);
  ASSERT_GT(result.snapshots->occupied(), 0u);

  auto snap = result.snapshots->consume();
  ASSERT_TRUE(snap.ok()) << snap.status().message();
  // A prefix cannot contain exit nodes for every thread, so full replay
  // of it uses the nodes that exist. It must not throw and must replay
  // exactly the snapshot's nodes.
  const auto replayed = replay::replay_execution(program, *snap);
  EXPECT_EQ(replayed.nodes_replayed, snap->nodes().size());
}

TEST(Replay, WrongProgramIsRejected) {
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.15;
  const auto histogram = workloads::make_histogram(config);
  const auto canneal = workloads::make_canneal(config);
  core::Inspector insp;
  const auto result = insp.run(histogram);
  EXPECT_THROW(
      (void)replay::replay_execution(canneal, *result.graph),
      replay::ReplayError)
      << "a CPG recorded from one program cannot drive another";
}

TEST(Replay, EmptyGraphReplaysNothing) {
  runtime::Program p;
  p.name = "empty";
  ScriptBuilder main(1);
  main.compute(10);
  p.main_script = 0;
  p.scripts.push_back(main.take());
  const auto replayed = replay::replay_execution(p, cpg::Graph{});
  EXPECT_EQ(replayed.nodes_replayed, 0u);
  EXPECT_EQ(replayed.ops_executed, 0u);
}

}  // namespace
