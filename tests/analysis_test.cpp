// Tests for the analysis layer: the taint propagation, race scan and
// critical path kernels over a GraphView, and NUMA affinity (the §VIII
// case studies as libraries).
#include <gtest/gtest.h>

#include <unordered_set>

#include "analysis/kernels.h"
#include "analysis/numa.h"
#include "core/inspector.h"
#include "memtrack/shared_memory.h"
#include "runtime/executor.h"
#include "workloads/common.h"
#include "workloads/registry.h"

namespace {

using namespace inspector;
using analysis::GraphView;
namespace kernels = analysis::kernels;
using workloads::global_word;
using workloads::mutex_id;
using workloads::ScriptBuilder;

// A program with an explicit flow: input page -> worker A's buffer ->
// shared page -> worker B reads it; worker C never touches input data.
runtime::Program flow_program() {
  runtime::Program p;
  p.name = "flow";
  p.input.push_back({memtrack::AddressLayout::kInputBase, 77});
  const auto m = mutex_id(0);

  ScriptBuilder a(1);
  a.load(memtrack::AddressLayout::kInputBase);  // read the input
  a.lock(m);
  a.store(global_word(0), 77);  // publish derived value
  a.unlock(m);
  p.scripts.push_back(a.take());

  ScriptBuilder b(2);
  b.compute(50000);  // run after A (made certain by lock order + join)
  b.lock(m);
  b.load(global_word(0));
  b.store(global_word(512), 78);  // second-hop derivation
  b.unlock(m);
  p.scripts.push_back(b.take());

  ScriptBuilder c(3);
  c.store(workloads::thread_heap_base(2), 1);  // untainted private work
  p.scripts.push_back(c.take());

  ScriptBuilder main(4);
  main.spawn(0).join(0);  // A completes before B starts
  main.spawn(1).spawn(2).join(1).join(2);
  p.main_script = 3;
  p.scripts.push_back(main.take());
  return p;
}

class AnalysisFixture : public ::testing::Test {
 protected:
  runtime::ExecutionResult run(const runtime::Program& p) {
    core::Inspector insp;
    return insp.run(p);
  }
};

TEST_F(AnalysisFixture, TaintFollowsTwoHopFlow) {
  const auto result = run(flow_program());
  const auto& g = *result.graph;

  const PageSet seeds = {
      memtrack::page_id_of(memtrack::AddressLayout::kInputBase)};
  const auto taint = kernels::propagate_pages(GraphView(g), seeds, true);

  // The shared page A wrote and the second-hop page B wrote are both
  // tainted.
  EXPECT_TRUE(
      page_set_contains(taint.pages, memtrack::page_id_of(global_word(0))));
  EXPECT_TRUE(
      page_set_contains(taint.pages, memtrack::page_id_of(global_word(512))));
  // C's private page is not.
  EXPECT_FALSE(page_set_contains(
      taint.pages, memtrack::page_id_of(workloads::thread_heap_base(2))));

  // A (thread 1) and B (thread 2) have tainted nodes; C (thread 3)
  // does not.
  std::unordered_set<cpg::ThreadId> tainted_threads;
  for (cpg::NodeId id : taint.nodes) {
    tainted_threads.insert(g.node(id).thread);
  }
  EXPECT_TRUE(tainted_threads.contains(1));
  EXPECT_TRUE(tainted_threads.contains(2));
  EXPECT_FALSE(tainted_threads.contains(3));
}

TEST_F(AnalysisFixture, TaintWithoutCarryoverIsPagePure) {
  const auto result = run(flow_program());
  const auto& g = *result.graph;
  const PageSet seeds = {
      memtrack::page_id_of(memtrack::AddressLayout::kInputBase)};

  const auto pure = kernels::propagate_pages(GraphView(g), seeds, false);
  const auto carry = kernels::propagate_pages(GraphView(g), seeds, true);
  // Register carry-over can only taint more, never less.
  EXPECT_LE(pure.nodes.size(), carry.nodes.size());
  for (std::uint64_t page : pure.pages) {
    EXPECT_TRUE(page_set_contains(carry.pages, page));
  }
}

TEST_F(AnalysisFixture, TaintedSinksFindExitNodes) {
  const auto result = run(flow_program());
  const auto& g = *result.graph;
  const PageSet seeds = {
      memtrack::page_id_of(memtrack::AddressLayout::kInputBase)};
  const auto taint = kernels::propagate_pages(
      GraphView(g), seeds, true, sync::SyncEventKind::kThreadExit);
  // A's and B's exits are tainted sinks; C's is not.
  std::unordered_set<cpg::ThreadId> sink_threads;
  for (auto id : taint.sinks) sink_threads.insert(g.node(id).thread);
  EXPECT_TRUE(sink_threads.contains(1));
  EXPECT_TRUE(sink_threads.contains(2));
  EXPECT_FALSE(sink_threads.contains(3));
}

// --- races -------------------------------------------------------------

runtime::Program racy_program() {
  runtime::Program p;
  p.name = "racy";
  // Two threads write the same global page with NO synchronization.
  for (int w = 0; w < 2; ++w) {
    ScriptBuilder b(w + 1);
    b.store(global_word(static_cast<std::uint64_t>(w)), 1);  // same page!
    p.scripts.push_back(b.take());
  }
  ScriptBuilder main(9);
  main.spawn(0).spawn(1).join(0).join(1);
  p.main_script = 2;
  p.scripts.push_back(main.take());
  return p;
}

TEST_F(AnalysisFixture, DetectsUnsynchronizedWriteWrite) {
  const auto result = run(racy_program());
  const auto races = kernels::find_races(GraphView(*result.graph), {}, 0);
  ASSERT_FALSE(races.empty());
  EXPECT_TRUE(races[0].write_write);
  EXPECT_EQ(races[0].page, memtrack::page_id_of(global_word(0)));
  EXPECT_FALSE(kernels::find_races(GraphView(*result.graph), {}, 1).empty());
}

TEST_F(AnalysisFixture, LockedAccessesAreNotRaces) {
  const auto result = run(flow_program());
  EXPECT_TRUE(kernels::find_races(GraphView(*result.graph), {}, 1).empty())
      << "lock-ordered and join-ordered accesses are happens-before "
         "ordered";
}

TEST_F(AnalysisFixture, IgnoredPagesSuppressReports) {
  const auto result = run(racy_program());
  const PageSet ignored = {memtrack::page_id_of(global_word(0))};
  EXPECT_TRUE(
      kernels::find_races(GraphView(*result.graph), ignored, 0).empty());
}

TEST_F(AnalysisFixture, RaceLimitShortCircuits) {
  const auto result = run(racy_program());
  EXPECT_EQ(kernels::find_races(GraphView(*result.graph), {}, 1).size(), 1u);
}

TEST_F(AnalysisFixture, LockDisciplinedWorkloadsAreRaceFree) {
  // Benchmarks whose cross-thread pages are all lock- or join-ordered:
  // the detector must find nothing at page granularity.
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.15;
  for (const std::string name :
       {"histogram", "string_match", "swaptions", "word_count",
        "blackscholes", "kmeans", "reverse_index", "streamcluster"}) {
    const auto result = run(workloads::make_workload(name, config));
    EXPECT_TRUE(kernels::find_races(GraphView(*result.graph), {}, 1).empty())
        << name;
  }
}

TEST_F(AnalysisFixture, FalseSharingWorkloadsAreFlagged) {
  // These four touch shared pages from concurrent sub-computations by
  // design: linear_regression packs accumulators on one page (the
  // Sheriff false-sharing effect §VII-A), matrix_multiply and pca write
  // adjacent output rows of one page from different workers, and
  // canneal reads elements unlocked while peers swap them. At page
  // granularity those are exactly the conflicts the detector reports.
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.15;
  for (const std::string name :
       {"linear_regression", "matrix_multiply", "pca", "canneal"}) {
    const auto result = run(workloads::make_workload(name, config));
    EXPECT_FALSE(kernels::find_races(GraphView(*result.graph), {}, 1).empty())
        << name;
  }
}

// --- NUMA ---------------------------------------------------------------

TEST_F(AnalysisFixture, AffinityCountsTouches) {
  const auto result = run(flow_program());
  const auto affinity = analysis::page_affinity(*result.graph);
  EXPECT_GT(affinity.total_touches(), 0u);
  // The input page was touched by thread 1 (worker A).
  const auto it = affinity.touches.find(
      memtrack::page_id_of(memtrack::AddressLayout::kInputBase));
  ASSERT_NE(it, affinity.touches.end());
  EXPECT_TRUE(it->second.contains(1));
}

TEST_F(AnalysisFixture, GuidedPlacementBeatsSingleNode) {
  workloads::WorkloadConfig config;
  config.threads = 8;
  config.scale = 0.3;
  const auto result = run(workloads::make_histogram(config));
  const auto affinity = analysis::page_affinity(*result.graph);
  const auto threads = analysis::round_robin_threads(
      result.stats.threads_spawned, 2);
  const auto placement = analysis::propose_placement(affinity, threads, 2);
  const auto guided = analysis::score_layout(affinity, threads, placement);
  const auto naive = analysis::score_single_node(affinity, threads, 0);
  EXPECT_EQ(guided.total, naive.total);
  EXPECT_LT(guided.remote, naive.remote)
      << "placing pages with their dominant accessor reduces remote "
         "touches";
  EXPECT_LT(guided.remote_share(), 0.5);
}

TEST(NumaHelpers, RoundRobinAlternates) {
  const auto placement = analysis::round_robin_threads(5, 2);
  EXPECT_EQ(placement, (analysis::ThreadPlacement{0, 1, 0, 1, 0}));
}

// --- critical path -------------------------------------------------------

TEST_F(AnalysisFixture, CriticalPathOfSequentialChain) {
  runtime::Program p;
  p.name = "chain";
  ScriptBuilder main(1);
  const auto m = mutex_id(0);
  for (int i = 0; i < 5; ++i) {
    main.lock(m);
    main.unlock(m);
  }
  p.main_script = 0;
  p.scripts.push_back(main.take());
  const auto result = run(p);
  const auto cp = kernels::critical_path(GraphView(*result.graph));
  // Single thread: the critical path is the whole node chain.
  EXPECT_EQ(cp.nodes.size(), result.graph->nodes().size());
  EXPECT_EQ(cp.total_nodes, cp.nodes.size());
  // Path nodes are consecutive alphas of thread 0.
  for (std::size_t i = 1; i < cp.nodes.size(); ++i) {
    EXPECT_EQ(result.graph->node(cp.nodes[i]).alpha,
              result.graph->node(cp.nodes[i - 1]).alpha + 1);
  }
}

TEST_F(AnalysisFixture, ParallelWorkloadHasParallelism) {
  workloads::WorkloadConfig config;
  config.threads = 8;
  config.scale = 0.3;
  // streamcluster: barrier rounds give every worker a long node chain,
  // so the graph is much wider than its critical path.
  const auto result = run(workloads::make_streamcluster(config));
  const auto cp = kernels::critical_path(GraphView(*result.graph));
  EXPECT_GT(cp.total_nodes, 2 * cp.nodes.size())
      << "8 barrier-round workers must show available parallelism";
  EXPECT_EQ(cp.total_nodes, result.graph->nodes().size());
}

TEST(CriticalPathEdge, EmptyGraph) {
  const cpg::Graph empty;
  const auto cp = kernels::critical_path(GraphView(empty));
  EXPECT_EQ(cp.total_nodes, 0u);
  EXPECT_TRUE(cp.nodes.empty());
}

}  // namespace
