// Determinism of the parallel analysis runtime across worker counts.
//
// The contract of util::TaskPool consumers is bit-identical output at
// every worker count: the shared query index (ranks, topological
// levels, inverted-index buckets), the page-major race scan, taint
// propagation, and incremental invalidation may split work across
// workers but must merge deterministically. These property tests
// rebuild the same randomized recorder histories at 1, 2, and 8
// workers and assert full equality against the single-worker result.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/kernels.h"
#include "history_fixtures.h"
#include "util/parallel.h"

namespace {

using namespace inspector::cpg;
namespace analysis = inspector::analysis;
namespace kernels = inspector::analysis::kernels;
using inspector::analysis::GraphView;
namespace sync = inspector::sync;
namespace util = inspector::util;
using inspector::PageSet;
using inspector::fixtures::dense_history;
using inspector::fixtures::random_history;
using inspector::fixtures::ThreadCountGuard;

/// Everything the analysis layer computes, flattened for comparison.
struct AnalysisFingerprint {
  std::vector<std::uint32_t> ranks;
  std::vector<NodeId> topo;
  std::vector<std::vector<NodeId>> levels;
  std::vector<std::uint64_t> pages;
  std::vector<std::vector<NodeId>> writers;
  std::vector<std::vector<NodeId>> readers;
  std::vector<analysis::RaceReport> races;
  std::vector<NodeId> tainted_nodes;  ///< carry-over flow (taint, invalidate)
  std::vector<std::uint64_t> tainted_pages;
  std::vector<NodeId> sinks;
  std::vector<NodeId> page_flow_nodes;  ///< flow through pages alone
  std::vector<std::uint64_t> page_flow_pages;

  bool operator==(const AnalysisFingerprint&) const = default;
};

AnalysisFingerprint fingerprint(const Graph& g) {
  AnalysisFingerprint fp;
  for (const auto& n : g.nodes()) fp.ranks.push_back(g.rank(n.id));
  const auto topo = g.topological_view();
  fp.topo.assign(topo.begin(), topo.end());
  for (std::size_t l = 0; l < g.level_count(); ++l) {
    const auto lvl = g.level_nodes(l);
    fp.levels.emplace_back(lvl.begin(), lvl.end());
  }
  const auto pages = g.pages();
  fp.pages.assign(pages.begin(), pages.end());
  for (std::uint64_t page : pages) {
    const auto writers = g.page_writers(page);
    const auto readers = g.page_readers(page);
    fp.writers.emplace_back(writers.begin(), writers.end());
    fp.readers.emplace_back(readers.begin(), readers.end());
  }
  const GraphView view(g);
  fp.races = kernels::find_races(view, {}, 0);

  // Taint and invalidation both run the carry-over flow; the pure page
  // flow is the other propagation mode.
  const PageSet seeds = {0, 3, 7};
  const auto taint = kernels::propagate_pages(
      view, seeds, true, sync::SyncEventKind::kThreadExit);
  fp.tainted_nodes = taint.nodes;
  fp.tainted_pages = taint.pages;  // PageSet: already sorted
  fp.sinks = taint.sinks;

  const auto page_flow = kernels::propagate_pages(view, seeds, false);
  fp.page_flow_nodes = page_flow.nodes;
  fp.page_flow_pages = page_flow.pages;
  return fp;
}

class ParallelDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelDeterminism, IdenticalAcrossWorkerCounts) {
  ThreadCountGuard guard;
  util::set_analysis_threads(1);
  const AnalysisFingerprint reference = fingerprint(random_history(GetParam()));
  EXPECT_FALSE(reference.topo.empty());
  for (unsigned workers : {2u, 8u}) {
    util::set_analysis_threads(workers);
    const AnalysisFingerprint fp = fingerprint(random_history(GetParam()));
    EXPECT_EQ(fp.ranks, reference.ranks) << workers << " workers";
    EXPECT_EQ(fp.topo, reference.topo) << workers << " workers";
    EXPECT_EQ(fp.levels, reference.levels) << workers << " workers";
    EXPECT_EQ(fp.pages, reference.pages) << workers << " workers";
    EXPECT_EQ(fp.writers, reference.writers) << workers << " workers";
    EXPECT_EQ(fp.readers, reference.readers) << workers << " workers";
    EXPECT_EQ(fp.races, reference.races) << workers << " workers";
    EXPECT_EQ(fp.tainted_nodes, reference.tainted_nodes)
        << workers << " workers";
    EXPECT_EQ(fp.tainted_pages, reference.tainted_pages)
        << workers << " workers";
    EXPECT_EQ(fp.sinks, reference.sinks) << workers << " workers";
    EXPECT_EQ(fp.page_flow_nodes, reference.page_flow_nodes)
        << workers << " workers";
    EXPECT_EQ(fp.page_flow_pages, reference.page_flow_pages)
        << workers << " workers";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomHistories, ParallelDeterminism,
                         ::testing::Range<std::uint64_t>(0, 16));

// The same comparison on histories big enough that the multi-chunk
// scans and propagation rounds actually engage (the small histories
// above stay under the serial cutoffs).
TEST(ParallelDeterminismDense, IdenticalAcrossWorkerCounts) {
  ThreadCountGuard guard;
  for (const std::uint64_t seed : {1ULL, 5ULL}) {
    util::set_analysis_threads(1);
    const AnalysisFingerprint reference = fingerprint(dense_history(seed));
    EXPECT_GT(reference.topo.size(), 500u)
        << "dense history must be big enough to exercise parallel paths";
    for (unsigned workers : {2u, 8u}) {
      util::set_analysis_threads(workers);
      EXPECT_TRUE(fingerprint(dense_history(seed)) == reference)
          << "analysis outputs diverged at " << workers
          << " workers on dense seed " << seed;
    }
  }
}

// The index build splits its per-node stages over the pool only past
// a 16k-node grain; a graph over it, with unsorted page sets and
// duplicate pages for normalization to fix, builds the same index at
// every worker count.
TEST(ParallelDeterminismDense, IndexBuildPastTheGrainIsIdentical) {
  ThreadCountGuard guard;
  std::mt19937_64 rng(3);
  std::vector<SubComputation> nodes(40'000);
  std::vector<std::uint64_t> alphas(8, 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    SubComputation& n = nodes[i];
    n.id = static_cast<NodeId>(i);
    n.thread = static_cast<ThreadId>(rng() % 8);
    n.alpha = alphas[n.thread]++;
    n.clock.set(n.thread, n.alpha + 1);
    n.clock.set(rng() % 8, rng() % (i + 1));
    for (int k = static_cast<int>(rng() % 6); k > 0; --k) {
      n.read_set.push_back(rng() % 5000);
    }
    for (int k = static_cast<int>(rng() % 4); k > 0; --k) {
      n.write_set.push_back(rng() % 5000);
    }
  }
  const auto index_of = [](const Graph& g) {
    AnalysisFingerprint fp;
    for (const auto& n : g.nodes()) fp.ranks.push_back(g.rank(n.id));
    const auto pages = g.pages();
    fp.pages.assign(pages.begin(), pages.end());
    for (std::size_t p = 0; p < pages.size(); ++p) {
      const auto w = g.writers_at(p);
      const auto r = g.readers_at(p);
      fp.writers.emplace_back(w.begin(), w.end());
      fp.readers.emplace_back(r.begin(), r.end());
    }
    for (std::size_t t = 0; t < g.thread_count(); ++t) {
      const auto list = g.thread_nodes(static_cast<ThreadId>(t));
      fp.levels.emplace_back(list.begin(), list.end());
    }
    return fp;
  };
  util::set_analysis_threads(1);
  const Graph serial(nodes, {}, {});
  const AnalysisFingerprint reference = index_of(serial);
  for (const auto& n : serial.nodes()) {
    ASSERT_TRUE(std::is_sorted(n.read_set.begin(), n.read_set.end()));
    ASSERT_TRUE(std::adjacent_find(n.read_set.begin(), n.read_set.end()) ==
                n.read_set.end());
  }
  for (unsigned workers : {2u, 8u}) {
    util::set_analysis_threads(workers);
    EXPECT_TRUE(index_of(Graph(nodes, {}, {})) == reference)
        << "index diverged at " << workers << " workers";
  }
}

// Racy flows are schedule-dependent, so propagation must treat them
// conservatively: a node that reads a page a *concurrent* (same-level)
// node wrote from tainted data is tainted too, at every worker count.
TEST(PropagationRacyFlow, ConcurrentWriterReaderIsCovered) {
  ThreadCountGuard guard;
  for (unsigned workers : {1u, 2u, 8u}) {
    util::set_analysis_threads(workers);
    Recorder rec;
    rec.thread_started(0, 0);
    rec.thread_started(1, 1);
    // T0 reads the seed page and publishes to page 200; T1 reads page
    // 200 with no synchronization -- a racy, same-level pair.
    rec.end_subcomputation(0, {100}, {200},
                           {sync::SyncEventKind::kMutexLock, 1});
    rec.end_subcomputation(1, {200}, {300},
                           {sync::SyncEventKind::kMutexLock, 1});
    rec.thread_exiting(0, {}, {});
    rec.thread_exiting(1, {}, {});
    const Graph g = std::move(rec).finalize();
    ASSERT_TRUE(g.concurrent(0, 1)) << "history must actually race";

    const auto taint =
        kernels::propagate_pages(GraphView(g), PageSet{100}, true);
    const auto tainted = [&](NodeId id) {
      return std::binary_search(taint.nodes.begin(), taint.nodes.end(), id);
    };
    EXPECT_TRUE(tainted(0)) << workers << " workers";
    EXPECT_TRUE(tainted(1))
        << "concurrent reader of a racy write must stay tainted at "
        << workers << " workers";
    EXPECT_TRUE(inspector::page_set_contains(taint.pages, 200));
    EXPECT_TRUE(inspector::page_set_contains(taint.pages, 300))
        << "the racy flow's downstream write must be tainted";
  }
}

// The level decomposition itself must be sound: levels partition the
// node set, every recorded edge goes to a strictly higher level, and
// concatenating levels reproduces the cached topological order.
TEST(TopologicalLevels, PartitionAndRespectEdges) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Graph g = random_history(seed);
    std::vector<std::size_t> level_of(g.nodes().size(), ~std::size_t{0});
    std::size_t total = 0;
    std::vector<NodeId> concatenated;
    for (std::size_t l = 0; l < g.level_count(); ++l) {
      const auto lvl = g.level_nodes(l);
      EXPECT_FALSE(lvl.empty()) << "empty level " << l;
      EXPECT_TRUE(std::is_sorted(lvl.begin(), lvl.end()));
      for (NodeId id : lvl) {
        EXPECT_EQ(level_of[id], ~std::size_t{0}) << "node in two levels";
        level_of[id] = l;
      }
      total += lvl.size();
      concatenated.insert(concatenated.end(), lvl.begin(), lvl.end());
    }
    EXPECT_EQ(total, g.nodes().size());
    const auto topo = g.topological_view();
    EXPECT_EQ(concatenated, std::vector<NodeId>(topo.begin(), topo.end()));
    for (const auto& e : g.edges()) {
      EXPECT_LT(level_of[e.from], level_of[e.to]) << e;
    }
    // Same-thread nodes never share a level (their control chain
    // orders them), which is what makes thread-carryover propagation
    // safe to evaluate level-parallel.
    for (std::size_t t = 0; t < g.thread_count(); ++t) {
      const auto nodes = g.thread_nodes(static_cast<ThreadId>(t));
      for (std::size_t i = 1; i < nodes.size(); ++i) {
        EXPECT_LT(level_of[nodes[i - 1]], level_of[nodes[i]]);
      }
    }
  }
}

}  // namespace
