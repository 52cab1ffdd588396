// CPG query tests on hand-crafted graphs: data dependencies, latest
// writers and slices (the kernels over a GraphView), the page index,
// topological order, validation (§IV-A III).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "analysis/kernels.h"
#include "cpg/graph.h"

namespace {

using namespace inspector::cpg;
using inspector::analysis::GraphView;
namespace kernels = inspector::analysis::kernels;
namespace sync = inspector::sync;

std::vector<NodeId> ids(std::span<const NodeId> span) {
  return {span.begin(), span.end()};
}

// Build the paper's Figure-1 example:
//   T1.a: reads {y}, writes {x,y}   (pages: y=1, x=2)
//   T2.a: reads {x}, writes {y}     after T1.a (lock order)
//   T1.b: reads {y}, writes {y}     after T2.a
SubComputation node(NodeId id, ThreadId t, std::uint64_t alpha,
                    std::vector<std::uint64_t> clock,
                    std::vector<std::uint64_t> reads,
                    std::vector<std::uint64_t> writes) {
  SubComputation n;
  n.id = id;
  n.thread = t;
  n.alpha = alpha;
  for (std::size_t i = 0; i < clock.size(); ++i) n.clock.set(i, clock[i]);
  std::sort(reads.begin(), reads.end());
  std::sort(writes.begin(), writes.end());
  n.read_set = std::move(reads);
  n.write_set = std::move(writes);
  return n;
}

Graph figure1_graph() {
  constexpr std::uint64_t y = 1, x = 2;
  std::vector<SubComputation> nodes;
  nodes.push_back(node(0, 0, 0, {1, 0}, {y}, {x, y}));  // T1.a
  nodes.push_back(node(1, 1, 0, {1, 1}, {x}, {y}));     // T2.a
  nodes.push_back(node(2, 0, 1, {2, 1}, {y}, {y}));     // T1.b
  std::vector<Edge> edges = {
      {0, 2, EdgeKind::kControl, 0},
      {0, 1, EdgeKind::kSync, 99},
      {1, 2, EdgeKind::kSync, 99},
  };
  return Graph(std::move(nodes), std::move(edges), {});
}

TEST(Graph, Figure1HappensBefore) {
  const Graph g = figure1_graph();
  EXPECT_TRUE(g.happens_before(0, 1));
  EXPECT_TRUE(g.happens_before(1, 2));
  EXPECT_TRUE(g.happens_before(0, 2));
  EXPECT_FALSE(g.happens_before(2, 0));
  EXPECT_FALSE(g.concurrent(0, 1));
}

TEST(Graph, Figure1DataDependencies) {
  const Graph g = figure1_graph();
  // T2.a reads x which T1.a wrote.
  const auto deps1 = kernels::data_dependencies(GraphView(g), 1);
  ASSERT_EQ(deps1.size(), 1u);
  EXPECT_EQ(deps1[0].from, 0u);
  EXPECT_EQ(deps1[0].object, 2u);  // page of x
  // T1.b reads y; both T1.a and T2.a wrote it.
  const auto deps2 = kernels::data_dependencies(GraphView(g), 2);
  ASSERT_EQ(deps2.size(), 2u);
}

TEST(Graph, Figure1LatestWriterMasksEarlier) {
  const Graph g = figure1_graph();
  // For T1.b's read of y, T2.a is the latest writer (T1.a is masked:
  // it happens-before T2.a).
  const auto latest = kernels::latest_writers(GraphView(g), 2);
  ASSERT_EQ(latest.size(), 1u);
  EXPECT_EQ(latest[0].from, 1u);
  EXPECT_EQ(latest[0].object, 1u);
}

TEST(Graph, ConcurrentWritersBothLatest) {
  // Two concurrent writers of the same page: neither masks the other.
  std::vector<SubComputation> nodes;
  nodes.push_back(node(0, 0, 0, {1, 0, 0}, {}, {7}));
  nodes.push_back(node(1, 1, 0, {0, 1, 0}, {}, {7}));
  nodes.push_back(node(2, 2, 0, {1, 1, 1}, {7}, {}));
  Graph g({nodes}, {}, {});
  const auto latest = kernels::latest_writers(GraphView(g), 2);
  EXPECT_EQ(latest.size(), 2u);
}

TEST(Graph, WritersAndReadersOfPage) {
  const Graph g = figure1_graph();
  EXPECT_EQ(ids(g.page_writers(1)), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(ids(g.page_readers(2)), (std::vector<NodeId>{1}));
  EXPECT_TRUE(g.page_writers(55).empty());
}

TEST(Graph, BackwardSliceFollowsDataAndSync) {
  const Graph g = figure1_graph();
  const auto slice = kernels::backward_slice(GraphView(g), 2);
  EXPECT_EQ(slice, (std::vector<NodeId>{0, 1, 2}))
      << "the debugging query: why is y's state what it is";
  const auto slice0 = kernels::backward_slice(GraphView(g), 0);
  EXPECT_EQ(slice0, (std::vector<NodeId>{0}));
}

TEST(Graph, TopologicalOrderRespectsEdges) {
  const Graph g = figure1_graph();
  const auto order = g.topological_view();
  ASSERT_EQ(order.size(), 3u);
  std::vector<std::size_t> pos(3);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const auto& e : g.edges()) {
    EXPECT_LT(pos[e.from], pos[e.to]);
  }
}

TEST(Graph, CycleDetection) {
  std::vector<SubComputation> nodes;
  nodes.push_back(node(0, 0, 0, {1}, {}, {}));
  nodes.push_back(node(1, 0, 1, {2}, {}, {}));
  std::vector<Edge> edges = {
      {0, 1, EdgeKind::kSync, 0},
      {1, 0, EdgeKind::kSync, 0},
  };
  Graph g(std::move(nodes), std::move(edges), {});
  EXPECT_THROW((void)g.topological_view(), std::logic_error);
  std::string reason;
  EXPECT_FALSE(g.validate(&reason));
}

TEST(Graph, ValidateCatchesBadControlEdge) {
  std::vector<SubComputation> nodes;
  nodes.push_back(node(0, 0, 0, {1, 0}, {}, {}));
  nodes.push_back(node(1, 1, 0, {0, 1}, {}, {}));
  std::vector<Edge> edges = {{0, 1, EdgeKind::kControl, 0}};
  Graph g(std::move(nodes), std::move(edges), {});
  std::string reason;
  EXPECT_FALSE(g.validate(&reason));
  EXPECT_NE(reason.find("control edge"), std::string::npos);
}

TEST(Graph, ValidateCatchesBackwardSyncEdge) {
  std::vector<SubComputation> nodes;
  nodes.push_back(node(0, 0, 0, {1, 0}, {}, {}));
  nodes.push_back(node(1, 1, 0, {0, 1}, {}, {}));  // concurrent with 0
  std::vector<Edge> edges = {{0, 1, EdgeKind::kSync, 0}};
  Graph g(std::move(nodes), std::move(edges), {});
  std::string reason;
  EXPECT_FALSE(g.validate(&reason));
}

TEST(Graph, ThreadNodesOrderedByAlpha) {
  const Graph g = figure1_graph();
  const auto t0 = g.thread_nodes(0);
  ASSERT_EQ(t0.size(), 2u);
  EXPECT_EQ(t0[0], 0u);
  EXPECT_EQ(t0[1], 2u);
  EXPECT_TRUE(g.thread_nodes(9).empty());
  EXPECT_EQ(g.find(0, 1), std::optional<NodeId>{2});
  EXPECT_EQ(g.find(0, 5), std::nullopt);
}

TEST(Graph, IndexMatchesComparisonSortReferences) {
  // The index is built with radix passes and counting scatters; check
  // it against comparison sorts on crafted graphs that take every
  // path: threads whose alpha order is not their id order, clock
  // weights that tie (so thread, alpha and id break them), page ids
  // spread over many bytes, and unsorted page sets.
  std::mt19937_64 rng(31);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng() % 300;
    const std::uint32_t threads = 1 + static_cast<std::uint32_t>(rng() % 6);
    std::vector<std::uint64_t> page_pool(1 + rng() % 40);
    for (auto& p : page_pool) p = rng() >> (rng() % 40);
    std::vector<SubComputation> nodes(n);
    for (std::size_t i = 0; i < n; ++i) {
      SubComputation& v = nodes[i];
      v.id = static_cast<NodeId>(i);
      v.thread = static_cast<ThreadId>(rng() % threads);
      v.alpha = round % 2 == 0 ? i : rng() % 50;
      for (std::uint32_t t = 0; t < threads; ++t) v.clock.set(t, rng() % 4);
      for (int k = static_cast<int>(rng() % 5); k > 0; --k) {
        v.read_set.push_back(page_pool[rng() % page_pool.size()]);
      }
      for (int k = static_cast<int>(rng() % 4); k > 0; --k) {
        v.write_set.push_back(page_pool[rng() % page_pool.size()]);
      }
    }
    const std::vector<SubComputation> copy = nodes;
    const Graph g(std::move(nodes), {}, {});

    std::vector<std::uint64_t> weight(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::uint64_t c : copy[i].clock.components()) weight[i] += c;
    }
    std::vector<NodeId> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<NodeId>(i);
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return std::tuple(weight[a], copy[a].thread, copy[a].alpha, a) <
             std::tuple(weight[b], copy[b].thread, copy[b].alpha, b);
    });
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_EQ(g.rank(order[r]), r) << "round " << round;
    }
    for (std::uint32_t t = 0; t < threads; ++t) {
      std::vector<NodeId> expected;
      for (std::size_t i = 0; i < n; ++i) {
        if (copy[i].thread == t) expected.push_back(static_cast<NodeId>(i));
      }
      std::stable_sort(expected.begin(), expected.end(),
                       [&](NodeId a, NodeId b) {
                         return copy[a].alpha < copy[b].alpha;
                       });
      ASSERT_EQ(ids(g.thread_nodes(t)), expected) << "round " << round;
    }
    std::vector<std::uint64_t> universe;
    for (const auto& v : copy) {
      universe.insert(universe.end(), v.read_set.begin(), v.read_set.end());
      universe.insert(universe.end(), v.write_set.begin(), v.write_set.end());
    }
    std::sort(universe.begin(), universe.end());
    universe.erase(std::unique(universe.begin(), universe.end()),
                   universe.end());
    ASSERT_EQ(std::vector<std::uint64_t>(g.pages().begin(), g.pages().end()),
              universe);
    for (const std::uint64_t page : universe) {
      std::vector<NodeId> writers;
      std::vector<NodeId> readers;
      for (const NodeId id : order) {
        const auto has = [page](const std::vector<std::uint64_t>& set) {
          return std::find(set.begin(), set.end(), page) != set.end();
        };
        if (has(copy[id].write_set)) writers.push_back(id);
        if (has(copy[id].read_set)) readers.push_back(id);
      }
      ASSERT_EQ(ids(g.page_writers(page)), writers) << "page " << page;
      ASSERT_EQ(ids(g.page_readers(page)), readers) << "page " << page;
    }
  }
}

TEST(Graph, StatsAggregate) {
  const Graph g = figure1_graph();
  const auto s = g.stats();
  EXPECT_EQ(s.nodes, 3u);
  EXPECT_EQ(s.control_edges, 1u);
  EXPECT_EQ(s.sync_edges, 2u);
  EXPECT_EQ(s.threads, 2u);
  EXPECT_EQ(s.read_pages, 3u);
  EXPECT_EQ(s.write_pages, 4u);
}

TEST(Graph, ConstructorRejectsUnknownEdgeEndpoints) {
  // Crafted/corrupt inputs (e.g. a bad .cpg file) must not reach the
  // CSR builders, which write through edge endpoints.
  std::vector<SubComputation> nodes;
  nodes.push_back(node(0, 0, 0, {1}, {}, {}));
  std::vector<Edge> edges = {{0, 7, EdgeKind::kSync, 0}};
  EXPECT_THROW((Graph{std::move(nodes), std::move(edges), {}}),
               std::invalid_argument);
}

TEST(Graph, ThunkColumnRowsDecodePerNode) {
  ThunkColumn thunks;
  thunks.push(Thunk{0, {0x1000, 0x1040, true, false}});
  thunks.push(Thunk{1, {0x1050, 0x2000, false, true}});
  thunks.end_node();  // node 0: two thunks
  thunks.end_node();  // node 1: none
  thunks.push(Thunk{0, {0xFFFFFFFFFFFFFFF0ULL, 7, true, true}});
  thunks.end_node();  // node 2: one
  ASSERT_EQ(thunks.records.size(), 3 * kThunkRecordBytes);
  const Graph g(figure1_graph().nodes(), figure1_graph().edges(), {},
                std::move(thunks));
  const ThunkSpan first = g.thunks(0);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0], (Thunk{0, {0x1000, 0x1040, true, false}}));
  EXPECT_EQ(first[1], (Thunk{1, {0x1050, 0x2000, false, true}}));
  EXPECT_TRUE(g.thunks(1).empty());
  ASSERT_EQ(g.thunks(2).size(), 1u);
  EXPECT_EQ(g.thunks(2)[0], (Thunk{0, {0xFFFFFFFFFFFFFFF0ULL, 7, true, true}}));
  EXPECT_TRUE(g.thunks(3).empty());  // no such node
  EXPECT_EQ(g.stats().thunks, 3u);
  EXPECT_EQ(g.thunks(0), g.thunks(0));
  EXPECT_FALSE(g.thunks(0) == g.thunks(2));
  // Without a column no node has thunks.
  EXPECT_TRUE(figure1_graph().thunks(0).empty());
  EXPECT_EQ(figure1_graph().stats().thunks, 0u);
}

TEST(Graph, ConstructorRejectsMisshapenThunkColumns) {
  const Graph good = figure1_graph();
  const auto build = [&](ThunkColumn column) {
    return Graph(good.nodes(), good.edges(), {}, std::move(column));
  };
  ThunkColumn short_rows;  // two rows for three nodes
  short_rows.end_node();
  short_rows.end_node();
  EXPECT_THROW(build(short_rows), std::invalid_argument);
  ThunkColumn spare_bytes;  // records past the last row's end
  for (int i = 0; i < 3; ++i) spare_bytes.end_node();
  spare_bytes.push(Thunk{});
  EXPECT_THROW(build(spare_bytes), std::invalid_argument);
  ThunkColumn falling;  // ends must not decrease
  falling.ends = {1, 0, 1};
  falling.records.resize(kThunkRecordBytes);
  EXPECT_THROW(build(falling), std::invalid_argument);
  ThunkColumn rowless;  // records without rows
  rowless.push(Thunk{});
  EXPECT_THROW(build(rowless), std::invalid_argument);
}

TEST(Graph, EmptyGraphIsValid) {
  Graph g;
  std::string reason;
  EXPECT_TRUE(g.validate(&reason));
  EXPECT_TRUE(g.topological_view().empty());
}

}  // namespace
