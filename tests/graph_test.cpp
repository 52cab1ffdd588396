// CPG query tests on hand-crafted graphs: data dependencies, latest
// writers and slices (the kernels over a GraphView), the page index,
// topological order, validation (§IV-A III).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
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

TEST(Graph, EmptyGraphIsValid) {
  Graph g;
  std::string reason;
  EXPECT_TRUE(g.validate(&reason));
  EXPECT_TRUE(g.topological_view().empty());
}

}  // namespace
