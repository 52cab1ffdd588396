// QueryEngine behavior tests: the no-exceptions contract on every
// error path (bad node ids, unknown pages, unknown cursors, cyclic
// graphs), cursor pagination and exhaustion, session isolation, the
// result cache, and batches mixing valid and invalid requests.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <variant>
#include <vector>

#include "analysis/kernels.h"
#include "cpg/graph.h"
#include "history_fixtures.h"
#include "query/engine.h"

namespace {

using namespace inspector;
using namespace inspector::query;
using cpg::NodeId;

cpg::SubComputation node(NodeId id, cpg::ThreadId t, std::uint64_t alpha,
                         std::vector<std::uint64_t> clock, PageSet reads,
                         PageSet writes) {
  cpg::SubComputation n;
  n.id = id;
  n.thread = t;
  n.alpha = alpha;
  for (std::size_t i = 0; i < clock.size(); ++i) n.clock.set(i, clock[i]);
  page_set_normalize(reads);
  page_set_normalize(writes);
  n.read_set = std::move(reads);
  n.write_set = std::move(writes);
  return n;
}

/// The paper's Figure-1 shape: T1.a -> T2.a -> T1.b through pages
/// y=1, x=2 (same as graph_test.cpp).
std::shared_ptr<const cpg::Graph> figure1() {
  constexpr std::uint64_t y = 1, x = 2;
  std::vector<cpg::SubComputation> nodes;
  nodes.push_back(node(0, 0, 0, {1, 0}, {y}, {x, y}));
  nodes.push_back(node(1, 1, 0, {1, 1}, {x}, {y}));
  nodes.push_back(node(2, 0, 1, {2, 1}, {y}, {y}));
  std::vector<cpg::Edge> edges = {
      {0, 2, cpg::EdgeKind::kControl, 0},
      {0, 1, cpg::EdgeKind::kSync, 99},
      {1, 2, cpg::EdgeKind::kSync, 99},
  };
  return std::make_shared<const cpg::Graph>(std::move(nodes),
                                            std::move(edges),
                                            std::vector<sync::SyncEvent>{});
}

std::shared_ptr<const cpg::Graph> cyclic_graph() {
  std::vector<cpg::SubComputation> nodes;
  nodes.push_back(node(0, 0, 0, {1}, {}, {}));
  nodes.push_back(node(1, 0, 1, {2}, {}, {}));
  std::vector<cpg::Edge> edges = {
      {0, 1, cpg::EdgeKind::kSync, 0},
      {1, 0, cpg::EdgeKind::kSync, 0},
  };
  return std::make_shared<const cpg::Graph>(std::move(nodes),
                                            std::move(edges),
                                            std::vector<sync::SyncEvent>{});
}

// --- error paths -------------------------------------------------------

TEST(QueryEngineErrors, OutOfRangeNodeIdsOnEveryNodeQuery) {
  QueryEngine engine(figure1());
  const NodeId bad = 999;
  const std::vector<Query> queries = {
      BackwardSliceQuery{bad}, ForwardSliceQuery{bad},
      LatestWritersQuery{bad}, DataDependenciesQuery{bad},
      HappensBeforeQuery{0, bad}, HappensBeforeQuery{bad, 0}};
  for (const Query& q : queries) {
    const auto reply = engine.run(q);
    ASSERT_FALSE(reply.ok()) << query_name(q);
    EXPECT_EQ(reply.status().code(), StatusCode::kOutOfRange)
        << query_name(q);
    EXPECT_NE(reply.status().message().find("out of range"),
              std::string::npos);
  }
}

TEST(QueryEngineErrors, UntouchedPageIsNotFound) {
  QueryEngine engine(figure1());
  const auto reply = engine.run(PageAccessorsQuery{55});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  EXPECT_NE(reply.status().message().find("55"), std::string::npos);
}

TEST(QueryEngineErrors, TaintSeedsMayNameUntouchedPages) {
  // Seeds are a change description, not a lookup: pages no node
  // touched simply cannot propagate, and still appear in the result
  // (the CLI seeds whole input regions this way).
  QueryEngine engine(figure1());
  const auto reply = engine.run(TaintQuery{{55, 56}, true});
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  const auto& flow = std::get<FlowResult>(reply->result);
  EXPECT_TRUE(flow.nodes.empty());
  EXPECT_EQ(flow.pages, (PageSet{55, 56}));
}

TEST(QueryEngineErrors, CyclicGraphFailsFlowQueriesButNotLookups) {
  QueryEngine engine(cyclic_graph());
  for (const Query& q : std::vector<Query>{
           TaintQuery{{1}, true}, InvalidateQuery{{1}},
           CriticalPathQuery{}}) {
    const auto reply = engine.run(q);
    ASSERT_FALSE(reply.ok()) << query_name(q);
    EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition)
        << query_name(q);
    EXPECT_NE(reply.status().message().find("cycle"), std::string::npos);
  }
  // Queries that do not need a topological order still answer.
  EXPECT_TRUE(engine.run(StatsQuery{}).ok());
  EXPECT_TRUE(engine.run(HappensBeforeQuery{0, 1}).ok());
  EXPECT_TRUE(engine.run(RacesQuery{}).ok());
}

TEST(QueryEngineErrors, EmptyGraphAnswersScalarsAndRejectsNodeIds) {
  QueryEngine engine(std::make_shared<const cpg::Graph>());
  EXPECT_TRUE(engine.run(StatsQuery{}).ok());
  EXPECT_TRUE(engine.run(RacesQuery{}).ok());
  const auto reply = engine.run(BackwardSliceQuery{0});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kOutOfRange);
}

// --- ordering ----------------------------------------------------------

TEST(QueryEngine, HappensBeforeOrderings) {
  QueryEngine engine(figure1());
  const auto ordering = [&](NodeId a, NodeId b) {
    const auto reply = engine.run(HappensBeforeQuery{a, b});
    EXPECT_TRUE(reply.ok());
    return std::get<HappensBeforeResult>(reply->result).ordering;
  };
  EXPECT_EQ(ordering(0, 1), Ordering::kBefore);
  EXPECT_EQ(ordering(1, 0), Ordering::kAfter);
  EXPECT_EQ(ordering(1, 1), Ordering::kEqual);

  // Two concurrent nodes need a graph with incomparable clocks.
  std::vector<cpg::SubComputation> nodes;
  nodes.push_back(node(0, 0, 0, {1, 0}, {}, {7}));
  nodes.push_back(node(1, 1, 0, {0, 1}, {}, {7}));
  QueryEngine concurrent_engine(std::make_shared<const cpg::Graph>(
      std::move(nodes), std::vector<cpg::Edge>{},
      std::vector<sync::SyncEvent>{}));
  const auto reply = concurrent_engine.run(HappensBeforeQuery{0, 1});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(std::get<HappensBeforeResult>(reply->result).ordering,
            Ordering::kConcurrent);
}

// --- cursors and sessions ----------------------------------------------

TEST(QueryEngineCursors, PaginatesAndExhausts) {
  QueryEngine engine(
      std::make_shared<const cpg::Graph>(fixtures::dense_history(3)));

  // The full answer, for comparison.
  const auto full = engine.run(ForwardSliceQuery{0});
  ASSERT_TRUE(full.ok());
  const auto& full_nodes = std::get<NodeListResult>(full->result).nodes;
  ASSERT_GT(full_nodes.size(), 10u);

  QueryOptions options;
  options.page_size = 7;
  auto reply = engine.run(ForwardSliceQuery{0}, options);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->total_items, full_nodes.size());
  EXPECT_TRUE(reply->has_more);
  ASSERT_NE(reply->cursor, 0u);
  const std::uint64_t cursor = reply->cursor;

  std::vector<NodeId> reassembled =
      std::get<NodeListResult>(reply->result).nodes;
  EXPECT_EQ(reassembled.size(), 7u);
  while (reply->has_more) {
    reply = engine.next(cursor);
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    const auto& page = std::get<NodeListResult>(reply->result).nodes;
    EXPECT_LE(page.size(), 7u);
    EXPECT_FALSE(page.empty());
    reassembled.insert(reassembled.end(), page.begin(), page.end());
  }
  EXPECT_EQ(reply->cursor, 0u) << "final page closes the cursor";
  EXPECT_EQ(reassembled, full_nodes);

  // Reuse after exhaustion: typed error, stable across calls.
  for (int i = 0; i < 2; ++i) {
    const auto drained = engine.next(cursor);
    ASSERT_FALSE(drained.ok());
    EXPECT_EQ(drained.status().code(), StatusCode::kExhausted);
  }
}

TEST(QueryEngineCursors, AbandonedCursorsAreEvictedByTheSessionCap) {
  // A serving session whose client abandons paginated queries must not
  // pin every full result forever: past the per-session cap (1024),
  // the oldest cursors are evicted and answer kNotFound.
  QueryEngine engine(
      std::make_shared<const cpg::Graph>(fixtures::dense_history(2)));
  QueryOptions options;
  options.page_size = 3;
  const auto first = engine.run(ForwardSliceQuery{0}, options);
  ASSERT_TRUE(first.ok());
  const std::uint64_t first_cursor = first->cursor;
  ASSERT_NE(first_cursor, 0u);
  EXPECT_TRUE(engine.next(first_cursor).ok());

  for (int i = 0; i < 1024; ++i) {
    const auto reply = engine.run(ForwardSliceQuery{0}, options);
    ASSERT_TRUE(reply.ok());
    ASSERT_NE(reply->cursor, 0u);
  }
  const auto evicted = engine.next(first_cursor);
  ASSERT_FALSE(evicted.ok());
  EXPECT_EQ(evicted.status().code(), StatusCode::kNotFound);
}

TEST(QueryEngineCursors, UnknownCursorIsNotFound) {
  QueryEngine engine(figure1());
  const auto reply = engine.next(42);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
}

TEST(QueryEngineCursors, ScalarResultsNeverPaginate) {
  QueryEngine engine(figure1());
  QueryOptions options;
  options.page_size = 1;
  const auto reply = engine.run(StatsQuery{}, options);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->has_more);
  EXPECT_EQ(reply->cursor, 0u);
  EXPECT_EQ(reply->total_items, 1u);
}

TEST(QueryEngineCursors, MultiListResultsPaginateAcrossLists) {
  // Figure 1 under taint from page 1: all three nodes taint, pages
  // {1, 2}, and the thread-exit sinks list is empty. Item space =
  // nodes ++ pages ++ sinks; a page size of 2 must cut across the
  // nodes/pages boundary and reassemble exactly.
  QueryEngine engine(figure1());
  const auto full = engine.run(TaintQuery{{1}, true});
  ASSERT_TRUE(full.ok());
  const auto& flow = std::get<FlowResult>(full->result);
  ASSERT_EQ(flow.nodes.size(), 3u);
  ASSERT_EQ(flow.pages, (PageSet{1, 2}));

  QueryOptions options;
  options.page_size = 2;
  auto reply = engine.run(TaintQuery{{1}, true}, options);
  ASSERT_TRUE(reply.ok());
  FlowResult reassembled = std::get<FlowResult>(reply->result);
  const std::uint64_t cursor = reply->cursor;
  ASSERT_NE(cursor, 0u);
  while (reply->has_more) {
    reply = engine.next(cursor);
    ASSERT_TRUE(reply.ok());
    const auto& page = std::get<FlowResult>(reply->result);
    reassembled.nodes.insert(reassembled.nodes.end(), page.nodes.begin(),
                             page.nodes.end());
    reassembled.pages.insert(reassembled.pages.end(), page.pages.begin(),
                             page.pages.end());
    reassembled.sinks.insert(reassembled.sinks.end(), page.sinks.begin(),
                             page.sinks.end());
  }
  EXPECT_EQ(reassembled, flow);
}

TEST(QueryEngineSessions, CursorsAreSessionScoped) {
  QueryEngine engine(
      std::make_shared<const cpg::Graph>(fixtures::dense_history(1)));
  const auto session_a = engine.open_session();
  const auto session_b = engine.open_session();

  QueryOptions options;
  options.page_size = 3;
  const auto reply = engine.run(session_a, ForwardSliceQuery{0}, options);
  ASSERT_TRUE(reply.ok());
  ASSERT_NE(reply->cursor, 0u);

  // The cursor resolves in its own session only.
  EXPECT_TRUE(engine.next(session_a, reply->cursor).ok());
  const auto cross = engine.next(session_b, reply->cursor);
  ASSERT_FALSE(cross.ok());
  EXPECT_EQ(cross.status().code(), StatusCode::kNotFound);

  // Closing the session drops its cursors; the session itself is gone.
  EXPECT_TRUE(engine.close_session(session_a).ok());
  const auto after_close = engine.next(session_a, reply->cursor);
  ASSERT_FALSE(after_close.ok());
  EXPECT_EQ(after_close.status().code(), StatusCode::kNotFound);

  EXPECT_EQ(engine.close_session(session_a).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.close_session(QueryEngine::kDefaultSession).code(),
            StatusCode::kInvalidArgument);
}

// --- batches -----------------------------------------------------------

TEST(QueryEngineBatch, MixedValidAndInvalidQueriesGetPerQueryStatuses) {
  QueryEngine engine(figure1());
  const std::vector<Query> queries = {
      StatsQuery{},              // ok
      BackwardSliceQuery{999},   // out of range
      RacesQuery{},              // ok
      PageAccessorsQuery{55},    // unknown page
      HappensBeforeQuery{0, 2},  // ok
  };
  const auto replies =
      engine.run_batch(QueryEngine::kDefaultSession, queries);
  ASSERT_EQ(replies.size(), queries.size());
  EXPECT_TRUE(replies[0].ok());
  EXPECT_EQ(replies[1].status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(replies[2].ok());
  EXPECT_EQ(replies[3].status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(replies[4].ok());
  EXPECT_EQ(std::get<HappensBeforeResult>(replies[4]->result).ordering,
            Ordering::kBefore);
}

TEST(QueryEngineBatch, MatchesSingleQueryResults) {
  QueryEngine engine(
      std::make_shared<const cpg::Graph>(fixtures::random_history(7)));
  const std::vector<Query> queries = {
      BackwardSliceQuery{0}, ForwardSliceQuery{0}, RacesQuery{},
      TaintQuery{{0, 3, 7}, true}, CriticalPathQuery{}};
  const auto batched =
      engine.run_batch(QueryEngine::kDefaultSession, queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto single = engine.run(queries[i]);
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(batched[i].ok());
    EXPECT_TRUE(single->result == batched[i]->result) << i;
  }
}

TEST(QueryEngineBatch, UnknownSessionErrorsEveryReply) {
  QueryEngine engine(figure1());
  const std::vector<Query> queries = {StatsQuery{}, RacesQuery{}};
  const auto replies = engine.run_batch(12345, queries);
  ASSERT_EQ(replies.size(), 2u);
  for (const auto& reply : replies) {
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  }
}

// --- cache -------------------------------------------------------------

TEST(QueryEngineCache, RepeatedQueriesHitTheCache) {
  QueryEngine engine(
      std::make_shared<const cpg::Graph>(fixtures::random_history(2)));
  const auto first = engine.run(RacesQuery{});
  const auto second = engine.run(RacesQuery{});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(first->result == second->result);
  EXPECT_GE(engine.cache_stats().hits, 1u);

  QueryOptions uncached;
  uncached.skip_cache = true;
  const auto hits_before = engine.cache_stats().hits;
  const auto third = engine.run(RacesQuery{}, uncached);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->result == first->result);
  EXPECT_EQ(engine.cache_stats().hits, hits_before)
      << "skip_cache must bypass the cache entirely";
}

TEST(QueryEngineCache, PageSetOrderVariantsShareOneEntry) {
  // Seeds are set-valued: {7,3}, {3,7}, and {3,3,7} are the same
  // request and must hit the same cache entry.
  QueryEngine engine(
      std::make_shared<const cpg::Graph>(fixtures::random_history(4)));
  const auto a = engine.run(TaintQuery{{7, 3}, true});
  const auto b = engine.run(TaintQuery{{3, 7}, true});
  const auto c = engine.run(TaintQuery{{3, 3, 7}, true});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(a->result == b->result);
  EXPECT_TRUE(a->result == c->result);
  EXPECT_GE(engine.cache_stats().hits, 2u);
}

TEST(QueryEngineCache, ErrorsAreNotCached) {
  QueryEngine engine(figure1());
  (void)engine.run(BackwardSliceQuery{999});
  (void)engine.run(BackwardSliceQuery{999});
  EXPECT_EQ(engine.cache_stats().hits, 0u);
}

// --- parity with the direct analysis calls -----------------------------

TEST(QueryEngineParity, TaintMatchesDirectAnalysis) {
  const auto snapshot =
      std::make_shared<const cpg::Graph>(fixtures::random_history(11));
  QueryEngine engine(snapshot);
  const PageSet seeds = {0, 3, 7};
  const auto reply = engine.run(TaintQuery{seeds, true});
  ASSERT_TRUE(reply.ok());
  const auto& flow = std::get<FlowResult>(reply->result);

  const analysis::GraphView view(*snapshot);
  const auto direct = analysis::kernels::propagate_pages(
      view, seeds, true, sync::SyncEventKind::kThreadExit);
  EXPECT_EQ(flow.nodes, direct.nodes);
  EXPECT_EQ(flow.pages, direct.pages);
  EXPECT_EQ(flow.sinks, direct.sinks);
}

}  // namespace
