// Determinism of the query engine across worker counts.
//
// run_batch() fans queries out over the shared analysis pool; the
// PR-2 contract extends to the query layer: the full serialized reply
// stream -- per-query statuses, payload bytes, cursor ids, and cursor
// page boundaries -- must be bit-identical at 1 and 8 workers. Same
// fixtures as tests/parallel_determinism_test.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cpg/graph.h"
#include "history_fixtures.h"
#include "query/engine.h"
#include "query/wire.h"
#include "util/parallel.h"

namespace {

using namespace inspector;
using namespace inspector::query;
namespace fixtures = inspector::fixtures;
namespace util = inspector::util;

/// One mixed batch -- paginated list queries, scalar queries, and
/// deliberately invalid requests -- followed by a full drain of every
/// cursor, all serialized to wire bytes.
std::string serialized_session(const cpg::Graph& source) {
  auto snapshot = std::make_shared<const cpg::Graph>(source);
  QueryEngine engine(std::move(snapshot));
  const auto last = static_cast<cpg::NodeId>(source.nodes().size() - 1);
  const std::uint64_t first_page =
      source.page_count() > 0 ? source.pages()[0] : 0;

  const auto paged = [](Query q, std::uint64_t page_size) {
    QueryOptions options;
    options.page_size = page_size;
    return QueryEngine::BatchItem{std::move(q), options};
  };
  const std::vector<QueryEngine::BatchItem> items = {
      paged(BackwardSliceQuery{last}, 7),
      paged(ForwardSliceQuery{0}, 5),
      paged(RacesQuery{}, 13),
      paged(TaintQuery{{0, 3, 7}, true}, 9),
      paged(InvalidateQuery{{0, 3, 7}}, 11),
      paged(CriticalPathQuery{}, 6),
      {StatsQuery{}, {}},
      {HappensBeforeQuery{0, last}, {}},
      paged(PageAccessorsQuery{first_page}, 4),
      paged(LatestWritersQuery{last}, 3),
      paged(DataDependenciesQuery{last}, 3),
      {BackwardSliceQuery{static_cast<cpg::NodeId>(1u << 30)}, {}},  // error
      {PageAccessorsQuery{0xDEADBEEF}, {}},                          // error
  };
  const auto replies =
      engine.run_batch(QueryEngine::kDefaultSession, items);

  std::string out;
  std::uint64_t id = 1;
  std::vector<std::uint64_t> cursors;
  for (const auto& reply : replies) {
    out += wire::serialize_reply(id++, reply);
    out += '\n';
    if (reply.ok() && reply->cursor != 0) cursors.push_back(reply->cursor);
  }
  // Drain every cursor to exhaustion, plus one fetch past the end so
  // the kExhausted reply bytes are part of the comparison too.
  for (const std::uint64_t cursor : cursors) {
    while (true) {
      const auto page = engine.next(cursor);
      out += wire::serialize_reply(id++, page);
      out += '\n';
      if (!page.ok() || !page->has_more) break;
    }
    out += wire::serialize_reply(id++, engine.next(cursor));
    out += '\n';
  }
  return out;
}

class QueryDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueryDeterminism, BatchRepliesIdenticalAcrossWorkerCounts) {
  fixtures::ThreadCountGuard guard;
  util::set_analysis_threads(1);
  const std::string reference =
      serialized_session(fixtures::random_history(GetParam()));
  EXPECT_FALSE(reference.empty());
  for (unsigned workers : {8u}) {
    util::set_analysis_threads(workers);
    EXPECT_EQ(serialized_session(fixtures::random_history(GetParam())),
              reference)
        << workers << " workers, seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomHistories, QueryDeterminism,
                         ::testing::Range<std::uint64_t>(0, 8));

// Dense histories engage the genuinely parallel code paths (multi-
// chunk scans, parallel sorts) underneath the batched queries.
TEST(QueryDeterminismDense, BatchRepliesIdenticalAcrossWorkerCounts) {
  fixtures::ThreadCountGuard guard;
  for (const std::uint64_t seed : {1ULL, 5ULL}) {
    util::set_analysis_threads(1);
    const std::string reference =
        serialized_session(fixtures::dense_history(seed));
    EXPECT_GT(reference.size(), 1000u)
        << "dense history must produce a substantial reply stream";
    for (unsigned workers : {2u, 8u}) {
      util::set_analysis_threads(workers);
      EXPECT_EQ(serialized_session(fixtures::dense_history(seed)),
                reference)
          << "query replies diverged at " << workers
          << " workers on dense seed " << seed;
    }
  }
}

}  // namespace
