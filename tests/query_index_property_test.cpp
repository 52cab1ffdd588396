// Equivalence of the indexed CPG queries against brute force.
//
// The page index (Graph::page_writers / page_readers) and the kernels
// over a GraphView -- data dependencies, latest writers, the slices,
// the race scan and the critical path -- answer from the inverted
// index built at construction, through the one kernel set both storage
// forms share (analysis/kernels.h).
// These tests keep all-nodes-scan implementations as the independent
// reference and assert equality on randomized recorder histories, so
// any index or kernel bug (bad rank, wrong bucket boundaries,
// over-eager pruning, a wrong tie-break) shows up as a divergence.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "analysis/kernels.h"
#include "cpg/recorder.h"

namespace {

using namespace inspector::cpg;
namespace sync = inspector::sync;
namespace kernels = inspector::analysis::kernels;
using inspector::PageSet;
using inspector::analysis::GraphView;

// --- brute-force reference implementations (the seed's O(nodes) scans) --

std::vector<NodeId> brute_writers_of_page(const Graph& g, std::uint64_t page) {
  std::vector<NodeId> result;
  for (const auto& n : g.nodes()) {
    if (n.writes_page(page)) result.push_back(n.id);
  }
  return result;
}

std::vector<NodeId> brute_readers_of_page(const Graph& g, std::uint64_t page) {
  std::vector<NodeId> result;
  for (const auto& n : g.nodes()) {
    if (n.reads_page(page)) result.push_back(n.id);
  }
  return result;
}

std::vector<Edge> brute_data_dependencies(const Graph& g, NodeId reader) {
  const auto& r = g.node(reader);
  std::vector<Edge> result;
  for (const auto& w : g.nodes()) {
    if (w.id == reader) continue;
    if (!g.happens_before(w.id, reader)) continue;
    for (std::uint64_t page : r.read_set) {
      if (w.writes_page(page)) {
        result.push_back({w.id, reader, EdgeKind::kData, page});
      }
    }
  }
  return result;
}

std::vector<Edge> brute_latest_writers(const Graph& g, NodeId reader) {
  const auto& r = g.node(reader);
  std::vector<Edge> result;
  for (std::uint64_t page : r.read_set) {
    std::vector<NodeId> candidates;
    for (const auto& w : g.nodes()) {
      if (w.id != reader && g.happens_before(w.id, reader) &&
          w.writes_page(page)) {
        candidates.push_back(w.id);
      }
    }
    for (NodeId c : candidates) {
      const bool superseded = std::any_of(
          candidates.begin(), candidates.end(),
          [&](NodeId d) { return d != c && g.happens_before(c, d); });
      if (!superseded) result.push_back({c, reader, EdgeKind::kData, page});
    }
  }
  return result;
}

// The seed's O(n^2) pairwise race scan, kept as the reference for the
// page-major detector.
std::vector<inspector::analysis::RaceReport> brute_find_races(const Graph& g) {
  namespace analysis = inspector::analysis;
  std::vector<analysis::RaceReport> races;
  const auto first_common =
      [](const PageSet& a, const PageSet& b) -> std::optional<std::uint64_t> {
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() && ib != b.end()) {
      if (*ia < *ib) {
        ++ia;
      } else if (*ib < *ia) {
        ++ib;
      } else {
        return *ia;
      }
    }
    return std::nullopt;
  };
  const auto& nodes = g.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const auto& a = nodes[i];
      const auto& b = nodes[j];
      if (a.thread == b.thread) continue;
      const auto ww = first_common(a.write_set, b.write_set);
      const auto rw =
          ww ? std::nullopt : first_common(a.write_set, b.read_set);
      const auto wr =
          (ww || rw) ? std::nullopt : first_common(a.read_set, b.write_set);
      if (!ww && !rw && !wr) continue;
      if (!g.concurrent(a.id, b.id)) continue;
      analysis::RaceReport report;
      report.first = a.id;
      report.second = b.id;
      report.page = ww ? *ww : (rw ? *rw : *wr);
      report.write_write = ww.has_value();
      races.push_back(report);
    }
  }
  return races;
}

// Brute-force slices: a plain BFS whose neighbour function scans every
// recorded edge and every node, so it shares nothing with the kernels'
// index walks.
template <typename Neighbours>
std::vector<NodeId> brute_reachable(const Graph& g, NodeId start,
                                    Neighbours&& neighbours) {
  std::vector<bool> seen(g.nodes().size(), false);
  std::vector<NodeId> todo{start};
  seen[start] = true;
  std::vector<NodeId> result;
  while (!todo.empty()) {
    const NodeId cur = todo.back();
    todo.pop_back();
    result.push_back(cur);
    for (const NodeId next : neighbours(cur)) {
      if (!seen[next]) {
        seen[next] = true;
        todo.push_back(next);
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<NodeId> brute_backward_slice(const Graph& g, NodeId start) {
  return brute_reachable(g, start, [&](NodeId cur) {
    std::vector<NodeId> preds;
    for (const Edge& e : g.edges()) {
      if (e.to == cur) preds.push_back(e.from);
    }
    for (const Edge& e : brute_latest_writers(g, cur)) preds.push_back(e.from);
    return preds;
  });
}

std::vector<NodeId> brute_forward_slice(const Graph& g, NodeId start) {
  return brute_reachable(g, start, [&](NodeId cur) {
    std::vector<NodeId> succs;
    for (const Edge& e : g.edges()) {
      if (e.from == cur) succs.push_back(e.to);
    }
    for (const auto& r : g.nodes()) {
      if (!g.happens_before(cur, r.id)) continue;
      const bool reads_a_write = std::any_of(
          g.node(cur).write_set.begin(), g.node(cur).write_set.end(),
          [&](std::uint64_t page) { return r.reads_page(page); });
      if (reads_a_write) succs.push_back(r.id);
    }
    return succs;
  });
}

/// Node count of the longest chain of recorded edges, by relaxing every
/// edge until nothing changes (no topological order involved).
std::size_t brute_longest_chain(const Graph& g) {
  std::vector<std::size_t> depth(g.nodes().size(), 1);
  for (bool changed = true; changed;) {
    changed = false;
    for (const Edge& e : g.edges()) {
      if (depth[e.from] + 1 > depth[e.to]) {
        depth[e.to] = depth[e.from] + 1;
        changed = true;
      }
    }
  }
  return depth.empty() ? 0 : *std::max_element(depth.begin(), depth.end());
}

// --- set-equality helpers ----------------------------------------------

std::vector<Edge> canonical(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.from != b.from) return a.from < b.from;
    if (a.to != b.to) return a.to < b.to;
    return a.object < b.object;
  });
  return edges;
}

std::vector<NodeId> canonical(std::span<const NodeId> span) {
  std::vector<NodeId> ids(span.begin(), span.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

// --- randomized histories ----------------------------------------------

constexpr std::uint64_t kPageUniverse = 16;

PageSet random_pages(std::mt19937_64& rng) {
  // Deliberately unsorted with possible duplicates: the recorder owns
  // the normalize step and these histories exercise it.
  PageSet pages;
  const std::size_t count = rng() % 6;
  for (std::size_t i = 0; i < count; ++i) {
    pages.push_back(rng() % kPageUniverse);
  }
  return pages;
}

Graph random_history(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::uint32_t threads = 2 + rng() % 4;
  const std::uint32_t mutexes = 1 + rng() % 3;
  Recorder rec;
  for (std::uint32_t t = 0; t < threads; ++t) rec.thread_started(t, t);
  const std::size_t steps = 30 + rng() % 50;
  for (std::size_t i = 0; i < steps; ++i) {
    const std::uint32_t t = rng() % threads;
    const auto m = sync::make_object_id(sync::ObjectKind::kMutex,
                                        1 + rng() % mutexes);
    switch (rng() % 4) {
      case 0:
      case 1:
        rec.end_subcomputation(t, random_pages(rng), random_pages(rng),
                               {sync::SyncEventKind::kMutexLock, m});
        break;
      case 2:
        rec.on_release(t, m);
        break;
      default:
        rec.on_acquire(t, m);
        break;
    }
  }
  for (std::uint32_t t = 0; t < threads; ++t) {
    rec.thread_exiting(t, random_pages(rng), random_pages(rng));
  }
  return std::move(rec).finalize();
}

class QueryIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueryIndexProperty, GraphValidates) {
  const Graph g = random_history(GetParam());
  std::string reason;
  EXPECT_TRUE(g.validate(&reason)) << reason;
}

TEST_P(QueryIndexProperty, PageIndexMatchesBruteForce) {
  const Graph g = random_history(GetParam());
  // Sweep past the universe edge to cover untouched pages too.
  for (std::uint64_t page = 0; page < kPageUniverse + 2; ++page) {
    EXPECT_EQ(canonical(g.page_writers(page)),
              canonical(brute_writers_of_page(g, page)))
        << "writers of page " << page;
    EXPECT_EQ(canonical(g.page_readers(page)),
              canonical(brute_readers_of_page(g, page)))
        << "readers of page " << page;
  }
}

TEST_P(QueryIndexProperty, DataDependenciesMatchBruteForce) {
  const Graph g = random_history(GetParam());
  for (const auto& n : g.nodes()) {
    EXPECT_EQ(canonical(kernels::data_dependencies(GraphView(g), n.id)),
              canonical(brute_data_dependencies(g, n.id)))
        << "data dependencies of node " << n.id;
  }
}

TEST_P(QueryIndexProperty, LatestWritersMatchBruteForce) {
  const Graph g = random_history(GetParam());
  for (const auto& n : g.nodes()) {
    EXPECT_EQ(canonical(kernels::latest_writers(GraphView(g), n.id)),
              canonical(brute_latest_writers(g, n.id)))
        << "latest writers of node " << n.id;
  }
}

TEST_P(QueryIndexProperty, SlicesMatchBruteForceReachability) {
  const Graph g = random_history(GetParam());
  for (const auto& n : g.nodes()) {
    EXPECT_EQ(kernels::backward_slice(GraphView(g), n.id),
              brute_backward_slice(g, n.id))
        << "backward slice of node " << n.id;
    EXPECT_EQ(kernels::forward_slice(GraphView(g), n.id),
              brute_forward_slice(g, n.id))
        << "forward slice of node " << n.id;
  }
}

TEST_P(QueryIndexProperty, CriticalPathIsALongestRecordedChain) {
  const Graph g = random_history(GetParam());
  const auto cp = kernels::critical_path(GraphView(g));
  EXPECT_EQ(cp.total_nodes, g.nodes().size());
  EXPECT_EQ(cp.nodes.size(), brute_longest_chain(g));
  for (std::size_t i = 1; i < cp.nodes.size(); ++i) {
    const bool recorded = std::any_of(
        g.edges().begin(), g.edges().end(), [&](const Edge& e) {
          return e.from == cp.nodes[i - 1] && e.to == cp.nodes[i];
        });
    EXPECT_TRUE(recorded) << "no recorded edge " << cp.nodes[i - 1] << " -> "
                          << cp.nodes[i];
  }
}

TEST_P(QueryIndexProperty, RankEmbedsHappensBefore) {
  const Graph g = random_history(GetParam());
  for (const auto& a : g.nodes()) {
    for (const auto& b : g.nodes()) {
      if (g.happens_before(a.id, b.id)) {
        EXPECT_LT(g.rank(a.id), g.rank(b.id))
            << "rank must embed happens-before: " << a.id << " hb " << b.id;
      }
    }
  }
}

TEST_P(QueryIndexProperty, RaceScanMatchesBruteForce) {
  const Graph g = random_history(GetParam());
  const auto indexed = kernels::find_races(GraphView(g), {}, 0);
  const auto brute = brute_find_races(g);
  ASSERT_EQ(indexed.size(), brute.size());
  for (std::size_t i = 0; i < indexed.size(); ++i) {
    EXPECT_EQ(indexed[i], brute[i]) << "race " << i;
  }
  // A limited scan must return a prefix-sized subset with the same
  // per-pair classification as the full scan.
  if (!brute.empty()) {
    const auto limited = kernels::find_races(GraphView(g), {}, 1);
    ASSERT_EQ(limited.size(), 1u);
    EXPECT_TRUE(std::find(brute.begin(), brute.end(), limited.front()) !=
                brute.end())
        << "limited report must match the full scan's report for that pair";
  }
}

TEST_P(QueryIndexProperty, FindMatchesLinearScan) {
  const Graph g = random_history(GetParam());
  for (std::size_t t = 0; t < g.thread_count() + 1; ++t) {
    const auto tid = static_cast<ThreadId>(t);
    for (std::uint64_t alpha = 0; alpha < g.nodes().size() + 1; ++alpha) {
      std::optional<NodeId> expected;
      for (NodeId id : g.thread_nodes(tid)) {
        if (g.node(id).alpha == alpha) expected = id;
      }
      EXPECT_EQ(g.find(tid, alpha), expected)
          << "find(" << t << ", " << alpha << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomHistories, QueryIndexProperty,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
