// The provenance query kernels, written once over a storage view.
//
// Every query kind INSPECTOR answers from its Concurrent Provenance
// Graph (§IV-A) -- latest writers, data dependencies, the §VIII
// backward and forward slices, the race scan, the page-flow
// propagation behind DIFT taint (with its tainted sinks) and
// invalidation, and the critical path -- is one function template
// here over a *view*,
// the narrow read seam a storage form implements. GraphView (below)
// serves an in-memory cpg::Graph with zero-copy spans; shard/engine.cpp
// serves a sharded store through pinned shards. The kernels never
// reach past the view, so both forms answer with the same bytes.
// Library code and tests call them over a GraphView; applications ask
// query::QueryEngine, whose one dispatch (query/dispatch.h) calls them.
//
// A view answers through a *scope*: what a scope hands out (node
// payloads, bucket entries) stays valid -- for a store, resident --
// until the scope dies. The kernels open one per query for point
// lookups, per frontier node in slices, per page in the race scan and
// per level in propagation; the views' own walks scope per shard.
// Those units are the memory contract a store's budget relies on.
//
// The seam, for a view V whose scope type is S:
//
//   V::scope() -> S
//   V::node_count(), thread_count(), level_count(), acyclic(),
//     degraded(), stats()
//   V::pages()               sorted page universe; a page's position
//                            is its page index
//   V::for_each_topological(fn(S&, node))   every node, in an order
//                            that respects every recorded edge
//   S::node(id)              strict lookup (query anchors); a view
//                            that cannot deliver throws
//   S::try_node(id)          lenient; nullopt for a node the view
//                            skips (degraded serving)
//   S::writers(page_index), S::readers(page_index)
//                            rank-ordered bucket of cpg::NodeRef
//   S::for_each_predecessor(node, fn(id))   recorded in-edges, in
//                            global edge order
//   S::for_each_successor(node, fn(id))     recorded out-edges
//   S::for_each_level_node(level, fn(node))
//
// A node is a cpg::NodeRef (cpg/node.h, with the happens-before test
// over it), or derives from one to carry where the view found it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cpg/graph.h"
#include "util/bitset.h"
#include "util/page_set.h"
#include "util/parallel.h"

namespace inspector::analysis {

// --- results ---------------------------------------------------------------

/// Two sub-computations race when they are concurrent under
/// happens-before and their page sets conflict (write/write or
/// read/write overlap). At page granularity a report means "these two
/// unordered code regions touched the same page": true races, and also
/// false sharing (itself actionable; cf. Sheriff).
struct RaceReport {
  cpg::NodeId first = cpg::kInvalidNode;
  cpg::NodeId second = cpg::kInvalidNode;
  std::uint64_t page = 0;
  bool write_write = false;  ///< else read/write

  bool operator==(const RaceReport&) const = default;
};

inline std::ostream& operator<<(std::ostream& os, const RaceReport& report) {
  return os << (report.write_write ? "W/W" : "R/W") << " race on page "
            << report.page << " between node " << report.first << " and "
            << report.second;
}

/// A page-flow propagation's marks (taint, invalidation).
struct Propagation {
  /// Marked sub-computations, ascending id order.
  std::vector<cpg::NodeId> nodes;
  /// Marked pages: the seeds plus everything marked nodes wrote.
  /// Sorted and duplicate-free, like every page set in the system.
  PageSet pages;
  /// The marked nodes that end in the requested sink kind (taint's
  /// tainted sinks), ascending id order; empty when none was asked.
  std::vector<cpg::NodeId> sinks;
};

/// One longest chain of dependent sub-computations. It bounds how much
/// an incremental or replicated re-execution (§I) can parallelize:
/// everything on it must re-run sequentially.
struct CriticalPath {
  /// Node ids along the chain, in execution order.
  std::vector<cpg::NodeId> nodes;
  /// Total nodes in the graph, for the parallelism ratio.
  std::size_t total_nodes = 0;
};

/// An in-memory cpg::Graph as a view: buckets, edges and levels are
/// spans into the graph's own query index. Nothing needs pinning, so a
/// GraphView is its own scope.
class GraphView {
 public:
  explicit GraphView(const cpg::Graph& graph) : graph_(&graph) {}

  /// A page's writers or readers: the inverted index's rank-ordered ids.
  struct Bucket {
    const cpg::Graph* graph;
    std::span<const cpg::NodeId> ids;

    [[nodiscard]] std::size_t size() const noexcept { return ids.size(); }
    [[nodiscard]] cpg::NodeRef operator[](std::size_t i) const {
      return {ids[i], graph->rank(ids[i]), &graph->nodes()[ids[i]]};
    }
  };

  [[nodiscard]] GraphView scope() const { return *this; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return graph_->nodes().size();
  }
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return graph_->thread_count();
  }
  [[nodiscard]] std::size_t level_count() const {
    return graph_->level_count();
  }
  [[nodiscard]] std::span<const std::uint64_t> pages() const noexcept {
    return graph_->pages();
  }
  template <typename Fn>
  void for_each_topological(Fn&& fn) const {
    GraphView self = *this;
    for (const cpg::NodeId id : graph_->topological_view()) fn(self, node(id));
  }
  [[nodiscard]] bool acyclic() const noexcept { return graph_->acyclic(); }
  /// A graph is whole by construction: no answer is ever partial.
  [[nodiscard]] bool degraded() const noexcept { return false; }
  [[nodiscard]] cpg::GraphStats stats() const { return graph_->stats(); }

  // --- scope ------------------------------------------------------------
  /// Throws std::out_of_range for an id the graph lacks.
  [[nodiscard]] cpg::NodeRef node(cpg::NodeId id) const {
    return {id, graph_->rank(id), &graph_->node(id)};
  }
  [[nodiscard]] std::optional<cpg::NodeRef> try_node(cpg::NodeId id) const {
    return node(id);
  }
  [[nodiscard]] Bucket writers(std::size_t page_index) const {
    return {graph_, graph_->writers_at(page_index)};
  }
  [[nodiscard]] Bucket readers(std::size_t page_index) const {
    return {graph_, graph_->readers_at(page_index)};
  }
  template <typename Fn>
  void for_each_predecessor(const cpg::NodeRef& n, Fn&& fn) const {
    for (const std::uint32_t e : graph_->in_edges(n.id)) {
      fn(graph_->edges()[e].from);
    }
  }
  template <typename Fn>
  void for_each_successor(const cpg::NodeRef& n, Fn&& fn) const {
    for (const std::uint32_t e : graph_->out_edges(n.id)) {
      fn(graph_->edges()[e].to);
    }
  }
  template <typename Fn>
  void for_each_level_node(std::size_t level, Fn&& fn) const {
    for (const cpg::NodeId id : graph_->level_nodes(level)) fn(node(id));
  }

 private:
  const cpg::Graph* graph_;
};

namespace kernels {

/// First position in a rank-ordered bucket whose rank is >= `bound`.
template <typename Bucket>
[[nodiscard]] std::size_t rank_lower_bound(const Bucket& bucket,
                                           std::uint32_t bound) {
  std::size_t lo = 0;
  std::size_t hi = bucket.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (bucket[mid].rank < bound) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Visit (page, page index) for every page of `set` present in the
/// sorted universe. Both sides are sorted and a node's page set is
/// usually tiny against the universe, so a galloping cursor replaces
/// a binary search per page.
template <typename Fn>
void for_each_indexed_page(std::span<const std::uint64_t> universe,
                           const PageSet& set, Fn&& fn) {
  std::size_t pos = 0;
  for (const std::uint64_t page : set) {
    pos = page_set_gallop(universe, pos, page);
    if (pos == universe.size()) break;
    if (universe[pos] == page) fn(page, pos);
  }
}

// --- dependence queries (§IV-A III) -----------------------------------

/// fn(page, writer) for the latest writers of each page `reader` reads:
/// the writers that happen before it and that no other such writer of
/// the page succeeds, ascending id within a page.
template <typename View, typename Scope, typename Fn>
void for_each_latest_writer(const View& view, Scope& scope,
                            const cpg::NodeRef& reader, Fn&& fn) {
  std::vector<cpg::NodeRef> maximal;
  for_each_indexed_page(
      view.pages(), reader.node->read_set,
      [&](std::uint64_t page, std::size_t idx) {
        const auto writers = scope.writers(idx);
        maximal.clear();
        // Backward walk in rank order: a writer that would supersede
        // the current candidate has a higher rank and was collected
        // already, so one pass against `maximal` finds exactly the
        // un-superseded set.
        for (std::size_t i = rank_lower_bound(writers, reader.rank);
             i-- > 0;) {
          const cpg::NodeRef w = writers[i];
          if (!cpg::happens_before(w, reader)) continue;
          const bool superseded = std::any_of(
              maximal.begin(), maximal.end(),
              [&](const cpg::NodeRef& d) { return cpg::happens_before(w, d); });
          if (!superseded) maximal.push_back(w);
        }
        std::sort(maximal.begin(), maximal.end(),
                  [](const auto& a, const auto& b) { return a.id < b.id; });
        for (const cpg::NodeRef& w : maximal) fn(page, w.id);
      });
}

template <typename View>
[[nodiscard]] std::vector<cpg::Edge> latest_writers(const View& view,
                                                    cpg::NodeId reader) {
  auto scope = view.scope();
  const auto r = scope.node(reader);
  std::vector<cpg::Edge> result;
  for_each_latest_writer(view, scope, r,
                         [&](std::uint64_t page, cpg::NodeId w) {
                           result.push_back(
                               {w, reader, cpg::EdgeKind::kData, page});
                         });
  return result;
}

template <typename View>
[[nodiscard]] std::vector<cpg::Edge> data_dependencies(const View& view,
                                                       cpg::NodeId reader) {
  auto scope = view.scope();
  const auto r = scope.node(reader);
  std::vector<cpg::Edge> result;
  for_each_indexed_page(
      view.pages(), r.node->read_set, [&](std::uint64_t page, std::size_t idx) {
        const auto writers = scope.writers(idx);
        // happens_before(w, reader) implies rank(w) < rank(reader), so
        // the candidate window ends at the reader's rank.
        const std::size_t end = rank_lower_bound(writers, r.rank);
        for (std::size_t i = 0; i < end; ++i) {
          const cpg::NodeRef w = writers[i];
          if (cpg::happens_before(w, r)) {
            result.push_back({w.id, reader, cpg::EdgeKind::kData, page});
          }
        }
      });
  return result;
}

// --- slices (§VIII) ----------------------------------------------------

/// Breadth-first waves from `start`, batched: a whole frontier
/// generation expands into a reusable next-vector, and the visited set
/// is a flat bitset whose fused test_and_set marks and asks "new?" in
/// one word access. `expand(scope, node, visited, next)` adds one
/// node's unvisited neighbours to `next`. A reached node the view skips
/// stays in the slice (its id is known) but is not expanded. The slice
/// is sorted, so replies cannot see the traversal order.
template <typename View, typename Expand>
[[nodiscard]] std::vector<cpg::NodeId> slice(const View& view,
                                             cpg::NodeId start,
                                             Expand&& expand) {
  // The anchor resolves strictly: without it there is no partial
  // answer, only a wrong one.
  (void)view.scope().node(start);
  util::Bitset visited(view.node_count());
  std::vector<cpg::NodeId> frontier{start};
  std::vector<cpg::NodeId> next;
  std::vector<cpg::NodeId> result;
  visited.set(start);
  while (!frontier.empty()) {
    next.clear();
    for (const cpg::NodeId cur : frontier) {
      result.push_back(cur);
      auto scope = view.scope();
      const auto node = scope.try_node(cur);
      if (node) expand(scope, *node, visited, next);
    }
    frontier.swap(next);
  }
  std::sort(result.begin(), result.end());
  return result;
}

/// Every node reachable from `start` against control, sync and
/// latest-writer data edges: "why is the state like this".
template <typename View>
[[nodiscard]] std::vector<cpg::NodeId> backward_slice(const View& view,
                                                      cpg::NodeId start) {
  return slice(view, start,
               [&view](auto& scope, const auto& node, util::Bitset& visited,
                       std::vector<cpg::NodeId>& next) {
                 const auto visit = [&](cpg::NodeId id) {
                   if (!visited.test_and_set(id)) next.push_back(id);
                 };
                 scope.for_each_predecessor(node, visit);
                 for_each_latest_writer(
                     view, scope, node,
                     [&](std::uint64_t, cpg::NodeId w) { visit(w); });
               });
}

/// Every node reachable from `start` along control, sync and
/// read-after-write data edges: everything whose result may depend on
/// it.
template <typename View>
[[nodiscard]] std::vector<cpg::NodeId> forward_slice(const View& view,
                                                     cpg::NodeId start) {
  return slice(
      view, start,
      [&view](auto& scope, const auto& node, util::Bitset& visited,
              std::vector<cpg::NodeId>& next) {
        scope.for_each_successor(node, [&](cpg::NodeId id) {
          if (!visited.test_and_set(id)) next.push_back(id);
        });
        // Data successors: happens-after readers of the pages written.
        // happens_before(node, reader) implies a higher rank, so each
        // reader walk starts just past the node's rank.
        for_each_indexed_page(
            view.pages(), node.node->write_set,
            [&](std::uint64_t, std::size_t idx) {
              const auto readers = scope.readers(idx);
              for (std::size_t i = rank_lower_bound(readers, node.rank + 1);
                   i < readers.size(); ++i) {
                const cpg::NodeRef reader = readers[i];
                if (!visited.test(reader.id) &&
                    cpg::happens_before(node, reader)) {
                  visited.set(reader.id);
                  next.push_back(reader.id);
                }
              }
            });
      });
}

// --- races ---------------------------------------------------------------

using MinPage = std::optional<std::uint64_t>;

inline void note_page(MinPage& slot, std::uint64_t page) {
  if (!slot || page < *slot) slot = page;
}

/// Conflict evidence accumulated for one concurrent node pair (first <
/// second by id). Priority and page choice mirror the pairwise scan: a
/// write/write conflict wins, then the smallest page in first's write
/// set vs second's read set, then the converse.
struct PairConflicts {
  MinPage ww;  ///< min page both wrote
  MinPage wr;  ///< min page first wrote, second read
  MinPage rw;  ///< min page first read, second wrote
};

/// Keyed by (first << 32) | second with first < second.
using PairMap = std::unordered_map<std::uint64_t, PairConflicts>;

/// Scan one page's writer/reader buckets into `pairs`. Only concurrent
/// (racy) pairs are stored -- hb-ordered pairs are rechecked on probe
/// (a cheap clock compare), so memory stays O(races) however many
/// ordered pairs share a hot page.
template <typename Bucket>
void scan_page(std::uint64_t page, const Bucket& writers,
               const Bucket& readers, PairMap& pairs) {
  const auto conflicts_of = [&](const cpg::NodeRef& a,
                                const cpg::NodeRef& b) -> PairConflicts* {
    const auto key = std::minmax(a.id, b.id);
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(key.first) << 32) | key.second;
    if (const auto it = pairs.find(packed); it != pairs.end()) {
      return &it->second;
    }
    if (cpg::happens_before(a, b) || cpg::happens_before(b, a)) return nullptr;
    return &pairs.try_emplace(packed).first->second;
  };
  for (std::size_t i = 0; i < writers.size(); ++i) {
    const cpg::NodeRef w = writers[i];
    for (std::size_t j = i + 1; j < writers.size(); ++j) {
      const cpg::NodeRef other = writers[j];
      if (w.node->thread == other.node->thread) continue;
      if (PairConflicts* c = conflicts_of(w, other)) note_page(c->ww, page);
    }
    for (std::size_t j = 0; j < readers.size(); ++j) {
      const cpg::NodeRef r = readers[j];
      if (w.id == r.id || w.node->thread == r.node->thread) continue;
      if (PairConflicts* c = conflicts_of(w, r)) {
        // Orient the conflict the way the (first, second) pair sees it.
        note_page(w.id < r.id ? c->wr : c->rw, page);
      }
    }
  }
}

/// Conflicting concurrent pairs in (first, second) order, page-major:
/// only nodes that touched the same page are paired, so cost follows
/// real page sharing, not all node pairs. With a limit, the scan stops
/// at the first page boundary holding that many racy pairs (the caller
/// asked for "at most N", not the globally smallest pages);
/// short-circuiting depends on scan order, so limited scans stay serial
/// in page order. The full scan fans pages out over the analysis pool
/// into per-worker maps merged by per-slot minimum -- commutative, so
/// the result is identical at every worker count.
template <typename View>
[[nodiscard]] std::vector<RaceReport> find_races(const View& view,
                                                 const PageSet& ignored_pages,
                                                 std::size_t limit) {
  PageSet ignored = ignored_pages;
  page_set_normalize(ignored);
  const auto pages = view.pages();
  const auto scan = [&](std::size_t idx, PairMap& pairs) {
    if (page_set_contains(ignored, pages[idx])) return;
    auto scope = view.scope();
    const auto writers = scope.writers(idx);
    const auto readers = scope.readers(idx);
    scan_page(pages[idx], writers, readers, pairs);
  };
  PairMap pairs;
  bool truncated = false;
  if (limit != 0) {
    for (std::size_t idx = 0; idx < pages.size() && !truncated; ++idx) {
      truncated = pairs.size() >= limit;
      if (!truncated) scan(idx, pairs);
    }
  } else {
    const auto pool = util::shared_pool();
    util::WorkerLocal<PairMap> local(*pool);
    pool->parallel_for(0, pages.size(), 32,
                       [&](std::size_t b, std::size_t e, unsigned worker) {
                         for (std::size_t idx = b; idx < e; ++idx) {
                           scan(idx, local[worker]);
                         }
                       });
    pairs = std::move(local[0]);
    for (unsigned w = 1; w < pool->worker_count(); ++w) {
      for (const auto& [key, c] : local[w]) {
        auto [it, inserted] = pairs.try_emplace(key, c);
        if (inserted) continue;
        if (c.ww) note_page(it->second.ww, *c.ww);
        if (c.wr) note_page(it->second.wr, *c.wr);
        if (c.rw) note_page(it->second.rw, *c.rw);
      }
    }
  }

  std::vector<std::uint64_t> racy_keys;
  racy_keys.reserve(pairs.size());
  for (const auto& [key, c] : pairs) racy_keys.push_back(key);
  std::sort(racy_keys.begin(), racy_keys.end());
  // Only a truncated scan re-reads nodes, re-deriving each pair's
  // minima from its page sets; that is at most `limit` pairs, so one
  // scope bounds it.
  auto scope = view.scope();
  std::vector<RaceReport> races;
  for (const std::uint64_t key : racy_keys) {
    const auto first = static_cast<cpg::NodeId>(key >> 32);
    const auto second = static_cast<cpg::NodeId>(key & 0xFFFFFFFF);
    PairConflicts mins = pairs.at(key);
    if (truncated) {
      const cpg::SubComputation& a = *scope.node(first).node;
      const cpg::SubComputation& b = *scope.node(second).node;
      mins.ww = page_set_first_intersection(a.write_set, b.write_set, ignored);
      mins.wr = page_set_first_intersection(a.write_set, b.read_set, ignored);
      mins.rw = page_set_first_intersection(a.read_set, b.write_set, ignored);
    }
    if (!mins.ww && !mins.wr && !mins.rw) continue;
    RaceReport report;
    report.first = first;
    report.second = second;
    report.write_write = mins.ww.has_value();
    report.page = mins.ww ? *mins.ww : (mins.wr ? *mins.wr : *mins.rw);
    races.push_back(report);
    if (limit != 0 && races.size() >= limit) break;
  }
  return races;
}

// --- page-flow propagation (taint / invalidate) --------------------------

/// Seed pages, walk the topological levels in order, mark every node
/// that reads a marked page (optionally every later node of a thread
/// that consumed marked data), and mark the pages marked nodes write.
/// With a `sink_kind`, every marked node that ends in it is recorded
/// as a sink during the same sweep, so no second pass re-reads nodes.
///
/// A node's mark normally depends only on marks from strictly lower
/// levels (no recorded path joins two nodes of one level, and a
/// thread's nodes sit on distinct levels thanks to their control-edge
/// chain), so each level scans chunk-parallel against the bitmap
/// snapshot, workers collect their newly marked nodes, pages and
/// threads in per-worker deltas, and the deltas are OR-merged between
/// rounds. Nodes of one level with conflicting page sets are
/// concurrent -- a data race, whose flow is schedule-dependent -- so
/// whenever a round marks anything the level's remaining nodes are
/// rescanned until a fixpoint: conservative (racy flows may carry
/// data), monotone, and therefore bit-identical at every worker count.
template <typename View>
[[nodiscard]] Propagation propagate_pages(
    const View& view, const PageSet& seed_pages, bool thread_carryover,
    std::optional<sync::SyncEventKind> sink_kind = std::nullopt) {
  Propagation result;
  result.pages = seed_pages;
  page_set_normalize(result.pages);

  // Dense mark bits over the page universe. A page outside it -- a
  // seed no node touched -- has no slot: it cannot propagate and is
  // never written through. (A store's pages cannot leave it: the
  // load-time check holds every shard's page set to the manifest's.)
  const auto pages = view.pages();
  std::vector<char> page_marked(pages.size(), 0);
  for (const std::uint64_t page : result.pages) {
    if (const auto idx = page_index(pages, page)) page_marked[*idx] = 1;
  }
  std::vector<char> thread_marked(view.thread_count(), 0);
  std::vector<char> node_marked(view.node_count(), 0);

  struct Delta {
    std::vector<cpg::NodeId> nodes;
    std::vector<cpg::NodeId> sinks;
    std::vector<std::size_t> pages;  ///< page indices
    std::vector<cpg::ThreadId> threads;
  };
  const auto pool = util::shared_pool();
  util::WorkerLocal<Delta> local(*pool);
  std::vector<cpg::NodeRef> pending;
  std::vector<cpg::NodeRef> still_unmarked;

  for (std::size_t lvl = 0; lvl < view.level_count(); ++lvl) {
    auto scope = view.scope();
    pending.clear();
    scope.for_each_level_node(
        lvl, [&](const cpg::NodeRef& n) { pending.push_back(n); });
    while (!pending.empty()) {
      pool->parallel_for(
          0, pending.size(), 64,
          [&](std::size_t b, std::size_t e, unsigned worker) {
            Delta& d = local[worker];
            for (std::size_t k = b; k < e; ++k) {
              const cpg::SubComputation& node = *pending[k].node;
              bool marked =
                  thread_carryover && thread_marked[node.thread] != 0;
              if (!marked) {
                for (const std::uint64_t page : node.read_set) {
                  const auto idx = page_index(pages, page);
                  if (idx && page_marked[*idx] != 0) {
                    marked = true;
                    break;
                  }
                }
              }
              if (!marked) continue;
              d.nodes.push_back(pending[k].id);
              if (sink_kind && node.end.kind == *sink_kind) {
                d.sinks.push_back(pending[k].id);
              }
              // Thread bits only matter under carry-over; skipping them
              // otherwise avoids rescans that cannot mark.
              if (thread_carryover) d.threads.push_back(node.thread);
              for (const std::uint64_t page : node.write_set) {
                const auto idx = page_index(pages, page);
                if (idx && page_marked[*idx] == 0) d.pages.push_back(*idx);
              }
            }
          });
      // A rescan can only find something if this round grew the marks
      // the remaining nodes test against (a page or thread bit);
      // node marks alone cannot influence them.
      bool marks_grew = false;
      for (unsigned w = 0; w < pool->worker_count(); ++w) {
        Delta& d = local[w];
        result.nodes.insert(result.nodes.end(), d.nodes.begin(),
                            d.nodes.end());
        result.sinks.insert(result.sinks.end(), d.sinks.begin(),
                            d.sinks.end());
        for (const cpg::NodeId id : d.nodes) node_marked[id] = 1;
        for (const cpg::ThreadId t : d.threads) {
          if (char& bit = thread_marked[t]; bit == 0) {
            bit = 1;
            marks_grew = true;
          }
        }
        for (const std::size_t idx : d.pages) {
          if (char& bit = page_marked[idx]; bit == 0) {
            bit = 1;
            marks_grew = true;
            result.pages.push_back(pages[idx]);
          }
        }
        d.nodes.clear();
        d.sinks.clear();
        d.pages.clear();
        d.threads.clear();
      }
      if (!marks_grew) break;
      still_unmarked.clear();
      for (const cpg::NodeRef& p : pending) {
        if (node_marked[p.id] == 0) still_unmarked.push_back(p);
      }
      pending.swap(still_unmarked);
    }
  }
  std::sort(result.nodes.begin(), result.nodes.end());
  std::sort(result.sinks.begin(), result.sinks.end());
  page_set_normalize(result.pages);
  return result;
}

// --- critical path -------------------------------------------------------

/// Longest chain through the recorded control and sync edges: dynamic
/// programming over a topological order. A node's predecessor on the
/// chain is the first in-edge, in global edge order, achieving the
/// maximum; the chain ends at the lowest id of maximal depth.
template <typename View>
[[nodiscard]] CriticalPath critical_path(const View& view) {
  CriticalPath result;
  result.total_nodes = view.node_count();
  if (result.total_nodes == 0) return result;
  std::vector<std::size_t> depth(result.total_nodes, 1);
  std::vector<cpg::NodeId> pred(result.total_nodes, cpg::kInvalidNode);
  view.for_each_topological([&](auto& scope, const auto& v) {
    scope.for_each_predecessor(v, [&](cpg::NodeId u) {
      if (depth[u] + 1 > depth[v.id]) {
        depth[v.id] = depth[u] + 1;
        pred[v.id] = u;
      }
    });
  });
  const auto tail = static_cast<cpg::NodeId>(
      std::max_element(depth.begin(), depth.end()) - depth.begin());
  for (cpg::NodeId v = tail; v != cpg::kInvalidNode; v = pred[v]) {
    result.nodes.push_back(v);
  }
  std::reverse(result.nodes.begin(), result.nodes.end());
  return result;
}

}  // namespace kernels

}  // namespace inspector::analysis
