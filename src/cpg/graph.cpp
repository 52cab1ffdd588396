#include "cpg/graph.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/page_set.h"
#include "util/parallel.h"

namespace inspector::cpg {

bool SubComputation::reads_page(std::uint64_t page) const {
  return page_set_contains(read_set, page);
}

bool SubComputation::writes_page(std::uint64_t page) const {
  return page_set_contains(write_set, page);
}

std::ostream& operator<<(std::ostream& os, const SubComputation& node) {
  return os << "L" << node.thread << "[" << node.alpha << "] clock="
            << node.clock << " |R|=" << node.read_set.size()
            << " |W|=" << node.write_set.size()
            << " thunks=" << node.thunks.size();
}

std::ostream& operator<<(std::ostream& os, const Edge& edge) {
  const char* kind = edge.kind == EdgeKind::kControl ? "control"
                     : edge.kind == EdgeKind::kSync  ? "sync"
                                                     : "data";
  return os << edge.from << " -[" << kind << "]-> " << edge.to;
}

Graph::Graph(std::vector<SubComputation> nodes, std::vector<Edge> edges,
             std::vector<sync::SyncEvent> schedule)
    : nodes_(std::move(nodes)),
      edges_(std::move(edges)),
      schedule_(std::move(schedule)) {
  build_indices();
}

void Graph::build_indices() {
  // Graphs can come from any source (recorder, tests, deserialized
  // files -- possibly crafted or corrupt), so construction enforces the
  // structural invariants indexing relies on: edge endpoints in range
  // (the CSR builders write through them) and sorted, duplicate-free
  // page sets (the inverted index buckets by them). Clock *consistency*
  // is not enforced here; rank-windowed queries assume it and
  // validate() checks it.
  //
  // Construction runs on the shared analysis pool. Every parallel
  // stage either writes disjoint index-addressed slots or sorts with a
  // strict total order, so the built index is bit-identical at every
  // worker count (the determinism guarantee the analyses inherit).
  const auto pool = util::shared_pool();
  std::atomic<bool> bad_edge{false};
  pool->parallel_for(0, edges_.size(), 8192,
                     [&](std::size_t b, std::size_t e, unsigned) {
                       for (std::size_t i = b; i < e; ++i) {
                         if (edges_[i].from >= nodes_.size() ||
                             edges_[i].to >= nodes_.size()) {
                           bad_edge.store(true, std::memory_order_relaxed);
                         }
                       }
                     });
  if (bad_edge.load(std::memory_order_relaxed)) {
    throw std::invalid_argument("CPG edge references unknown node");
  }
  pool->parallel_for(0, nodes_.size(), 64,
                     [&](std::size_t b, std::size_t e, unsigned) {
                       for (std::size_t i = b; i < e; ++i) {
                         page_set_normalize(nodes_[i].read_set);
                         page_set_normalize(nodes_[i].write_set);
                       }
                     });
  build_adjacency();
  build_thread_index(*pool);
  build_rank(*pool);
  build_topological_order();
  build_page_index(*pool);
}

void Graph::build_adjacency() {
  const std::size_t n = nodes_.size();
  out_offsets_.assign(n + 1, 0);
  in_offsets_.assign(n + 1, 0);
  for (const auto& e : edges_) {
    ++out_offsets_[e.from + 1];
    ++in_offsets_[e.to + 1];
  }
  std::partial_sum(out_offsets_.begin(), out_offsets_.end(),
                   out_offsets_.begin());
  std::partial_sum(in_offsets_.begin(), in_offsets_.end(),
                   in_offsets_.begin());
  out_ids_.resize(edges_.size());
  in_ids_.resize(edges_.size());
  std::vector<std::uint32_t> out_cursor(out_offsets_.begin(),
                                        out_offsets_.end() - 1);
  std::vector<std::uint32_t> in_cursor(in_offsets_.begin(),
                                       in_offsets_.end() - 1);
  for (std::uint32_t i = 0; i < edges_.size(); ++i) {
    out_ids_[out_cursor[edges_[i].from]++] = i;
    in_ids_[in_cursor[edges_[i].to]++] = i;
  }
}

void Graph::build_thread_index(util::TaskPool& pool) {
  ThreadId max_thread = 0;
  for (const auto& n : nodes_) max_thread = std::max(max_thread, n.thread);
  const std::size_t threads = nodes_.empty() ? 0 : max_thread + 1;
  thread_offsets_.assign(threads + (nodes_.empty() ? 0 : 1), 0);
  if (nodes_.empty()) return;
  for (const auto& n : nodes_) ++thread_offsets_[n.thread + 1];
  std::partial_sum(thread_offsets_.begin(), thread_offsets_.end(),
                   thread_offsets_.begin());
  thread_nodes_.resize(nodes_.size());
  std::vector<std::uint32_t> cursor(thread_offsets_.begin(),
                                    thread_offsets_.end() - 1);
  for (const auto& n : nodes_) thread_nodes_[cursor[n.thread]++] = n.id;
  // Per-thread CSR segments are independent: one sort task per thread.
  // The id tie-break keeps the order total (crafted graphs may repeat
  // an alpha), so the list is the same at every worker count.
  pool.parallel_for(0, threads, 1,
                    [this](std::size_t b, std::size_t e, unsigned) {
                      for (std::size_t t = b; t < e; ++t) {
                        std::sort(thread_nodes_.begin() + thread_offsets_[t],
                                  thread_nodes_.begin() + thread_offsets_[t + 1],
                                  [this](NodeId a, NodeId b) {
                                    if (nodes_[a].alpha != nodes_[b].alpha) {
                                      return nodes_[a].alpha < nodes_[b].alpha;
                                    }
                                    return a < b;
                                  });
                      }
                    });
}

void Graph::build_rank(util::TaskPool& pool) {
  // Clock weight is monotone under happens-before: a merge only grows
  // components and every sub-computation ticks its own slot, so
  // happens_before(a, b) implies weight(a) < weight(b) whether the
  // relation comes from the clocks or from same-thread program order.
  // Sorting by (weight, thread, alpha, id) therefore yields a total
  // order that embeds the partial order -- including hb pairs that have
  // no recorded edge path, which an edge-based order would miss.
  const std::size_t n = nodes_.size();
  std::vector<std::uint64_t> weight(n, 0);
  pool.parallel_for(0, n, 1024,
                    [&](std::size_t b, std::size_t e, unsigned) {
                      for (std::size_t i = b; i < e; ++i) {
                        const auto& c = nodes_[i].clock.components();
                        weight[i] = std::accumulate(c.begin(), c.end(),
                                                    std::uint64_t{0});
                      }
                    });
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  // The comparator is a strict total order (final id tie-break), so
  // the parallel chunk-sort + merge yields exactly the serial result.
  util::parallel_sort(pool, order, [&](NodeId a, NodeId b) {
    if (weight[a] != weight[b]) return weight[a] < weight[b];
    if (nodes_[a].thread != nodes_[b].thread) {
      return nodes_[a].thread < nodes_[b].thread;
    }
    if (nodes_[a].alpha != nodes_[b].alpha) {
      return nodes_[a].alpha < nodes_[b].alpha;
    }
    return a < b;
  });
  rank_.resize(n);
  pool.parallel_for(0, n, 4096,
                    [&](std::size_t b, std::size_t e, unsigned) {
                      for (std::size_t r = b; r < e; ++r) {
                        rank_[order[r]] = static_cast<std::uint32_t>(r);
                      }
                    });
}

void Graph::build_topological_order() {
  // Kahn's algorithm, tracking each node's level (longest recorded-edge
  // path from a root). The cached order is then regrouped by (level,
  // id): still a valid topological order -- every edge strictly
  // increases the level -- but also canonical (independent of queue pop
  // order) and sliced into level_nodes() spans the level-synchronous
  // parallel analyses consume.
  const std::size_t n = nodes_.size();
  std::vector<std::uint32_t> indegree(n, 0);
  for (const auto& e : edges_) ++indegree[e.to];
  std::vector<std::uint32_t> level(n, 0);
  std::deque<NodeId> ready;
  for (NodeId i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::size_t processed = 0;
  std::uint32_t max_level = 0;
  while (!ready.empty()) {
    const NodeId cur = ready.front();
    ready.pop_front();
    ++processed;
    max_level = std::max(max_level, level[cur]);
    for (std::uint32_t e : out_edges(cur)) {
      const NodeId to = edges_[e].to;
      level[to] = std::max(level[to], level[cur] + 1);
      if (--indegree[to] == 0) ready.push_back(to);
    }
  }
  has_cycle_ = processed != n;
  topo_.clear();
  level_offsets_.clear();
  if (has_cycle_) return;
  const std::size_t levels = n == 0 ? 0 : max_level + 1;
  level_offsets_.assign(levels + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++level_offsets_[level[i] + 1];
  std::partial_sum(level_offsets_.begin(), level_offsets_.end(),
                   level_offsets_.begin());
  topo_.resize(n);
  std::vector<std::uint32_t> cursor(level_offsets_.begin(),
                                    level_offsets_.end() - 1);
  for (NodeId i = 0; i < n; ++i) topo_[cursor[level[i]]++] = i;
}

void Graph::build_page_index(util::TaskPool& pool) {
  // One (page, node) pair per read/write-set entry, bucketed per page
  // and rank-sorted within the bucket, all in flat arrays. The scatter
  // writes through per-node offsets (disjoint slots) and the sorts use
  // a strict total order -- (page, node) pairs are unique and rank is a
  // permutation -- so the fill parallelizes without changing the index.
  struct Touch {
    std::uint64_t page;
    NodeId node;
  };
  const std::size_t n = nodes_.size();
  std::vector<std::size_t> write_at(n + 1, 0);
  std::vector<std::size_t> read_at(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    write_at[i + 1] = nodes_[i].write_set.size();
    read_at[i + 1] = nodes_[i].read_set.size();
  }
  std::partial_sum(write_at.begin(), write_at.end(), write_at.begin());
  std::partial_sum(read_at.begin(), read_at.end(), read_at.begin());
  std::vector<Touch> writes(write_at[n]);
  std::vector<Touch> reads(read_at[n]);
  pool.parallel_for(0, n, 128,
                    [&](std::size_t b, std::size_t e, unsigned) {
                      for (std::size_t i = b; i < e; ++i) {
                        std::size_t w = write_at[i];
                        for (std::uint64_t page : nodes_[i].write_set) {
                          writes[w++] = {page, nodes_[i].id};
                        }
                        std::size_t r = read_at[i];
                        for (std::uint64_t page : nodes_[i].read_set) {
                          reads[r++] = {page, nodes_[i].id};
                        }
                      }
                    });
  const auto by_page_rank = [this](const Touch& a, const Touch& b) {
    if (a.page != b.page) return a.page < b.page;
    return rank_[a.node] < rank_[b.node];
  };
  util::parallel_sort(pool, writes, by_page_rank);
  util::parallel_sort(pool, reads, by_page_rank);

  // Both touch arrays are page-sorted, so the page universe is a linear
  // merge of their distinct pages ...
  pages_.clear();
  {
    std::size_t iw = 0;
    std::size_t ir = 0;
    while (iw < writes.size() || ir < reads.size()) {
      std::uint64_t page;
      if (ir == reads.size() ||
          (iw < writes.size() && writes[iw].page <= reads[ir].page)) {
        page = writes[iw].page;
      } else {
        page = reads[ir].page;
      }
      if (pages_.empty() || pages_.back() != page) pages_.push_back(page);
      while (iw < writes.size() && writes[iw].page == page) ++iw;
      while (ir < reads.size() && reads[ir].page == page) ++ir;
    }
  }

  // ... the bucket payloads are simply the node columns (already grouped
  // by page and rank-sorted within each group), and the offsets fall out
  // of one cursor walk per array.
  const auto fill = [this](const std::vector<Touch>& touches,
                           std::vector<std::uint32_t>& offsets,
                           std::vector<NodeId>& out) {
    offsets.assign(pages_.size() + 1, 0);
    out.resize(touches.size());
    std::size_t page_idx = 0;
    for (std::size_t k = 0; k < touches.size(); ++k) {
      while (pages_[page_idx] != touches[k].page) ++page_idx;
      ++offsets[page_idx + 1];
      out[k] = touches[k].node;
    }
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  };
  fill(writes, writer_offsets_, writers_);
  fill(reads, reader_offsets_, readers_);
}

std::span<const NodeId> Graph::thread_nodes(ThreadId tid) const {
  if (tid >= thread_count()) return {};
  return {thread_nodes_.data() + thread_offsets_[tid],
          thread_nodes_.data() + thread_offsets_[tid + 1]};
}

std::optional<NodeId> Graph::find(ThreadId tid, std::uint64_t alpha) const {
  const auto nodes = thread_nodes(tid);
  const auto it = std::lower_bound(
      nodes.begin(), nodes.end(), alpha,
      [this](NodeId id, std::uint64_t a) { return nodes_[id].alpha < a; });
  if (it == nodes.end() || nodes_[*it].alpha != alpha) return std::nullopt;
  return *it;
}

bool Graph::happens_before(NodeId a, NodeId b) const {
  // rank_.at() range-checks each id before its node is addressed (a
  // braced list evaluates left to right). The rank fast-reject then
  // answers half of all random probes, and every self or descendant
  // probe, from two u32 loads without touching the node table.
  return cpg::happens_before({a, rank_.at(a), &nodes_[a]},
                             {b, rank_.at(b), &nodes_[b]});
}

bool Graph::concurrent(NodeId a, NodeId b) const {
  if (a == b) return false;
  return !happens_before(a, b) && !happens_before(b, a);
}

std::optional<std::size_t> Graph::page_index_of(std::uint64_t page) const {
  return page_index(pages_, page);
}

std::span<const NodeId> Graph::page_writers(std::uint64_t page) const {
  const auto idx = page_index_of(page);
  return idx ? writers_at(*idx) : std::span<const NodeId>{};
}

std::span<const NodeId> Graph::page_readers(std::uint64_t page) const {
  const auto idx = page_index_of(page);
  return idx ? readers_at(*idx) : std::span<const NodeId>{};
}

std::span<const NodeId> Graph::writers_at(std::size_t page_index) const {
  if (page_index >= pages_.size()) {
    throw std::out_of_range("writers_at: bad page index");
  }
  return {writers_.data() + writer_offsets_[page_index],
          writers_.data() + writer_offsets_[page_index + 1]};
}

std::span<const NodeId> Graph::readers_at(std::size_t page_index) const {
  if (page_index >= pages_.size()) {
    throw std::out_of_range("readers_at: bad page index");
  }
  return {readers_.data() + reader_offsets_[page_index],
          readers_.data() + reader_offsets_[page_index + 1]};
}

std::span<const NodeId> Graph::topological_view() const {
  if (has_cycle_) throw std::logic_error("CPG contains a cycle");
  return topo_;
}

std::size_t Graph::level_count() const {
  if (has_cycle_) throw std::logic_error("CPG contains a cycle");
  return level_offsets_.empty() ? 0 : level_offsets_.size() - 1;
}

std::span<const NodeId> Graph::level_nodes(std::size_t level) const {
  if (has_cycle_) throw std::logic_error("CPG contains a cycle");
  if (level + 1 >= level_offsets_.size()) return {};
  return {topo_.data() + level_offsets_[level],
          topo_.data() + level_offsets_[level + 1]};
}

bool Graph::validate(std::string* reason) const {
  auto fail = [&](const std::string& why) {
    if (reason != nullptr) *reason = why;
    return false;
  };
  for (const auto& e : edges_) {
    if (e.from >= nodes_.size() || e.to >= nodes_.size()) {
      return fail("edge references unknown node");
    }
    const auto& from = node(e.from);
    const auto& to = node(e.to);
    switch (e.kind) {
      case EdgeKind::kControl:
        if (from.thread != to.thread) {
          return fail("control edge crosses threads");
        }
        if (from.alpha + 1 != to.alpha) {
          return fail("control edge skips a sub-computation");
        }
        break;
      case EdgeKind::kSync:
      case EdgeKind::kData:
        if (!happens_before(e.from, e.to)) {
          return fail("edge source does not happen-before destination");
        }
        break;
    }
  }
  if (has_cycle_) return fail("graph has a cycle");
  // The rank-windowed queries need clock weight monotone under
  // happens-before. Cross-thread hb pairs are monotone by strict clock
  // dominance; same-thread pairs (ordered by alpha regardless of their
  // clocks) must not let the weight decrease, or the window would hide
  // real dependencies.
  const auto weight = [this](NodeId id) {
    const auto& c = nodes_[id].clock.components();
    return std::accumulate(c.begin(), c.end(), std::uint64_t{0});
  };
  for (std::size_t t = 0; t < thread_count(); ++t) {
    const auto nodes = thread_nodes(static_cast<ThreadId>(t));
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      if (weight(nodes[i - 1]) > weight(nodes[i])) {
        return fail("clock weight decreases along a thread's alpha order");
      }
    }
  }
  return true;
}

GraphStats Graph::stats() const {
  GraphStats s;
  s.nodes = nodes_.size();
  s.threads = thread_count();
  for (const auto& e : edges_) {
    if (e.kind == EdgeKind::kControl) ++s.control_edges;
    if (e.kind == EdgeKind::kSync) ++s.sync_edges;
  }
  for (const auto& n : nodes_) {
    s.thunks += n.thunks.size();
    s.read_pages += n.read_set.size();
    s.write_pages += n.write_set.size();
  }
  return s;
}

std::span<const std::uint32_t> Graph::out_edges(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("out_edges: bad node id");
  return {out_ids_.data() + out_offsets_[id],
          out_ids_.data() + out_offsets_[id + 1]};
}

std::span<const std::uint32_t> Graph::in_edges(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("in_edges: bad node id");
  return {in_ids_.data() + in_offsets_[id],
          in_ids_.data() + in_offsets_[id + 1]};
}

}  // namespace inspector::cpg
