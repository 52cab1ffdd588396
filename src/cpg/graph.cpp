#include "cpg/graph.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>

#include "cpg/binary_io.h"
#include "util/page_set.h"
#include "util/parallel.h"

namespace inspector::cpg {

bool SubComputation::reads_page(std::uint64_t page) const {
  return page_set_contains(read_set, page);
}

bool SubComputation::writes_page(std::uint64_t page) const {
  return page_set_contains(write_set, page);
}

Thunk ThunkSpan::operator[](std::size_t i) const noexcept {
  const std::uint8_t* p = records_ + i * kThunkRecordBytes;
  Thunk t;
  t.beta = detail::load_u32(p);
  t.branch.ip = detail::load_u64(p + 4);
  t.branch.target = detail::load_u64(p + 12);
  t.branch.taken = (p[20] & 1) != 0;
  t.branch.indirect = (p[20] & 2) != 0;
  return t;
}

bool ThunkSpan::operator==(const ThunkSpan& other) const noexcept {
  return count_ == other.count_ &&
         (count_ == 0 || std::memcmp(records_, other.records_,
                                     count_ * kThunkRecordBytes) == 0);
}

void ThunkColumn::push(const Thunk& thunk) {
  const std::size_t at = records.size();
  records.resize(at + kThunkRecordBytes);
  std::uint8_t* p = records.data() + at;
  detail::store_u32(p, thunk.beta);
  detail::store_u64(p + 4, thunk.branch.ip);
  detail::store_u64(p + 12, thunk.branch.target);
  p[20] = static_cast<std::uint8_t>((thunk.branch.taken ? 1 : 0) |
                                    (thunk.branch.indirect ? 2 : 0));
}

void ThunkColumn::end_node() {
  ends.push_back(static_cast<std::uint32_t>(records.size() / kThunkRecordBytes));
}

ThunkSpan ThunkColumn::of(std::size_t v) const noexcept {
  if (v >= ends.size()) return {};
  const std::uint32_t first = v == 0 ? 0 : ends[v - 1];
  return {records.data() + std::size_t{first} * kThunkRecordBytes,
          ends[v] - first};
}

std::ostream& operator<<(std::ostream& os, const SubComputation& node) {
  return os << "L" << node.thread << "[" << node.alpha << "] clock="
            << node.clock << " |R|=" << node.read_set.size()
            << " |W|=" << node.write_set.size();
}

std::ostream& operator<<(std::ostream& os, const Edge& edge) {
  const char* kind = edge.kind == EdgeKind::kControl ? "control"
                     : edge.kind == EdgeKind::kSync  ? "sync"
                                                     : "data";
  return os << edge.from << " -[" << kind << "]-> " << edge.to;
}

namespace {

// Grains: one parallel_for dispatch costs ~60-80 us on the pool, so a
// chunk must carry at least that much work. Page-set normalization
// runs ~6 ns a node (15 us serial for a 2.5k-node shard graph against
// 76-99 us on 4 workers), so node stages split at 16k nodes and the
// ~1 ns-per-edge endpoint check at 64k edges: a shard-sized graph
// builds inline, and only whole-graph builds big enough to gain fan
// out.
constexpr std::size_t kNodeGrain = 16384;
constexpr std::size_t kEdgeGrain = 65536;

constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

/// Fibonacci hashing: the top `64 - shift` bits of page * 2^64 / phi.
/// The product wraps on purpose, so clang's unsigned-overflow check
/// (the integer-sanitizer build) is off here.
#if defined(__clang__)
[[clang::no_sanitize("unsigned-integer-overflow")]]
#endif
std::size_t page_hash(std::uint64_t page, int shift) noexcept {
  return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ULL) >> shift);
}

/// Stable LSD radix sort of `ids` by key_of(id): one counting pass per
/// byte in which some key differs from the first, so the cost is
/// linear in the ids with no comparisons, and equal keys keep their
/// input order (the tie-break).
template <typename KeyOf>
void radix_sort(std::span<std::uint32_t> ids, KeyOf key_of) {
  if (ids.size() < 2) return;
  const std::uint64_t first = key_of(ids[0]);
  std::uint64_t varying = 0;
  for (const std::uint32_t id : ids) varying |= key_of(id) ^ first;
  std::vector<std::uint32_t> scratch(ids.size());
  std::span<std::uint32_t> from = ids;
  std::span<std::uint32_t> to = scratch;
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;
    std::array<std::uint32_t, 257> count{};
    for (const std::uint32_t id : from) ++count[((key_of(id) >> shift) & 0xFF) + 1];
    std::partial_sum(count.begin(), count.end(), count.begin());
    for (const std::uint32_t id : from) {
      to[count[(key_of(id) >> shift) & 0xFF]++] = id;
    }
    std::swap(from, to);
  }
  if (from.data() != ids.data()) std::copy(from.begin(), from.end(), ids.begin());
}

}  // namespace

Graph::Graph(std::vector<SubComputation> nodes, std::vector<Edge> edges,
             std::vector<sync::SyncEvent> schedule, ThunkColumn thunks)
    : nodes_(std::move(nodes)),
      edges_(std::move(edges)),
      schedule_(std::move(schedule)),
      thunks_(std::move(thunks)) {
  // A row per node, ends never decreasing, and the records exactly the
  // last end's worth: of() then addresses only bytes the column holds.
  bool rows_ok = thunks_.ends.empty()
                     ? thunks_.records.empty()
                     : thunks_.ends.size() == nodes_.size() &&
                           std::size_t{thunks_.ends.back()} *
                                   kThunkRecordBytes ==
                               thunks_.records.size();
  for (std::size_t v = 1; rows_ok && v < thunks_.ends.size(); ++v) {
    rows_ok = thunks_.ends[v - 1] <= thunks_.ends[v];
  }
  if (!rows_ok) {
    throw std::invalid_argument("CPG thunk column does not match its nodes");
  }
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
  // Every stage is a counting scatter or a radix pass -- no comparison
  // sort -- and the two per-node stages split over the shared analysis
  // pool only past a grain, writing disjoint index-addressed slots, so
  // the built index is bit-identical at every worker count (the
  // determinism guarantee the analyses inherit).
  const auto pool = util::shared_pool();
  std::atomic<bool> bad_edge{false};
  pool->parallel_for(0, edges_.size(), kEdgeGrain,
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
  pool->parallel_for(0, nodes_.size(), kNodeGrain,
                     [&](std::size_t b, std::size_t e, unsigned) {
                       for (std::size_t i = b; i < e; ++i) {
                         page_set_normalize(nodes_[i].read_set);
                         page_set_normalize(nodes_[i].write_set);
                       }
                     });
  build_adjacency();
  build_thread_index();
  const std::vector<NodeId> order = build_rank(*pool);
  build_topological_order();
  build_page_index(order);
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

void Graph::build_thread_index() {
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
  // The scatter leaves each thread's list in id order, which a
  // recorded graph's alpha order already is; a crafted graph that
  // disagrees radix-sorts by alpha, the id order breaking ties.
  const auto alpha_of = [this](NodeId id) { return nodes_[id].alpha; };
  for (std::size_t t = 0; t < threads; ++t) {
    const std::span<NodeId> list(thread_nodes_.data() + thread_offsets_[t],
                                 thread_nodes_.data() + thread_offsets_[t + 1]);
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (alpha_of(list[i - 1]) > alpha_of(list[i])) {
        radix_sort(list, alpha_of);
        break;
      }
    }
  }
}

std::vector<NodeId> Graph::build_rank(util::TaskPool& pool) {
  // Clock weight is monotone under happens-before: a merge only grows
  // components and every sub-computation ticks its own slot, so
  // happens_before(a, b) implies weight(a) < weight(b) whether the
  // relation comes from the clocks or from same-thread program order.
  // Ordering by (weight, thread, alpha, id) therefore yields a total
  // order that embeds the partial order -- including hb pairs that have
  // no recorded edge path, which an edge-based order would miss.
  const std::size_t n = nodes_.size();
  std::vector<std::uint64_t> weight(n, 0);
  pool.parallel_for(0, n, kNodeGrain,
                    [&](std::size_t b, std::size_t e, unsigned) {
                      for (std::size_t i = b; i < e; ++i) {
                        const auto& c = nodes_[i].clock.components();
                        weight[i] = std::accumulate(c.begin(), c.end(),
                                                    std::uint64_t{0});
                      }
                    });
  // The per-thread lists concatenated are in (thread, alpha, id)
  // order; a stable radix sort by weight puts weight first.
  std::vector<NodeId> order(thread_nodes_.begin(), thread_nodes_.end());
  radix_sort(std::span<NodeId>(order), [&](NodeId id) { return weight[id]; });
  rank_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    rank_[order[r]] = static_cast<std::uint32_t>(r);
  }
  return order;
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
  // Each node enters the FIFO once, so a flat array holds it.
  std::vector<NodeId> ready;
  ready.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::uint32_t max_level = 0;
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const NodeId cur = ready[head];
    max_level = std::max(max_level, level[cur]);
    for (std::uint32_t e : out_edges(cur)) {
      const NodeId to = edges_[e].to;
      level[to] = std::max(level[to], level[cur] + 1);
      if (--indegree[to] == 0) ready.push_back(to);
    }
  }
  has_cycle_ = ready.size() != n;
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

void Graph::build_page_index(std::span<const NodeId> order) {
  // One walk over the nodes interns every touched page -- dense slots
  // in first-touch order from an open-addressing table -- and only the
  // distinct pages are radix-sorted into the universe. The buckets are
  // then a counting scatter with the nodes taken in rank order, which
  // leaves every bucket rank-sorted with no comparison sort. A stable
  // radix sort of every (page, node) touch by page, the simpler form,
  // makes each of its passes over all touches instead of the distinct
  // pages: it built a word_count@10 shard graph in 171-174 us against
  // this walk's 136-142 us, and whole graphs 20-150 % slower (Release,
  // 4-vCPU VM).
  const std::size_t n = nodes_.size();
  // Linear probing over a table kept at most half full: it doubles
  // (reinserting the distinct pages) as they arrive, since pages recur
  // across many nodes and the distinct count is unknown up front.
  std::vector<std::uint64_t> distinct;  // slot -> page
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> slots;
  int shift = 0;
  const auto probe = [&](std::uint64_t page) {
    std::size_t i = page_hash(page, shift);
    while (slots[i] != kNoSlot && keys[i] != page) {
      i = (i + 1) & (slots.size() - 1);
    }
    return i;
  };
  const auto grow = [&](std::size_t capacity) {
    keys.resize(capacity);
    slots.assign(capacity, kNoSlot);
    shift = 64 - std::countr_zero(capacity);
    for (std::uint32_t slot = 0; slot < distinct.size(); ++slot) {
      const std::size_t i = probe(distinct[slot]);
      keys[i] = distinct[slot];
      slots[i] = slot;
    }
  };
  grow(256);
  const auto intern = [&](std::uint64_t page) {
    const std::size_t i = probe(page);
    if (slots[i] != kNoSlot) return slots[i];
    const auto slot = static_cast<std::uint32_t>(distinct.size());
    keys[i] = page;
    slots[i] = slot;
    distinct.push_back(page);
    if (2 * distinct.size() > slots.size()) grow(2 * slots.size());
    return slot;
  };

  // Each node's touches, flat and in id order: `at[start[id]..start[id
  // + 1])` holds the slots of its pages.
  struct Touches {
    std::vector<std::uint32_t> start;
    std::vector<std::uint32_t> at;
  };
  Touches writes{std::vector<std::uint32_t>(n + 1), {}};
  Touches reads{std::vector<std::uint32_t>(n + 1), {}};
  for (std::size_t id = 0; id < n; ++id) {
    writes.start[id] = static_cast<std::uint32_t>(writes.at.size());
    for (const std::uint64_t page : nodes_[id].write_set) {
      writes.at.push_back(intern(page));
    }
    reads.start[id] = static_cast<std::uint32_t>(reads.at.size());
    for (const std::uint64_t page : nodes_[id].read_set) {
      reads.at.push_back(intern(page));
    }
  }
  writes.start[n] = static_cast<std::uint32_t>(writes.at.size());
  reads.start[n] = static_cast<std::uint32_t>(reads.at.size());

  std::vector<std::uint32_t> by_page(distinct.size());
  std::iota(by_page.begin(), by_page.end(), 0);
  radix_sort(std::span<std::uint32_t>(by_page),
             [&](std::uint32_t slot) { return distinct[slot]; });
  pages_.resize(distinct.size());
  std::vector<std::uint32_t> index_of(distinct.size());
  for (std::size_t i = 0; i < by_page.size(); ++i) {
    pages_[i] = distinct[by_page[i]];
    index_of[by_page[i]] = static_cast<std::uint32_t>(i);
  }

  // Offsets from per-page counts, then the scatter in rank order.
  const auto fill = [&](Touches& touches, std::vector<std::uint32_t>& offsets,
                        std::vector<NodeId>& out) {
    offsets.assign(pages_.size() + 1, 0);
    for (std::uint32_t& p : touches.at) {
      p = index_of[p];
      ++offsets[p + 1];
    }
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    out.resize(touches.at.size());
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const NodeId id : order) {
      for (std::uint32_t k = touches.start[id]; k < touches.start[id + 1];
           ++k) {
        out[cursor[touches.at[k]]++] = id;
      }
    }
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
  s.thunks = thunks_.ends.empty() ? 0 : thunks_.ends.back();
  for (const auto& n : nodes_) {
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
