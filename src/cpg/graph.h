// The Concurrent Provenance Graph (INSPECTOR §IV-A): a DAG whose
// vertices are sub-computations and whose edges record control,
// synchronization, and data dependencies.
//
// Construction builds a shared, immutable query index once (CSR
// adjacency, per-thread node lists, a happens-before-compatible rank,
// and a page -> writers/readers inverted index); the query kernels
// (analysis/kernels.h) read it through a GraphView instead of scanning
// all nodes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "cpg/node.h"

namespace inspector::util {
class TaskPool;
}

namespace inspector::cpg {

/// Aggregate statistics over a CPG (used by reports and tests).
struct GraphStats {
  std::size_t nodes = 0;
  std::size_t control_edges = 0;
  std::size_t sync_edges = 0;
  std::size_t threads = 0;
  std::uint64_t thunks = 0;
  std::uint64_t read_pages = 0;   ///< sum of read-set sizes
  std::uint64_t write_pages = 0;  ///< sum of write-set sizes

  bool operator==(const GraphStats&) const = default;
};

class Graph {
 public:
  Graph() = default;
  /// `thunks`, when not empty, has one row per node (a column of any
  /// other shape throws std::invalid_argument).
  Graph(std::vector<SubComputation> nodes, std::vector<Edge> edges,
        std::vector<sync::SyncEvent> schedule, ThunkColumn thunks = {});

  [[nodiscard]] const std::vector<SubComputation>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] const SubComputation& node(NodeId id) const {
    return nodes_.at(id);
  }
  /// Control + sync edges recorded at build time (data edges are
  /// derived on demand by the query kernels).
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept {
    return edges_;
  }
  /// The recorded synchronization schedule (§IV-A II).
  [[nodiscard]] const std::vector<sync::SyncEvent>& schedule() const noexcept {
    return schedule_;
  }
  /// Thunks of node `id`, in beta order (empty for an unknown id).
  [[nodiscard]] ThunkSpan thunks(NodeId id) const noexcept {
    return thunks_.of(id);
  }
  /// Every node's thunks, packed.
  [[nodiscard]] const ThunkColumn& thunk_column() const noexcept {
    return thunks_;
  }

  /// Nodes of thread `tid`, in execution (alpha) order.
  [[nodiscard]] std::span<const NodeId> thread_nodes(ThreadId tid) const;
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return thread_offsets_.empty() ? 0 : thread_offsets_.size() - 1;
  }

  /// The node L_t[alpha], if it exists (binary search on the
  /// alpha-sorted per-thread list).
  [[nodiscard]] std::optional<NodeId> find(ThreadId tid,
                                           std::uint64_t alpha) const;

  // --- happens-before queries (vector-clock comparison, §IV-B) --------
  [[nodiscard]] bool happens_before(NodeId a, NodeId b) const;
  [[nodiscard]] bool concurrent(NodeId a, NodeId b) const;

  // --- shared query index ----------------------------------------------
  /// Every distinct page any node read or wrote, sorted. The position of
  /// a page in this span is its dense index: analyses can size flat
  /// arrays by page_count() and use page_index_of() instead of hash maps.
  [[nodiscard]] std::span<const std::uint64_t> pages() const noexcept {
    return pages_;
  }
  [[nodiscard]] std::size_t page_count() const noexcept {
    return pages_.size();
  }
  /// Dense index of `page` in pages(), if any node touched it.
  [[nodiscard]] std::optional<std::size_t> page_index_of(
      std::uint64_t page) const;

  /// Writers/readers of `page` from the inverted index, sorted by
  /// happens-before-compatible rank (see rank()).
  [[nodiscard]] std::span<const NodeId> page_writers(std::uint64_t page) const;
  [[nodiscard]] std::span<const NodeId> page_readers(std::uint64_t page) const;

  /// The same buckets addressed by dense page index (the position in
  /// pages()). Lets scans that already iterate the dense page range
  /// skip the per-page binary search.
  [[nodiscard]] std::span<const NodeId> writers_at(std::size_t page_index) const;
  [[nodiscard]] std::span<const NodeId> readers_at(std::size_t page_index) const;

  /// A total order compatible with happens-before: happens_before(a, b)
  /// implies rank(a) < rank(b). Derived from vector-clock weight, so it
  /// holds even for hb pairs with no recorded edge path.
  [[nodiscard]] std::uint32_t rank(NodeId id) const { return rank_.at(id); }

  /// Zero-copy view of the topological order consistent with
  /// happens-before, computed once at construction; throws
  /// std::logic_error when the recorded graph has a cycle (which would
  /// indicate a recorder bug -- the CPG is a DAG by construction).
  [[nodiscard]] std::span<const NodeId> topological_view() const;
  /// False when the recorded edges contain a cycle, i.e. when
  /// topological_view() and the level accessors throw.
  [[nodiscard]] bool acyclic() const noexcept { return !has_cycle_; }

  // --- topological levels ----------------------------------------------
  /// The cached order is grouped into levels: level k holds the nodes
  /// whose longest recorded-edge path from a root has k edges. No
  /// recorded path exists between two nodes of the same level (and
  /// same-thread nodes always sit on different levels, their control
  /// edges chain them), so level-synchronous passes -- the parallel
  /// taint/invalidation frontier -- may process one level's nodes in
  /// any order or concurrently and still be deterministic. Same cycle
  /// check as topological_view().
  [[nodiscard]] std::size_t level_count() const;
  /// Nodes of one level, ascending node id.
  [[nodiscard]] std::span<const NodeId> level_nodes(std::size_t level) const;

  /// Verify DAG-ness and clock consistency: every recorded edge's
  /// source must happen-before (or equal, for same-thread control
  /// edges) its destination. Returns false with a reason when violated.
  [[nodiscard]] bool validate(std::string* reason = nullptr) const;

  [[nodiscard]] GraphStats stats() const;

  /// Outgoing recorded (control/sync) edges per node (edge indices).
  [[nodiscard]] std::span<const std::uint32_t> out_edges(NodeId id) const;
  /// Incoming recorded (control/sync) edges per node (edge indices).
  [[nodiscard]] std::span<const std::uint32_t> in_edges(NodeId id) const;

 private:
  void build_indices();
  void build_adjacency();
  void build_thread_index();
  /// Fills rank_ and returns the nodes in rank order.
  std::vector<NodeId> build_rank(util::TaskPool& pool);
  void build_topological_order();
  void build_page_index(std::span<const NodeId> order);

  std::vector<SubComputation> nodes_;
  std::vector<Edge> edges_;
  std::vector<sync::SyncEvent> schedule_;
  ThunkColumn thunks_;

  // Per-thread node lists, alpha-sorted, in one flat CSR array.
  std::vector<std::uint32_t> thread_offsets_;  ///< thread_count()+1 entries
  std::vector<NodeId> thread_nodes_;

  // CSR adjacency over recorded edges, by edge index into edges_.
  std::vector<std::uint32_t> out_offsets_;
  std::vector<std::uint32_t> out_ids_;
  std::vector<std::uint32_t> in_offsets_;
  std::vector<std::uint32_t> in_ids_;

  // Happens-before-compatible total order (clock weight, thread, alpha).
  std::vector<std::uint32_t> rank_;

  // Cached topological order over recorded edges, grouped by (level,
  // id); empty + flag when cyclic. level_offsets_ has level_count()+1
  // entries indexing topo_.
  std::vector<NodeId> topo_;
  std::vector<std::uint32_t> level_offsets_;
  bool has_cycle_ = false;

  // Inverted index: page -> writers / readers, rank-sorted per page.
  std::vector<std::uint64_t> pages_;  ///< sorted distinct page ids
  std::vector<std::uint32_t> writer_offsets_;  ///< page_count()+1 entries
  std::vector<NodeId> writers_;
  std::vector<std::uint32_t> reader_offsets_;
  std::vector<NodeId> readers_;
};

}  // namespace inspector::cpg
