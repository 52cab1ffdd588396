#include "shard/engine.h"

#include <atomic>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/kernels.h"
#include "query/dispatch.h"
#include "util/status.h"

namespace inspector::shard {

namespace {

using cpg::NodeRef;

/// A node resolved through a pin set: its entry plus the shard holding
/// it (valid while the resolving scope lives) and its local id there.
struct StoreNode : NodeRef {
  const LoadedShard* shard = nullptr;
  std::uint32_t local = 0;
};

StoreNode entry(const LoadedShard& ls, std::uint32_t local) {
  const ShardData& d = ls.data;
  return {{d.global_ids[local], d.global_ranks[local], &d.graph.nodes()[local]},
          &ls,
          local};
}

/// A sharded store as a provenance view (analysis/kernels.h).
///
/// A scope is a pin set: shards load on first touch and stay alive (and
/// pointer-stable) until the scope dies, whatever the store's LRU does
/// underneath. The kernels scope their work per query, frontier node,
/// page, level or (in the walks below) shard, so residency is bounded
/// by one unit of work plus the store's budgeted cache; the store
/// counts evicted-but-pinned shards in Stats::peak_resident_bytes, so a
/// pass that outgrows its scope shows up in the numbers instead of
/// hiding. Load failures (including a corrupt compressed payload,
/// surfaced by the store as a typed Status) throw StatusError;
/// ShardBackend::execute converts the escape back into its typed Status.
///
/// Degraded mode: when the serving process opted in, the lenient
/// lookups -- try_node(), page buckets, the level and whole-store
/// walks -- skip a quarantined shard, flag degraded(), and the kernels
/// leave that slice out of the answer. The strict node() always throws:
/// query anchors have no partial answer to fall back on.
class StoreView {
 public:
  StoreView(ShardStore& store, bool allow_degraded)
      : store_(store),
        m_(store.manifest()),
        allow_degraded_(allow_degraded) {}

  /// One page's accessors merged across the shards holding them, in
  /// global rank order -- exactly the bucket of the unsharded index.
  using Bucket = std::vector<NodeRef>;

  class Scope {
   public:
    explicit Scope(const StoreView& view)
        : view_(view), held_(view.m_.shard_count) {}

    StoreNode node(cpg::NodeId global) {
      const std::uint32_t s = view_.store_.shard_of(global);
      return locate(*load(s, /*lenient=*/false), s, global);
    }

    std::optional<StoreNode> try_node(cpg::NodeId global) {
      const std::uint32_t s = view_.store_.shard_of(global);
      const LoadedShard* ls = load(s, /*lenient=*/true);
      if (ls == nullptr) return std::nullopt;
      return locate(*ls, s, global);
    }

    Bucket writers(std::size_t page_index) { return bucket(page_index, true); }
    Bucket readers(std::size_t page_index) { return bucket(page_index, false); }

    template <typename Fn>
    void for_each_predecessor(const StoreNode& n, Fn&& fn) const {
      for_each_edge(n, /*incoming=*/true, fn);
    }
    template <typename Fn>
    void for_each_successor(const StoreNode& n, Fn&& fn) const {
      for_each_edge(n, /*incoming=*/false, fn);
    }

    template <typename Fn>
    void for_each_level_node(std::size_t level, Fn&& fn) {
      // Only the shards whose level fences cover the level are pinned.
      for (std::uint32_t s = 0; s < view_.m_.shard_count; ++s) {
        const ShardInfo& info = view_.m_.shards[s];
        if (info.node_count == 0 || level < info.min_level ||
            level > info.max_level) {
          continue;
        }
        const LoadedShard* ls = shard_or_null(s);
        if (ls == nullptr) continue;
        for (const std::uint32_t local :
             ls->level_locals(static_cast<std::uint32_t>(level))) {
          fn(entry(*ls, local));
        }
      }
    }

    /// The shard, or nullptr when the view skips it.
    const LoadedShard* shard_or_null(std::uint32_t s) {
      return load(s, /*lenient=*/true);
    }

   private:
    const LoadedShard* load(std::uint32_t s, bool lenient) {
      if (!held_[s]) {
        auto loaded = view_.store_.load(s);
        if (!loaded.ok()) {
          if (lenient && view_.allow_degraded_ &&
              loaded.status().code() == StatusCode::kUnavailable) {
            view_.degraded_.store(true, std::memory_order_relaxed);
            return nullptr;
          }
          // lint: allow(no-throw-across-boundary) internal StatusError; the backend boundary catches it and returns the typed Status
          throw StatusError(loaded.status());
        }
        held_[s] = std::move(loaded).value();
      }
      return held_[s].get();
    }

    static StoreNode locate(const LoadedShard& ls, std::uint32_t s,
                            cpg::NodeId global) {
      const auto local = ls.local_of(global);
      if (!local) {
        // The manifest routed here but the file disagrees: mixed or
        // corrupt store files. A typed failure, never UB.
        // lint: allow(no-throw-across-boundary) internal StatusError; the backend boundary catches it and returns the typed Status
        throw StatusError(Status(
            StatusCode::kDataLoss,
            "sharded store is inconsistent: the manifest places node " +
                std::to_string(global) + " in shard " + std::to_string(s) +
                " but the shard file lacks it"));
      }
      return entry(ls, *local);
    }

    Bucket bucket(std::size_t page_index, bool writers) {
      const std::uint64_t page = view_.m_.pages[page_index];
      Bucket out;
      for (std::uint32_t s = 0; s < view_.m_.shard_count; ++s) {
        const ShardInfo& info = view_.m_.shards[s];
        if (info.min_page == kNoPage || page < info.min_page ||
            page > info.max_page) {
          continue;  // fence-pruned without touching the file
        }
        const LoadedShard* ls = shard_or_null(s);
        if (ls == nullptr) continue;
        const cpg::Graph& g = ls->data.graph;
        for (const cpg::NodeId local :
             writers ? g.page_writers(page) : g.page_readers(page)) {
          out.push_back(entry(*ls, local));
        }
      }
      // Shards are ascending rank ranges, so the buckets concatenate in order.
      return out;
    }

    /// A node's recorded edges in global edge order: the intra-shard
    /// edges and the stored cross-shard frontier, merged on their
    /// global edge indices (the critical path's tie-break reads them in
    /// this order).
    template <typename Fn>
    static void for_each_edge(const StoreNode& n, bool incoming, Fn& fn) {
      const ShardData& d = n.shard->data;
      const auto locals =
          incoming ? d.graph.in_edges(n.local) : d.graph.out_edges(n.local);
      const auto crossing = incoming ? n.shard->frontier_in_of(n.local)
                                     : n.shard->frontier_out_of(n.local);
      const std::vector<FrontierEdge>& frontier =
          incoming ? d.frontier_in : d.frontier_out;
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < locals.size() || j < crossing.size()) {
        if (j >= crossing.size() ||
            (i < locals.size() &&
             d.edge_globals[locals[i]] < frontier[crossing[j]].edge_index)) {
          const cpg::Edge& e = d.graph.edges()[locals[i++]];
          fn(d.global_ids[incoming ? e.from : e.to]);
        } else {
          const FrontierEdge& f = frontier[crossing[j++]];
          fn(incoming ? f.from : f.to);
        }
      }
    }

    const StoreView& view_;
    std::vector<std::shared_ptr<const LoadedShard>> held_;
  };

  [[nodiscard]] Scope scope() const { return Scope(*this); }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return m_.total_nodes;
  }
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return m_.thread_count;
  }
  [[nodiscard]] std::size_t level_count() const noexcept {
    return m_.level_count;
  }
  [[nodiscard]] std::span<const std::uint64_t> pages() const noexcept {
    return m_.pages;
  }

  /// fn(scope, shard) for every shard the view does not skip, in shard
  /// order, each under its own scope: one shard pinned at a time.
  template <typename Fn>
  void for_each_shard(Fn&& fn) const {
    for (std::uint32_t s = 0; s < m_.shard_count; ++s) {
      Scope scope(*this);
      if (const LoadedShard* ls = scope.shard_or_null(s)) fn(scope, *ls);
    }
  }

  /// Rank-range shards are topological sections -- every recorded edge
  /// stays in its shard or points into a later one -- so shard order,
  /// then each shard's local topological order, is a topological order
  /// of the store.
  template <typename Fn>
  void for_each_topological(Fn&& fn) const {
    for_each_shard([&](Scope& scope, const LoadedShard& ls) {
      for (const cpg::NodeId local : ls.data.graph.topological_view()) {
        fn(scope, entry(ls, local));
      }
    });
  }

  template <typename Fn>
  void for_each_node(Fn&& fn) const {
    for_each_shard([&](Scope&, const LoadedShard& ls) {
      for (std::uint32_t local = 0; local < ls.data.global_ids.size();
           ++local) {
        fn(entry(ls, local));
      }
    });
  }

  /// The planner refuses cyclic graphs, so a store always has levels.
  [[nodiscard]] bool acyclic() const noexcept { return true; }
  [[nodiscard]] bool degraded() const noexcept {
    return degraded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] cpg::GraphStats stats() const { return m_.stats; }

 private:
  ShardStore& store_;
  const Manifest& m_;
  bool allow_degraded_ = false;
  /// Set once a lenient lookup skipped a quarantined shard.
  mutable std::atomic<bool> degraded_{false};
};

class ShardBackend final : public query::QueryBackend {
 public:
  ShardBackend(std::shared_ptr<ShardStore> store, bool allow_degraded)
      : store_(std::move(store)), allow_degraded_(allow_degraded) {}

  [[nodiscard]] Result<query::Execution> execute(
      const query::Query& q) const override {
    const StoreView view(*store_, allow_degraded_);
    try {
      return query::detail::execute_on(view, q);
    } catch (const StatusError& e) {
      // A quarantined shard (or store inconsistency) surfaced
      // mid-query: hand the typed Status back -- kUnavailable names the
      // shard and file so the operator knows what to fsck.
      return e.status();
    }
  }

 private:
  std::shared_ptr<ShardStore> store_;
  bool allow_degraded_ = false;
};

}  // namespace

ShardedQueryEngine::ShardedQueryEngine(std::shared_ptr<ShardStore> store,
                                       bool allow_degraded)
    : query::QueryEngine(
          std::make_shared<const ShardBackend>(store, allow_degraded)),
      store_(std::move(store)) {}

}  // namespace inspector::shard
