#include "shard/engine.h"

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
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

NodeRef ref(const LoadedShard& ls, std::uint32_t local) {
  const ShardData& d = ls.data;
  return {d.global_ids[local], d.global_ranks[local], &d.graph.nodes()[local]};
}

StoreNode entry(const LoadedShard& ls, std::uint32_t local) {
  return {ref(ls, local), &ls, local};
}

/// One page's writers or readers: the holding shards' own rank-ordered
/// buckets, chained in shard order. Shards are ascending rank ranges,
/// so the chain is in global rank order -- exactly the bucket of the
/// unsharded index -- and it is read in place, never copied.
class Bucket {
 public:
  void append(const LoadedShard& ls, std::span<const cpg::NodeId> locals) {
    if (locals.empty()) return;
    size_ += locals.size();
    const Part part{&ls, locals, size_};
    if (parts_ < kInline) {
      inline_[parts_] = part;
    } else {
      spill_.push_back(part);
    }
    ++parts_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] NodeRef operator[](std::size_t i) const {
    std::size_t k = 0;
    while (part(k).end <= i) ++k;  // the part whose running size passes i
    const Part& p = part(k);
    return ref(*p.shard, p.locals[i + p.locals.size() - p.end]);
  }

 private:
  struct Part {
    const LoadedShard* shard = nullptr;
    std::span<const cpg::NodeId> locals;
    std::size_t end = 0;  ///< running size through this part
  };
  /// A page is rarely held by more shards than this.
  static constexpr std::size_t kInline = 8;

  [[nodiscard]] const Part& part(std::size_t k) const {
    return k < kInline ? inline_[k] : spill_[k - kInline];
  }

  std::array<Part, kInline> inline_{};
  std::vector<Part> spill_;
  std::size_t parts_ = 0;
  std::size_t size_ = 0;
};

/// A sharded store as a provenance view (analysis/kernels.h), for one
/// query.
///
/// A scope is a pin set: shards load on first touch and stay alive (and
/// pointer-stable) until the scope dies, whatever the store's LRU does
/// underneath. The kernels scope their work per query, frontier node,
/// page, level or (in the walks below) shard, so under a budget
/// residency is bounded by one unit of work plus the store's cache; the
/// store counts evicted-but-pinned shards in Stats::peak_resident_bytes,
/// so a pass that outgrows its scope shows up in the numbers instead of
/// hiding. A store that never evicts needs no such bound: its view pins
/// each shard once, in a per-query pin table every scope shares, and a
/// repeated touch is one acquire load -- no store lock, no copy. Load
/// failures (including a corrupt compressed payload, surfaced by the
/// store as a typed Status) throw StatusError; ShardBackend::execute
/// converts the escape back into its typed Status.
///
/// A page's bucket reaches only the shards the manifest's page table
/// names as holders, each at the page's local index.
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
        table_(store.page_table()),
        allow_degraded_(allow_degraded),
        pins_(store.never_evicts()
                  ? std::make_unique<Pin[]>(m_.shard_count)
                  : nullptr) {}

  class Scope {
   public:
    explicit Scope(const StoreView& view) : view_(view) {
      if (!view.pins_) held_.resize(view.m_.shard_count);
    }

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
      if (view_.pins_) return view_.pinned(s, lenient);
      if (!held_[s]) held_[s] = view_.fetch(s, lenient);
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
      Bucket out;
      for (const PageTable::Holder& h : view_.table_.holders(page_index)) {
        const LoadedShard* ls = shard_or_null(h.shard);
        if (ls == nullptr) continue;
        const cpg::Graph& g = ls->data.graph;
        out.append(*ls, writers ? g.writers_at(h.local)
                                : g.readers_at(h.local));
      }
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
    /// This scope's pins; unused (empty) when the view has a pin table.
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

  /// The planner refuses cyclic graphs, so a store always has levels.
  [[nodiscard]] bool acyclic() const noexcept { return true; }
  [[nodiscard]] bool degraded() const noexcept {
    return degraded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] cpg::GraphStats stats() const { return m_.stats; }

 private:
  /// One slot of the per-query pin table.
  struct Pin {
    std::atomic<const LoadedShard*> shard{nullptr};
    std::mutex fill;  ///< serializes the slot's first load; guards `held`
    std::shared_ptr<const LoadedShard> held;
  };

  /// One trip to the store: the shard, or nullptr when a lenient lookup
  /// may skip it (degraded serving over a quarantined shard). Any other
  /// failure throws StatusError. The one failure path of both pin forms.
  std::shared_ptr<const LoadedShard> fetch(std::uint32_t s,
                                           bool lenient) const {
    auto loaded = store_.load(s);
    if (loaded.ok()) return std::move(loaded).value();
    if (lenient && allow_degraded_ &&
        loaded.status().code() == StatusCode::kUnavailable) {
      degraded_.store(true, std::memory_order_relaxed);
      return nullptr;
    }
    // lint: allow(no-throw-across-boundary) internal StatusError; the backend boundary catches it and returns the typed Status
    throw StatusError(loaded.status());
  }

  /// Shard `s` through the pin table. The slot is re-checked under its
  /// fill lock, so concurrent first touches (the race scan's pool
  /// workers) load it once; a skipped shard leaves the slot empty.
  const LoadedShard* pinned(std::uint32_t s, bool lenient) const {
    Pin& pin = pins_[s];
    if (const LoadedShard* ls = pin.shard.load(std::memory_order_acquire)) {
      return ls;
    }
    std::lock_guard lock(pin.fill);
    if (const LoadedShard* ls = pin.shard.load(std::memory_order_relaxed)) {
      return ls;
    }
    pin.held = fetch(s, lenient);
    pin.shard.store(pin.held.get(), std::memory_order_release);
    return pin.held.get();
  }

  ShardStore& store_;
  const Manifest& m_;
  const PageTable& table_;
  bool allow_degraded_ = false;
  /// Set once a lenient lookup skipped a quarantined shard.
  mutable std::atomic<bool> degraded_{false};
  /// The per-query pin table of a store that never evicts; null under a
  /// budget, where each scope pins for itself.
  std::unique_ptr<Pin[]> pins_;
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
