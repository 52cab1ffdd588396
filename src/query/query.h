// The typed request/response surface of the provenance query API.
//
// Everything an analyst can ask of a captured run -- the slicing,
// dependence, race, DIFT, and incremental-invalidation queries the
// paper's case studies run over the CPG -- is one Query variant in,
// one QueryResult variant out. The engine (engine.h) executes them
// over an immutable graph snapshot; the wire layer (wire.h) gives the
// same surface a line-delimited JSON form for the serving front-end.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "analysis/kernels.h"
#include "cpg/graph.h"
#include "cpg/node.h"
#include "sync/sync_event.h"
#include "util/page_set.h"

namespace inspector::query {

// --- requests ---------------------------------------------------------

/// Backward provenance slice from one node ("why is the state like
/// this" -- §VIII debugging).
struct BackwardSliceQuery {
  cpg::NodeId node = cpg::kInvalidNode;
};

/// Forward impact slice from one node (change propagation).
struct ForwardSliceQuery {
  cpg::NodeId node = cpg::kInvalidNode;
};

/// Latest happens-before writer per page the node reads (the dataflow
/// edge set a slice follows).
struct LatestWritersQuery {
  cpg::NodeId node = cpg::kInvalidNode;
};

/// All update-use dependencies of one reader node.
struct DataDependenciesQuery {
  cpg::NodeId node = cpg::kInvalidNode;
};

/// Writers and readers of one page, in rank order.
struct PageAccessorsQuery {
  std::uint64_t page = 0;
};

/// The happens-before relation between two nodes.
struct HappensBeforeQuery {
  cpg::NodeId first = cpg::kInvalidNode;
  cpg::NodeId second = cpg::kInvalidNode;
};

/// Conflicting concurrent pairs (the race detector).
struct RacesQuery {
  /// Report at most this many races (0 = unlimited).
  std::uint64_t limit = 0;
  PageSet ignored_pages;
};

/// DIFT: propagate taint from seed pages, report tainted nodes/pages
/// and the tainted output sites.
struct TaintQuery {
  PageSet seed_pages;
  bool track_register_carryover = true;
  /// Which end-reason counts as an output site for the sinks list.
  sync::SyncEventKind sink_kind = sync::SyncEventKind::kThreadExit;
};

/// Incremental invalidation: which nodes must re-run when these input
/// pages changed.
struct InvalidateQuery {
  PageSet changed_pages;
};

/// Longest dependency chain and available parallelism.
struct CriticalPathQuery {};

/// Aggregate graph statistics.
struct StatsQuery {};

using Query =
    std::variant<BackwardSliceQuery, ForwardSliceQuery, LatestWritersQuery,
                 DataDependenciesQuery, PageAccessorsQuery,
                 HappensBeforeQuery, RacesQuery, TaintQuery, InvalidateQuery,
                 CriticalPathQuery, StatsQuery>;

/// Stable wire/operation name of a query ("backward_slice", "races",
/// ...). Also the prefix of the engine's cache keys.
[[nodiscard]] const char* query_name(const Query& q) noexcept;

// --- responses --------------------------------------------------------

/// Slices: node ids ascending.
struct NodeListResult {
  std::vector<cpg::NodeId> nodes;

  bool operator==(const NodeListResult&) const = default;
};

/// Latest writers / data dependencies: derived data edges.
struct EdgeListResult {
  std::vector<cpg::Edge> edges;

  bool operator==(const EdgeListResult&) const = default;
};

struct PageAccessorsResult {
  std::uint64_t page = 0;
  std::vector<cpg::NodeId> writers;  ///< rank order
  std::vector<cpg::NodeId> readers;  ///< rank order

  bool operator==(const PageAccessorsResult&) const = default;
};

enum class Ordering : std::uint8_t {
  kBefore,      ///< first happens-before second
  kAfter,       ///< second happens-before first
  kConcurrent,  ///< incomparable vector clocks
  kEqual,       ///< the same node
};

[[nodiscard]] constexpr const char* to_string(Ordering o) noexcept {
  switch (o) {
    case Ordering::kBefore:
      return "before";
    case Ordering::kAfter:
      return "after";
    case Ordering::kConcurrent:
      return "concurrent";
    case Ordering::kEqual:
      return "equal";
  }
  return "concurrent";
}

struct HappensBeforeResult {
  Ordering ordering = Ordering::kConcurrent;

  bool operator==(const HappensBeforeResult&) const = default;
};

struct RaceListResult {
  std::vector<analysis::RaceReport> races;

  bool operator==(const RaceListResult&) const = default;
};

/// Taint and invalidation share this shape: the marked nodes, the
/// marked pages (seeds included), and -- for taint -- the tainted
/// output sites.
struct FlowResult {
  std::vector<cpg::NodeId> nodes;  ///< ascending id
  PageSet pages;
  std::vector<cpg::NodeId> sinks;  ///< taint only; empty for invalidate

  bool operator==(const FlowResult&) const = default;
};

struct CriticalPathResult {
  std::vector<cpg::NodeId> nodes;  ///< one longest chain, execution order
  std::uint64_t total_nodes = 0;

  [[nodiscard]] std::uint64_t length() const noexcept { return nodes.size(); }
  [[nodiscard]] double parallelism() const noexcept {
    return nodes.empty() ? 0.0
                         : static_cast<double>(total_nodes) /
                               static_cast<double>(nodes.size());
  }

  bool operator==(const CriticalPathResult&) const = default;
};

struct StatsResult {
  cpg::GraphStats stats;

  bool operator==(const StatsResult&) const = default;
};

using QueryResult =
    std::variant<NodeListResult, EdgeListResult, PageAccessorsResult,
                 HappensBeforeResult, RaceListResult, FlowResult,
                 CriticalPathResult, StatsResult>;

// --- pagination -------------------------------------------------------

/// Per-call knobs.
struct QueryOptions {
  /// 0 = return the whole answer in one reply. Otherwise list-shaped
  /// results are cut into pages of at most `page_size` items and a
  /// cursor is issued for the rest. The item space of a result is the
  /// concatenation of its lists in declaration order (e.g. a
  /// PageAccessorsResult's writers then readers), so a page boundary
  /// may fall between two lists; scalar results ignore pagination.
  std::uint64_t page_size = 0;
  /// Bypass the engine's result cache (the answer is still correct;
  /// this only forces recomputation).
  bool skip_cache = false;
};

/// One page of an answer. `result` holds at most page_size items;
/// `cursor` is nonzero while more pages remain and feeds
/// QueryEngine::next().
struct Reply {
  QueryResult result;
  std::uint64_t total_items = 0;  ///< item count of the full answer
  std::uint64_t cursor = 0;       ///< 0 = complete
  bool has_more = false;
  /// The backend skipped quarantined shards (opt-in degraded mode):
  /// the answer is a partial view of a damaged store, not the exact
  /// answer a healthy store would give. Serialized on the wire as
  /// "degraded":true; never set on replies from a healthy store.
  bool degraded = false;
};

/// Total item count of a full result (the paginated unit).
[[nodiscard]] std::uint64_t result_item_count(const QueryResult& result);

/// Items [offset, offset+count) of `full`, with scalar fields copied
/// through. Used by the engine's cursor machinery; exposed for tests.
[[nodiscard]] QueryResult result_slice(const QueryResult& full,
                                       std::uint64_t offset,
                                       std::uint64_t count);

}  // namespace inspector::query
