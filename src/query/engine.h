// QueryEngine -- the one front door to the provenance analyses.
//
// An engine wraps a QueryBackend -- usually an immutable cpg::Graph
// snapshot (shared_ptr, so a serving process can hot-swap snapshots
// while in-flight queries keep theirs), alternatively the out-of-core
// sharded store -- and executes Query variants against it: validation
// up front, typed Status instead of exceptions, a per-engine result
// cache, and batched fan-out over the shared util::TaskPool with the
// analysis runtime's determinism contract -- run_batch() output,
// including cursor page boundaries, is bit-identical at every worker
// count and at every backend. Each query kind is computed once, by a
// kernel in analysis/kernels.h over whichever storage view the backend
// presents; the backends differ only in that view.
//
// Sessions scope cursors: each session has its own cursor id space,
// ids are handed out in request order (deterministic), and closing a
// session drops its cursors. The result cache is engine-wide and
// shared by all sessions.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cpg/graph.h"
#include "query/query.h"
#include "util/status.h"

namespace inspector::query {

/// A backend's full, unpaginated answer. `degraded` is set only by
/// backends that (on explicit opt-in) skipped quarantined shards: the
/// result is then a partial view, and the engine neither caches it nor
/// lets it masquerade as a complete reply on the wire.
struct Execution {
  QueryResult result;
  bool degraded = false;
};

/// Where the answers come from. The engine owns everything
/// backend-independent -- canonicalization, the result cache, sessions,
/// cursors, pagination, batched fan-out -- and delegates execution to a
/// backend: an immutable in-memory cpg::Graph snapshot or the
/// out-of-core sharded store (shard::ShardedQueryEngine). Both run one
/// per-kind dispatch (query/dispatch.h) over a storage view of their
/// data, so they return the exact same QueryResult payloads and Status
/// messages for the same graph, and a reply stream never reveals which
/// backend served it.
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  /// Validate + execute one canonicalized query (page-set fields
  /// sorted/deduplicated) to its full, unpaginated result. Must be
  /// safe to call concurrently. May throw on infrastructure failures
  /// (e.g. shard file IO); the engine converts escapes to kInternal.
  [[nodiscard]] virtual Result<Execution> execute(const Query& q) const = 0;
};

namespace detail {
/// Cursor lifecycle errors, shared with the serving router: when the
/// router rewrites a worker-local cursor id into its own id space it
/// must synthesize the exact bytes the engine would have produced.
[[nodiscard]] Status cursor_not_found_error(std::uint64_t cursor);
[[nodiscard]] Status cursor_exhausted_error(std::uint64_t cursor);
}  // namespace detail

class QueryEngine {
 public:
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  using SessionId = std::uint64_t;
  /// Always open; cursors of callers that never open_session() live
  /// here.
  static constexpr SessionId kDefaultSession = 0;

 private:
  /// A full result plus its degraded marker (shared_ptr so cursors and
  /// the cache alias one payload; degraded results are never cached).
  struct FullOutcome {
    std::shared_ptr<const QueryResult> result;
    bool degraded = false;
  };

 public:
  /// The two-phase form of run(), for callers that overlap many
  /// queries but need cursor ids handed out in request order (the
  /// socket dispatcher): prepare() does the heavy analysis and may run
  /// concurrently; finish() cuts the first page and registers the
  /// cursor, and must be called serially in the order replies are
  /// owed. run() == finish(session, prepare(q, options)).
  class Prepared {
   public:
    Prepared(Prepared&&) = default;
    Prepared(const Prepared&) = default;
    Prepared& operator=(Prepared&&) = default;
    Prepared& operator=(const Prepared&) = default;

   private:
    friend class QueryEngine;
    Prepared(Result<FullOutcome> full, QueryOptions options)
        : full_(std::move(full)), options_(options) {}

    Result<FullOutcome> full_;
    QueryOptions options_;
  };

  explicit QueryEngine(std::shared_ptr<const cpg::Graph> graph);
  /// Serve from an arbitrary backend (the sharded store).
  explicit QueryEngine(std::shared_ptr<const QueryBackend> backend);

  virtual ~QueryEngine() = default;
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Open an isolated cursor namespace. Never fails.
  [[nodiscard]] SessionId open_session();
  /// Drop a session and its cursors. kNotFound for unknown ids;
  /// the default session cannot be closed (kInvalidArgument).
  Status close_session(SessionId session);

  /// Execute one query. On success the Reply holds the first (or only)
  /// page; errors come back as Status, never exceptions.
  [[nodiscard]] Result<Reply> run(const Query& q,
                                  const QueryOptions& options = {});
  [[nodiscard]] Result<Reply> run(SessionId session, const Query& q,
                                  const QueryOptions& options = {});

  /// Phase 1: validate + execute to the full result (cache-aware,
  /// safe to call concurrently). Never touches session state.
  [[nodiscard]] Prepared prepare(const Query& q,
                                 const QueryOptions& options = {});
  /// Phase 2: paginate a prepared result and (if it spans pages)
  /// register its cursor with `session`. Call in request order.
  [[nodiscard]] Result<Reply> finish(SessionId session, Prepared prepared);

  /// One batch entry: a query plus its own pagination/cache knobs.
  struct BatchItem {
    Query query;
    QueryOptions options;
  };

  /// Execute a batch: queries fan out over the shared analysis pool,
  /// replies come back in request order with per-query statuses (a bad
  /// query never poisons its neighbours). Cursor ids are assigned in
  /// request order after the parallel phase, so the full reply
  /// sequence -- page contents and boundaries included -- is
  /// bit-identical at every worker count.
  [[nodiscard]] std::vector<Result<Reply>> run_batch(
      SessionId session, std::span<const BatchItem> items);
  /// Convenience: the same options for every query.
  [[nodiscard]] std::vector<Result<Reply>> run_batch(
      SessionId session, std::span<const Query> queries,
      const QueryOptions& options = {});

  /// Fetch the next page of a cursor issued by this session.
  /// kNotFound for a cursor this session never issued, kExhausted once
  /// every page has been consumed (the cursor stays addressable until
  /// its session closes).
  [[nodiscard]] Result<Reply> next(SessionId session, std::uint64_t cursor);
  [[nodiscard]] Result<Reply> next(std::uint64_t cursor) {
    return next(kDefaultSession, cursor);
  }

  [[nodiscard]] CacheStats cache_stats() const;

 private:
  struct Cursor {
    std::shared_ptr<const QueryResult> full;  ///< null once drained
    std::uint64_t offset = 0;
    std::uint64_t page_size = 0;
    std::uint64_t total = 0;
    bool degraded = false;  ///< every page inherits the marker
  };
  struct Session {
    std::uint64_t next_cursor_id = 1;
    std::unordered_map<std::uint64_t, Cursor> cursors;
    /// Cursor ids in issue order. A long-lived serving session must
    /// not grow without bound -- neither via abandoned live cursors
    /// (each pins its full result) nor via drained tombstones -- so
    /// past kMaxSessionCursors the oldest cursors are evicted
    /// outright; their ids then answer kNotFound like never-issued
    /// ids. Drained cursors stay as payload-free tombstones (reuse
    /// answers kExhausted) until evicted by the same cap.
    std::deque<std::uint64_t> issue_order;
  };
  static constexpr std::size_t kMaxSessionCursors = 1024;

  /// Validate + execute one query to its full (unpaginated) result.
  [[nodiscard]] Result<FullOutcome> execute_full(const Query& q,
                                                 const QueryOptions& options);

  /// Cut the first page (payload copies happen outside the engine
  /// lock; only cursor registration locks). Called serially in request
  /// order, so cursor ids are deterministic.
  [[nodiscard]] Result<Reply> paginate(SessionId session,
                                       Result<FullOutcome> full,
                                       const QueryOptions& options);

  [[nodiscard]] bool session_exists(SessionId session) const;

  [[nodiscard]] std::shared_ptr<const QueryResult> cache_get(
      const std::string& key);
  void cache_put(const std::string& key,
                 std::shared_ptr<const QueryResult> value);

  std::shared_ptr<const QueryBackend> backend_;

  mutable std::mutex mu_;  ///< guards sessions_ and the cache
  std::unordered_map<SessionId, Session> sessions_;
  SessionId next_session_id_ = 1;

  // LRU result cache: list front = most recent; map values point into
  // the list.
  struct CacheEntry {
    std::string key;
    std::shared_ptr<const QueryResult> value;
  };
  std::list<CacheEntry> cache_lru_;
  std::unordered_map<std::string, std::list<CacheEntry>::iterator> cache_;
  CacheStats cache_stats_;
};

}  // namespace inspector::query
