#include "query/engine.h"

#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/dispatch.h"
#include "query/overloaded.h"
#include "query/wire.h"
#include "util/parallel.h"

namespace inspector::query {

namespace {

using detail::Overloaded;

/// Result-cache capacity in entries, shared by every session.
constexpr std::size_t kCacheEntries = 128;

/// Normalize the page-set fields of a query, so order/duplicate
/// variants of the same request share one cache key and one dispatch
/// path.
Query canonicalized(Query q) {
  std::visit(Overloaded{
                 [](RacesQuery& r) { page_set_normalize(r.ignored_pages); },
                 [](TaintQuery& t) { page_set_normalize(t.seed_pages); },
                 [](InvalidateQuery& i) {
                   page_set_normalize(i.changed_pages);
                 },
                 [](auto&) {},
             },
             q);
  return q;
}

/// Per-query-kind registry handles, resolved once per kind: a lookup
/// is an index into this array plus one acquire load, so the metrics
/// cost on the execute path is two relaxed RMWs.
struct KindMetrics {
  obs::Counter* count;
  obs::Histogram* latency;
};

KindMetrics& kind_metrics(const Query& q) {
  static std::array<std::atomic<KindMetrics*>, std::variant_size_v<Query>>
      slots{};
  std::atomic<KindMetrics*>& slot = slots[q.index()];
  KindMetrics* m = slot.load(std::memory_order_acquire);
  if (m == nullptr) {
    auto& reg = obs::Registry::global();
    const std::string kind = query_name(q);
    auto* fresh = new KindMetrics{
        &reg.counter("query_total{kind=\"" + kind + "\"}"),
        &reg.histogram("query_latency_us{kind=\"" + kind + "\"}")};
    KindMetrics* expected = nullptr;
    if (slot.compare_exchange_strong(expected, fresh,
                                     std::memory_order_acq_rel)) {
      m = fresh;
    } else {
      delete fresh;  // lost the race; the registry handles are shared
      m = expected;
    }
  }
  return *m;
}

/// The in-memory backend: one immutable graph snapshot.
class GraphQueryBackend final : public QueryBackend {
 public:
  explicit GraphQueryBackend(std::shared_ptr<const cpg::Graph> graph)
      : graph_(graph ? std::move(graph)
                     : std::make_shared<const cpg::Graph>()) {}

  [[nodiscard]] Result<Execution> execute(const Query& q) const override {
    return detail::execute_on(analysis::GraphView(*graph_), q);
  }

 private:
  std::shared_ptr<const cpg::Graph> graph_;
};

}  // namespace

namespace detail {

Status cursor_not_found_error(std::uint64_t cursor) {
  return {StatusCode::kNotFound,
          "cursor " + std::to_string(cursor) +
              " was never issued by this session (or was "
              "evicted by the per-session cursor cap)"};
}

Status cursor_exhausted_error(std::uint64_t cursor) {
  return {StatusCode::kExhausted,
          "cursor " + std::to_string(cursor) + " is exhausted"};
}

}  // namespace detail

QueryEngine::QueryEngine(std::shared_ptr<const cpg::Graph> graph)
    : QueryEngine(
          std::make_shared<const GraphQueryBackend>(std::move(graph))) {}

QueryEngine::QueryEngine(std::shared_ptr<const QueryBackend> backend)
    : backend_(std::move(backend)) {
  if (!backend_) {
    backend_ = std::make_shared<const GraphQueryBackend>(nullptr);
  }
  sessions_.emplace(kDefaultSession, Session{});
}

QueryEngine::SessionId QueryEngine::open_session() {
  std::lock_guard lock(mu_);
  const SessionId id = next_session_id_++;
  sessions_.emplace(id, Session{});
  return id;
}

Status QueryEngine::close_session(SessionId session) {
  if (session == kDefaultSession) {
    return {StatusCode::kInvalidArgument,
            "the default session cannot be closed"};
  }
  std::lock_guard lock(mu_);
  if (sessions_.erase(session) == 0) {
    return {StatusCode::kNotFound,
            "unknown session " + std::to_string(session)};
  }
  return Status::Ok();
}

Result<QueryEngine::FullOutcome> QueryEngine::execute_full(
    const Query& q, const QueryOptions& options) {
  using FullResult = Result<FullOutcome>;
  KindMetrics& metrics = kind_metrics(q);
  obs::Span span("execute");
  if (span.active()) span.annotate("kind", std::string_view(query_name(q)));
  // Children (shard loads on this thread) parent under the execute
  // span; batch phase-1 runs on pool threads with no ambient context,
  // so the span roots a fresh trace there.
  obs::ContextScope trace_scope(span.context());
  const auto started = std::chrono::steady_clock::now();
  bool cache_hit = false;
  FullResult out = [&]() -> FullResult {
    const bool cacheable = !options.skip_cache;
    std::string key;
    try {
      const Query canonical = canonicalized(q);
      if (cacheable) {
        key = wire::cache_key(canonical);
        if (auto hit = cache_get(key)) {
          cache_hit = true;
          return FullResult(FullOutcome{std::move(hit), false});
        }
      }
      Result<Execution> computed = backend_->execute(canonical);
      if (!computed.ok()) return FullResult(computed.status());
      const bool degraded = computed->degraded;
      // Built non-const so a sole owner may later move the payload out
      // (paginate()'s unpaginated fast path); shared as pointer-to-const.
      auto value = std::make_shared<QueryResult>(
          std::move(computed.value().result));
      // A degraded answer is a view of a damaged store, not the answer:
      // caching it would keep serving the partial result even after the
      // store heals (or after healthy queries stop opting in).
      if (cacheable && !degraded) cache_put(key, value);
      return FullResult(FullOutcome{
          std::shared_ptr<const QueryResult>(std::move(value)), degraded});
    } catch (const std::exception& e) {
      return FullResult(StatusCode::kInternal,
                        std::string("unexpected exception: ") + e.what());
    } catch (...) {
      return FullResult(StatusCode::kInternal, "unexpected unknown exception");
    }
  }();
  const std::uint64_t wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  metrics.count->add();
  metrics.latency->observe(wall_us);
  if (span.active()) {
    span.annotate("cache", cache_hit ? std::string_view("hit")
                                     : std::string_view("miss"));
    if (!out.ok()) span.annotate("status", std::string_view("error"));
  }
  obs::Tracer::log_slow_query(query_name(q), wall_us,
                              out.ok() ? "ok" : "error");
  return out;
}

Result<Reply> QueryEngine::paginate(SessionId session,
                                    Result<FullOutcome> full,
                                    const QueryOptions& options) {
  if (!full.ok()) return full.status();
  const bool degraded = full->degraded;
  std::shared_ptr<const QueryResult> value = std::move(full).value().result;
  const std::uint64_t total = result_item_count(*value);
  Reply reply;
  reply.total_items = total;
  reply.degraded = degraded;
  if (options.page_size == 0 || total <= options.page_size) {
    if (value.use_count() == 1) {
      // Sole owner (cache bypassed or disabled): steal the payload
      // instead of deep-copying it. Legal: execute_full creates the
      // object non-const.
      reply.result = std::move(const_cast<QueryResult&>(*value));
    } else {
      reply.result = *value;  // copied outside the engine lock
    }
    return reply;
  }
  reply.result = result_slice(*value, 0, options.page_size);
  reply.has_more = true;
  Cursor cursor;
  cursor.full = std::move(value);
  cursor.offset = options.page_size;
  cursor.page_size = options.page_size;
  cursor.total = total;
  cursor.degraded = degraded;
  // Only the cursor registration needs the lock.
  std::lock_guard lock(mu_);
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return Status(StatusCode::kNotFound,
                  "unknown session " + std::to_string(session));
  }
  Session& s = it->second;
  const std::uint64_t id = s.next_cursor_id++;
  s.cursors.emplace(id, std::move(cursor));
  s.issue_order.push_back(id);
  while (s.issue_order.size() > kMaxSessionCursors) {
    s.cursors.erase(s.issue_order.front());
    s.issue_order.pop_front();
  }
  reply.cursor = id;
  return reply;
}

Result<Reply> QueryEngine::run(const Query& q, const QueryOptions& options) {
  return run(kDefaultSession, q, options);
}

Result<Reply> QueryEngine::run(SessionId session, const Query& q,
                               const QueryOptions& options) {
  // Reject unknown sessions before paying for the analysis. The
  // session can still disappear concurrently; the post-compute lookup
  // below stays authoritative.
  if (!session_exists(session)) {
    return Status(StatusCode::kNotFound,
                  "unknown session " + std::to_string(session));
  }
  return paginate(session, execute_full(q, options), options);
}

QueryEngine::Prepared QueryEngine::prepare(const Query& q,
                                           const QueryOptions& options) {
  return Prepared(execute_full(q, options), options);
}

Result<Reply> QueryEngine::finish(SessionId session, Prepared prepared) {
  if (!session_exists(session)) {
    return Status(StatusCode::kNotFound,
                  "unknown session " + std::to_string(session));
  }
  return paginate(session, std::move(prepared.full_), prepared.options_);
}

bool QueryEngine::session_exists(SessionId session) const {
  std::lock_guard lock(mu_);
  return sessions_.contains(session);
}

std::vector<Result<Reply>> QueryEngine::run_batch(
    SessionId session, std::span<const BatchItem> items) {
  if (!session_exists(session)) {
    std::vector<Result<Reply>> replies;
    replies.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      replies.emplace_back(Status(StatusCode::kNotFound,
                                  "unknown session " +
                                      std::to_string(session)));
    }
    return replies;
  }
  // Phase 1: fan the queries out over the analysis pool. Workers write
  // disjoint slots, so the full results are position-addressed and
  // order-independent; analyses underneath are themselves
  // deterministic at every worker count (and nested parallel_for calls
  // degrade to inline execution inside a chunk).
  using FullResult = Result<FullOutcome>;
  std::vector<std::optional<FullResult>> fulls(items.size());
  const auto pool = util::shared_pool();
  pool->parallel_for(0, items.size(), 1,
                     [&](std::size_t begin, std::size_t end, unsigned) {
                       for (std::size_t i = begin; i < end; ++i) {
                         fulls[i] =
                             execute_full(items[i].query, items[i].options);
                       }
                     });

  // Phase 2: serially, in request order, paginate and hand out cursor
  // ids -- the ids and page boundaries depend only on the request
  // sequence, never on the parallel schedule. Payload copies happen
  // unlocked; paginate() locks only to register a cursor.
  std::vector<Result<Reply>> replies;
  replies.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    replies.push_back(
        paginate(session, std::move(*fulls[i]), items[i].options));
  }
  return replies;
}

std::vector<Result<Reply>> QueryEngine::run_batch(
    SessionId session, std::span<const Query> queries,
    const QueryOptions& options) {
  std::vector<BatchItem> items;
  items.reserve(queries.size());
  for (const Query& q : queries) items.push_back(BatchItem{q, options});
  return run_batch(session, items);
}

Result<Reply> QueryEngine::next(SessionId session, std::uint64_t cursor) {
  // Advance the cursor state under the lock, but keep the payload
  // copy outside it (same discipline as paginate()): the shared_ptr
  // grabbed here keeps the full result alive past the drain reset.
  std::shared_ptr<const QueryResult> full;
  std::uint64_t offset = 0;
  std::uint64_t count = 0;
  Reply reply;
  {
    std::lock_guard lock(mu_);
    const auto sit = sessions_.find(session);
    if (sit == sessions_.end()) {
      return Status(StatusCode::kNotFound,
                    "unknown session " + std::to_string(session));
    }
    Session& s = sit->second;
    const auto cit = s.cursors.find(cursor);
    if (cit == s.cursors.end()) {
      return detail::cursor_not_found_error(cursor);
    }
    Cursor& c = cit->second;
    if (c.offset >= c.total) {
      return detail::cursor_exhausted_error(cursor);
    }
    full = c.full;
    offset = c.offset;
    count = std::min(c.page_size, c.total - c.offset);
    c.offset += count;
    reply.total_items = c.total;
    reply.has_more = c.offset < c.total;
    reply.cursor = reply.has_more ? cursor : 0;
    reply.degraded = c.degraded;
    if (!reply.has_more) {
      // Keep a tombstone (so reuse answers kExhausted, not kNotFound)
      // but release the full result; the issue-order cap in
      // paginate() eventually evicts the tombstone itself.
      c.full.reset();
    }
  }
  reply.result = result_slice(*full, offset, count);
  return reply;
}

QueryEngine::CacheStats QueryEngine::cache_stats() const {
  std::lock_guard lock(mu_);
  return cache_stats_;
}

std::shared_ptr<const QueryResult> QueryEngine::cache_get(
    const std::string& key) {
  static obs::Counter& hit_count =
      obs::Registry::global().counter("query_cache_hits_total");
  static obs::Counter& miss_count =
      obs::Registry::global().counter("query_cache_misses_total");
  std::lock_guard lock(mu_);
  const auto it = cache_.find(key);
  if (it == cache_.end()) {
    ++cache_stats_.misses;
    miss_count.add();
    return nullptr;
  }
  ++cache_stats_.hits;
  hit_count.add();
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  return it->second->value;
}

void QueryEngine::cache_put(const std::string& key,
                            std::shared_ptr<const QueryResult> value) {
  std::lock_guard lock(mu_);
  if (cache_.contains(key)) return;  // a concurrent miss computed it too
  cache_lru_.push_front(CacheEntry{key, std::move(value)});
  cache_.emplace(key, cache_lru_.begin());
  static obs::Counter& eviction_count =
      obs::Registry::global().counter("query_cache_evictions_total");
  while (cache_.size() > kCacheEntries) {
    cache_.erase(cache_lru_.back().key);
    cache_lru_.pop_back();
    ++cache_stats_.evictions;
    eviction_count.add();
  }
}

}  // namespace inspector::query
