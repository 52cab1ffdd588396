#include "net/router.h"

#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <variant>

#include "net/client.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "query/overloaded.h"
#include "query/wire.h"

namespace inspector::net {

namespace {

using query::Query;
using query::Reply;
using query::wire::MetricsRequest;
using query::wire::NextRequest;

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string error_reply(std::uint64_t echo, Status status) {
  return query::wire::serialize_reply(echo, Result<Reply>(std::move(status)));
}

/// Status name inside a reply line, e.g. `"status":"not_found"`.
bool reply_has_status(std::string_view reply, std::string_view name) {
  std::string key = "\"status\":\"";
  key += name;
  key += "\"";
  return reply.find(key) != std::string_view::npos;
}

/// Swap the cursor id in a reply for `id` and return the id it
/// replaced; nullopt when the reply issues no cursor. The reply header
/// is `...,"has_more":true,"cursor":<id>` before any payload field, so
/// the first match is the header.
std::optional<std::uint64_t> swap_cursor(std::string& reply,
                                         std::uint64_t id) {
  static constexpr std::string_view kKey = "\"has_more\":true,\"cursor\":";
  const std::size_t at = reply.find(kKey);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t digits_at = at + kKey.size();
  std::size_t digits_end = digits_at;
  while (digits_end < reply.size() && reply[digits_end] >= '0' &&
         reply[digits_end] <= '9') {
    ++digits_end;
  }
  const std::uint64_t replaced =
      std::stoull(reply.substr(digits_at, digits_end - digits_at));
  reply.replace(digits_at, digits_end - digits_at, std::to_string(id));
  return replaced;
}

}  // namespace

/// Per-connection router state: lazy worker links, where each stream
/// was forwarded (for Cancel), and the cursor translation table
/// (finalizer-only, hence unlocked).
class RouterSession final : public rpc::Session {
 public:
  explicit RouterSession(RouterService& owner)
      : owner_(owner), links_(owner.workers_.size()) {}

  void on_cancel(std::uint64_t stream_id) override {
    Forwarded forwarded;
    {
      std::lock_guard lock(routes_mu_);
      const auto it = routes_.find(stream_id);
      if (it == routes_.end()) return;  // not out at a worker
      forwarded = it->second;
    }
    // A link outlives the session's calls, and cancelling a stream
    // that was answered meanwhile is a no-op.
    (void)forwarded.link->cancel(forwarded.link_stream);
  }

  struct Dispatched {
    Result<std::string> reply;
    std::size_t worker;
  };

  /// Send `line` to the preferred worker, failing over to the next
  /// live one when degraded serving is allowed. Every worker is tried
  /// at most once; the typed error names the last worker tried.
  [[nodiscard]] Dispatched dispatch(const rpc::Context& ctx,
                                    std::string_view line,
                                    std::size_t preferred) {
    const std::size_t workers = owner_.workers_.size();
    std::size_t worker = preferred;
    for (std::size_t attempt = 0; attempt < workers; ++attempt) {
      if (owner_.is_dead(worker)) {
        if (!owner_.options_.allow_degraded) {
          return {owner_.worker_unavailable(worker), worker};
        }
        const std::size_t live = owner_.next_live(worker);
        if (live == workers) return {owner_.worker_unavailable(worker), worker};
        worker = live;
      }
      auto reply = forward(ctx, worker, line);
      if (reply.ok() || !owner_.options_.allow_degraded ||
          ctx.is_cancelled()) {
        return {std::move(reply), worker};
      }
      // Degraded: the worker died under this call; re-dispatch. The
      // query re-runs from scratch on the next worker, so the reply is
      // always one worker's complete answer -- never a hybrid.
    }
    return {owner_.worker_unavailable(preferred), preferred};
  }

  /// A "next" on a session cursor. Runs in the finalizer: the cursor
  /// table is only consistent once every earlier query's finalizer has
  /// run, and "next" acts as the same barrier it is in batch mode.
  [[nodiscard]] std::string next_page(const rpc::Context& ctx,
                                      std::uint64_t echo,
                                      std::uint64_t global) {
    const auto it = cursors_.find(global);
    if (it == cursors_.end()) {
      return error_reply(echo, query::detail::cursor_not_found_error(global));
    }
    const CursorRef ref = it->second;
    // The paginated result lives in the owning worker; a dead worker
    // means the cursor state is gone, degraded serving or not.
    if (owner_.is_dead(ref.worker)) {
      return error_reply(echo, owner_.worker_unavailable(ref.worker));
    }
    auto reply = forward(ctx, ref.worker,
                         "{\"id\":" + std::to_string(echo) +
                             ",\"op\":\"next\",\"cursor\":" +
                             std::to_string(ref.local) + "}");
    if (!reply.ok()) return error_reply(echo, reply.status());
    // Translate the worker's local cursor id (and its id-bearing
    // errors) back into the global id the client knows.
    if (reply_has_status(*reply, "not_found")) {
      return error_reply(echo, query::detail::cursor_not_found_error(global));
    }
    if (reply_has_status(*reply, "exhausted")) {
      return error_reply(echo, query::detail::cursor_exhausted_error(global));
    }
    std::string out = std::move(reply).value();
    (void)swap_cursor(out, global);
    return out;
  }

  /// Rewrite a worker reply's cursor id into the session's own id
  /// space, in request order (finalizer-only).
  [[nodiscard]] std::string virtualize_cursor(std::string reply,
                                              std::size_t worker) {
    if (const auto local = swap_cursor(reply, next_cursor_)) {
      cursors_[next_cursor_++] = CursorRef{worker, *local};
    }
    return reply;
  }

 private:
  /// Where a router stream went while its call is out at a worker.
  struct Forwarded {
    QueryClient* link = nullptr;
    std::uint64_t link_stream = 0;
  };
  /// A worker link, dialled on first use under its own lock: only
  /// requests bound for that worker wait out its connect retries.
  struct Link {
    std::mutex mu;
    std::unique_ptr<QueryClient> client;  ///< set once, guarded by mu
  };
  struct CursorRef {
    std::size_t worker = 0;
    std::uint64_t local = 0;
  };

  /// Forward one line to `worker` and block for its complete reply. A
  /// failed link marks the worker dead and yields the typed status
  /// naming it; a cancelled call does not mark it -- its reply was
  /// never going to come.
  [[nodiscard]] Result<std::string> forward(const rpc::Context& ctx,
                                            std::size_t worker,
                                            std::string_view line) {
    Result<std::string> reply = owner_.worker_unavailable(worker);
    if (QueryClient* client = link(worker)) {
      if (const auto stream = client->start(line); stream.ok()) {
        {
          std::lock_guard lock(routes_mu_);
          routes_[ctx.stream_id] = Forwarded{client, *stream};
        }
        // A Cancel that arrived before the route was recorded found
        // nothing to forward.
        if (ctx.is_cancelled()) (void)client->cancel(*stream);
        reply = client->wait(*stream);
        std::lock_guard lock(routes_mu_);
        routes_.erase(ctx.stream_id);
      }
    }
    if (reply.ok()) return reply;
    if (!ctx.is_cancelled()) owner_.mark_dead(worker);
    return owner_.worker_unavailable(worker);
  }

  /// The session's link to `worker`, dialled on first use; nullptr when
  /// the worker cannot be reached.
  [[nodiscard]] QueryClient* link(std::size_t worker) {
    Link& slot = links_[worker];
    std::lock_guard lock(slot.mu);
    if (!slot.client && !owner_.is_dead(worker)) {
      auto client =
          QueryClient::connect(owner_.workers_[worker].socket_path, 40);
      // Marked under the link's lock, so the calls queued behind this
      // dial see the worker dead instead of retrying it themselves.
      if (!client.ok()) {
        owner_.mark_dead(worker);
      } else {
        slot.client = std::move(client).value();
      }
    }
    return slot.client.get();
  }

  RouterService& owner_;

  std::vector<Link> links_;  ///< by worker; sized once, never resized

  std::mutex routes_mu_;
  std::unordered_map<std::uint64_t, Forwarded> routes_;

  // Written and read only from finalizers, which the dispatcher runs
  // serially on one thread per connection.
  std::uint64_t next_cursor_ = 1;
  std::unordered_map<std::uint64_t, CursorRef> cursors_;
};

RouterService::RouterService(shard::Manifest manifest,
                             std::vector<WorkerEndpoint> workers,
                             RouterOptions options)
    : manifest_(std::move(manifest)),
      page_table_(manifest_),
      workers_(std::move(workers)),
      options_(options),
      dead_(new std::atomic<bool>[workers_.size()]) {
  for (std::size_t w = 0; w < workers_.size(); ++w) dead_[w].store(false);
  shard_to_worker_.assign(manifest_.shard_count, 0);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    for (std::uint32_t s = workers_[w].shard_lo;
         s < workers_[w].shard_hi && s < manifest_.shard_count; ++s) {
      shard_to_worker_[s] = static_cast<std::uint32_t>(w);
    }
  }
}

std::unique_ptr<rpc::Session> RouterService::open_session() {
  return std::make_unique<RouterSession>(*this);
}

rpc::Finalizer RouterService::handle(rpc::Session& session,
                                     const rpc::Context& ctx,
                                     std::string_view line) {
  auto& s = static_cast<RouterSession&>(session);
  std::uint64_t echo = 0;
  auto request = query::wire::parse_request(line, &echo);
  if (!request.ok()) {
    return [echo, status = request.status()] {
      return error_reply(echo, status);
    };
  }
  if (const auto* next = std::get_if<NextRequest>(&request->op)) {
    return [&s, ctx, echo, global = next->cursor] {
      return s.next_page(ctx, echo, global);
    };
  }
  if (std::holds_alternative<MetricsRequest>(request->op)) {
    // Introspection: the router answers with its own registry snapshot
    // (worker registries are reachable by asking a worker directly).
    std::string json = obs::to_json(obs::Registry::global().snapshot());
    return [echo, json = std::move(json)] {
      return query::wire::serialize_metrics_reply(echo, json);
    };
  }
  // Phase 1 (concurrent): forward the original bytes and await the
  // complete worker reply (or fail over). Phase 2 (serial): assign the
  // session cursor id, which must follow request order.
  auto dispatched = [&] {
    obs::Span span("route", obs::Span::Root::kDeny);
    auto d = s.dispatch(ctx, line, route(std::get<Query>(request->op)));
    if (span.active()) {
      span.annotate("worker", static_cast<std::uint64_t>(d.worker));
    }
    return d;
  }();
  return [&s, echo, dispatched = std::move(dispatched)]() mutable {
    if (!dispatched.reply.ok()) {
      return error_reply(echo, dispatched.reply.status());
    }
    return s.virtualize_cursor(std::move(dispatched.reply).value(),
                               dispatched.worker);
  };
}

void RouterService::mark_dead(std::size_t worker) {
  if (!dead_[worker].exchange(true, std::memory_order_relaxed)) {
    static obs::Counter& deaths =
        obs::Registry::global().counter("router_worker_deaths_total");
    deaths.add();
  }
}

Status RouterService::worker_unavailable(std::size_t worker) const {
  const WorkerEndpoint& ep = workers_[worker];
  return Status(StatusCode::kUnavailable,
                "worker " + std::to_string(worker) + " (shards [" +
                    std::to_string(ep.shard_lo) + ", " +
                    std::to_string(ep.shard_hi) + ")) is unavailable");
}

std::size_t RouterService::next_live(std::size_t from) const {
  for (std::size_t step = 1; step <= workers_.size(); ++step) {
    const std::size_t w = (from + step) % workers_.size();
    if (!is_dead(w)) return w;
  }
  return workers_.size();
}

std::size_t RouterService::route(const query::Query& q) const {
  // Out-of-range nodes and pages no shard holds fall back to the hash
  // route; the chosen worker answers them with the usual typed error.
  const auto by_hash = [&]() -> std::size_t {
    return static_cast<std::size_t>(fnv1a64(query::wire::serialize_query(q)) %
                                    workers_.size());
  };
  const auto by_node = [&](cpg::NodeId node) -> std::size_t {
    if (node < manifest_.node_shard.size() &&
        manifest_.node_shard[node] < shard_to_worker_.size()) {
      return shard_to_worker_[manifest_.node_shard[node]];
    }
    return by_hash();
  };
  const auto by_page = [&](std::uint64_t page) -> std::size_t {
    if (const auto idx = page_index(manifest_.pages, page)) {
      const auto holders = page_table_.holders(*idx);
      if (!holders.empty() &&
          holders.front().shard < shard_to_worker_.size()) {
        return shard_to_worker_[holders.front().shard];
      }
    }
    return by_hash();
  };
  return std::visit(
      query::detail::Overloaded{
          [&](const query::BackwardSliceQuery& v) { return by_node(v.node); },
          [&](const query::ForwardSliceQuery& v) { return by_node(v.node); },
          [&](const query::LatestWritersQuery& v) { return by_node(v.node); },
          [&](const query::DataDependenciesQuery& v) {
            return by_node(v.node);
          },
          [&](const query::PageAccessorsQuery& v) { return by_page(v.page); },
          [&](const query::HappensBeforeQuery& v) { return by_node(v.first); },
          [&](const auto&) { return by_hash(); },
      },
      q);
}

}  // namespace inspector::net
