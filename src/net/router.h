// Shard-worker router: an rpc::Service that fans one client session
// out over per-shard-range worker processes and merges the reply
// streams back in request order.
//
// Routing reads only the store manifest: node-anchored queries go to
// the worker owning the node's shard, page queries to the worker owning
// the first shard that holds the page (the manifest's page table),
// global queries to a hash-picked worker. Every worker opens the full store (each under its own
// budget); the shard range is cache affinity, not a hard partition, so
// any worker can answer any query -- which is what makes failover
// possible.
//
// Each session talks to a worker over one QueryClient link, shared by
// the session's exec threads: a call gets its own stream's reply, and
// a Cancel from the client is forwarded to the worker and completes
// the waiting call at once, so a cancelled request never holds an exec
// thread.
//
// Cursor ids are virtualized: each worker hands out its own session's
// cursor ids, so the router renumbers them into a single per-client
// sequence in request order. The client sees exactly the id sequence
// the in-process engine would have produced, and "next" requests are
// translated back to the owning worker's local id. Cursor translation
// lives entirely in finalizers (serial per connection), so it needs no
// locking and stays deterministic.
//
// A worker that dies (crash, kill, failpoint abort) turns into EOF on
// its link: in-flight calls fail over (--allow-degraded) or come back
// as typed kUnavailable replies -- never a hang, never a hybrid
// stream, because a reply is only used when every one of its frames
// arrived. Dead workers are remembered service-wide (sticky, like
// shard quarantine): restart the router to lift it. Only a failed
// call marks a worker dead; a session closing its links or a client
// cancelling a call does not.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/rpc.h"
#include "query/query.h"
#include "shard/format.h"
#include "util/status.h"

namespace inspector::net {

struct WorkerEndpoint {
  std::string socket_path;
  /// Shard range [shard_lo, shard_hi) this worker prefers.
  std::uint32_t shard_lo = 0;
  std::uint32_t shard_hi = 0;
};

struct RouterOptions {
  /// Fail queries of a dead worker over to the next live one instead
  /// of answering kUnavailable. Cursors die with their worker either
  /// way ("next" on them is kUnavailable: the paginated result lived
  /// in the dead process).
  bool allow_degraded = false;
};

class RouterService final : public rpc::Service {
 public:
  RouterService(shard::Manifest manifest, std::vector<WorkerEndpoint> workers,
                RouterOptions options = {});

  [[nodiscard]] std::unique_ptr<rpc::Session> open_session() override;
  [[nodiscard]] rpc::Finalizer handle(rpc::Session& session,
                                      const rpc::Context& ctx,
                                      std::string_view line) override;

 private:
  friend class RouterSession;

  /// The typed reply status for requests owed to a dead worker.
  [[nodiscard]] Status worker_unavailable(std::size_t worker) const;
  /// The sticky service-wide death ledger.
  [[nodiscard]] bool is_dead(std::size_t worker) const {
    return dead_[worker].load(std::memory_order_relaxed);
  }
  void mark_dead(std::size_t worker);
  /// Preferred worker for a query, by manifest routing.
  [[nodiscard]] std::size_t route(const query::Query& q) const;
  /// Next live worker after `from` in ring order; workers_.size() if
  /// every worker is dead.
  [[nodiscard]] std::size_t next_live(std::size_t from) const;

  shard::Manifest manifest_;
  shard::PageTable page_table_;
  std::vector<WorkerEndpoint> workers_;
  RouterOptions options_;
  std::vector<std::uint32_t> shard_to_worker_;
  std::unique_ptr<std::atomic<bool>[]> dead_;
};

}  // namespace inspector::net
