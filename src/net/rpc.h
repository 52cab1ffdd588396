// RPC vocabulary between the frame transport and the query engine.
//
// A Service is the per-process application: it opens one Session per
// connection (the query layer keeps a QueryEngine session in there;
// the router keeps its worker links) and answers each request line
// with handle(), which parses the line once and branches on its op.
// The dispatcher calls handle() directly; inspector_query's stdin and
// --requests modes call the same QueryService in process.
//
// A request runs in two phases, mirroring QueryEngine::run_batch:
//
//   phase 1  handle(). Runs concurrently (dispatcher exec threads, or
//            the analysis pool in batch mode); does the heavy analysis
//            and returns a Finalizer.
//   phase 2  the Finalizer. Runs serially, in request-arrival order,
//            and returns the reply bytes to send.
//
// Everything order-sensitive -- cursor id assignment, reply emission --
// belongs in the finalizer; that is what keeps a served session's
// reply stream byte-identical to the in-process engine's.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

namespace inspector::net::rpc {

/// Per-request context handed to handle().
struct Context {
  std::uint64_t stream_id = 0;
  /// Set once a Cancel frame for this stream has arrived. Long phase-1
  /// bodies may poll it and bail out early; the dispatcher never sends
  /// a reply for a cancelled stream either way.
  const std::atomic<bool>* cancelled = nullptr;

  [[nodiscard]] bool is_cancelled() const noexcept {
    return cancelled != nullptr &&
           cancelled->load(std::memory_order_relaxed);
  }
};

/// Per-connection service state; destroyed when the connection ends.
class Session {
 public:
  virtual ~Session() = default;

  /// Called (from the connection's reader thread) when a stream is
  /// cancelled, so a session that delegated the request elsewhere can
  /// propagate the cancel.
  virtual void on_cancel(std::uint64_t /*stream_id*/) {}
};

/// Phase 2 of a request; see the file comment.
using Finalizer = std::function<std::string()>;

class Service {
 public:
  virtual ~Service() = default;

  [[nodiscard]] virtual std::unique_ptr<Session> open_session() = 0;

  /// Phase 1 of one request; see the file comment. `line` is only
  /// valid for the duration of the call. A malformed line is answered
  /// like any other request: its finalizer returns the error reply.
  [[nodiscard]] virtual Finalizer handle(Session& session, const Context& ctx,
                                         std::string_view line) = 0;
};

}  // namespace inspector::net::rpc
