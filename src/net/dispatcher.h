// Per-connection stream multiplexer and the accept loop around it.
//
// A Dispatcher owns one connection: its reader loop (run on the
// calling thread) reassembles request streams, a small pool runs the
// service's phase-1 handle() concurrently, and a single writer
// thread runs phase-2 finalizers serially in request-arrival order and
// emits the replies -- chunked into Data frames, interleaved at frame
// boundaries, each stream closed with kFlagEndStream. Cancel tears one
// stream down (its reply is never sent, neighbours are untouched);
// Goodbye drains in-flight streams, answers with Goodbye, and closes.
// Settings and Ping frames are reserved in format 1 and ignored.
//
// The serial finalizer phase is the cross-process determinism anchor:
// cursor ids and reply order depend only on the request sequence,
// exactly as in QueryEngine::run_batch, so a served session is
// byte-identical to the in-process engine.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/rpc.h"
#include "net/uds.h"
#include "obs/trace.h"

namespace inspector::net {

struct DispatcherOptions {
  /// Concurrent phase-1 executions per connection.
  std::size_t worker_threads = 4;
  /// Replies larger than this are split across Data frames.
  std::uint32_t max_frame_payload = 1u << 20;
};

class Dispatcher {
 public:
  Dispatcher(std::shared_ptr<uds::Channel> channel, rpc::Service& service,
             DispatcherOptions options = {});
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Serve the connection to completion: until the peer disconnects,
  /// a Goodbye handshake finishes, or a protocol/transport error.
  /// Runs the reader loop on the calling thread. Ok after a clean EOF
  /// or Goodbye; the first fatal error otherwise.
  [[nodiscard]] Status serve();

 private:
  struct Stream {
    std::uint64_t id = 0;
    std::string request;
    std::atomic<bool> cancelled{false};
    bool ready = false;  ///< finalizer present (guarded by mu_)
    rpc::Finalizer finalizer;
    /// Peer trace context from a kTrace frame (unsampled when absent).
    obs::TraceContext trace;
    /// Server-side span for this request; created at admission (only
    /// when tracing is on), finished by the writer after the reply is
    /// on the wire -- never inside the serial finalizer phase.
    std::unique_ptr<obs::Span> span;
    std::chrono::steady_clock::time_point admitted{};
  };

  void read_loop();
  void exec_loop();
  void write_loop();
  [[nodiscard]] bool handle_data(const Frame& frame);
  void admit(std::shared_ptr<Stream> stream);
  /// Record the first fatal status and start teardown.
  void fail(Status status);
  Status send_reply(std::uint64_t stream_id, const std::string& reply);

  std::shared_ptr<uds::Channel> channel_;
  rpc::Service& service_;
  DispatcherOptions options_;
  std::unique_ptr<rpc::Session> session_;

  std::mutex mu_;
  std::condition_variable exec_cv_;   ///< pool threads wait for work
  std::condition_variable write_cv_;  ///< writer waits for head-ready
  std::condition_variable admit_cv_;  ///< reader waits for capacity
  std::deque<std::shared_ptr<Stream>> order_;      ///< writer's queue
  std::deque<std::shared_ptr<Stream>> exec_queue_;  ///< pool's queue
  std::unordered_map<std::uint64_t, std::shared_ptr<Stream>> live_;
  bool reader_done_ = false;  ///< no more admissions
  bool goodbye_ = false;      ///< drain, then answer Goodbye
  bool peer_gone_ = false;    ///< EOF without Goodbye: drop, don't send
  bool failed_ = false;
  Status status_;

  // Reassembly state of the one request currently arriving (requests
  // are contiguous per stream; replies interleave, requests do not).
  std::string partial_;
  std::uint64_t partial_id_ = 0;
  bool partial_open_ = false;
  std::uint64_t skip_id_ = 0;  ///< cancelled mid-request: drop its tail
  std::uint64_t last_stream_id_ = 0;

  // Trace context announced by the latest kTrace frame, waiting for
  // its stream's data to complete. One slot suffices -- requests are
  // contiguous per stream -- so a peer cannot grow state here.
  obs::TraceContext pending_trace_;
  std::uint64_t pending_trace_id_ = 0;
};

/// Accept loop: one Dispatcher (on its own thread) per connection.
class ServeLoop {
 public:
  ServeLoop(uds::Server server, rpc::Service& service,
            DispatcherOptions options = {});
  ~ServeLoop();

  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  void start();
  /// Close the listener, shut every connection down, join all threads.
  /// Over AF_UNIX an abrupt shutdown and a killed process look the
  /// same to the peer -- EOF mid-stream, surfaced as kUnavailable --
  /// so this doubles as stop() and as the tests' worker-kill seam.
  void stop();
  /// Alias of stop() under its test-seam name.
  void abort() { stop(); }

  [[nodiscard]] const std::string& path() const noexcept {
    return server_.path();
  }

 private:
  uds::Server server_;
  rpc::Service& service_;
  DispatcherOptions options_;

  std::thread accept_thread_;
  std::mutex mu_;  ///< guards channels_ and conn_threads_
  std::vector<std::shared_ptr<uds::Channel>> channels_;
  std::vector<std::thread> conn_threads_;
  std::atomic<bool> stopped_{false};
};

}  // namespace inspector::net
