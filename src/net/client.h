// Client side of the serving transport: connect to a socket, send
// request lines, read their replies back. A background reader thread
// reassembles chunked Data frames per stream, so callers can keep
// sending while replies stream in.
//
// Several threads may share one client. A stream id is allocated and
// its frames (trace context, then data) are written under one send
// lock, so ids reach the server strictly increasing; the reply lock is
// a separate one, so the reader never waits behind a blocked send.
// Each reply goes to whoever owns its stream: call() and wait() get
// their own stream's reply, next_reply() hands out the replies of
// send() streams in request order. A reply counts only once every
// frame of it arrived, so a dropped connection fails a call rather
// than returning part of a reply.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "net/uds.h"

namespace inspector::net {

class QueryClient {
 public:
  ~QueryClient();

  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  /// Dial a serving socket, trying up to `attempts` times with
  /// uds::Channel::connect_retry's back-off (the usual caller just
  /// forked the server).
  [[nodiscard]] static Result<std::unique_ptr<QueryClient>> connect(
      const std::string& path, int attempts = 100);

  /// Send one request line whose reply next_reply() delivers; returns
  /// the stream id it was assigned.
  [[nodiscard]] Result<std::uint64_t> send(std::string_view request_line);

  /// Block for the next reply of a send() stream, in request order.
  /// kUnavailable if the connection died first; kExhausted when every
  /// reply owed for the sends so far has been delivered and goodbye()
  /// completed.
  [[nodiscard]] Result<std::string> next_reply();

  /// Send one request line and block for that stream's reply, whatever
  /// other threads send meanwhile: start() followed by wait().
  [[nodiscard]] Result<std::string> call(std::string_view request_line);

  /// The two halves of call(), for a caller that must learn the stream
  /// id before it blocks (to forward a Cancel to it). wait() returns
  /// the reply; kUnavailable if the connection died first, kNotFound
  /// once cancel() dropped the stream (at once, without waiting for
  /// the server).
  [[nodiscard]] Result<std::uint64_t> start(std::string_view request_line);
  [[nodiscard]] Result<std::string> wait(std::uint64_t stream_id);

  /// Cancel a stream whose reply has not arrived: the server drops it,
  /// a wait() on it returns at once, and next_reply() skips it. A no-op
  /// for streams already answered.
  [[nodiscard]] Status cancel(std::uint64_t stream_id);

  /// Drain: tell the server no more requests are coming and wait for
  /// the connection to wind down. Replies still pending remain
  /// readable via next_reply().
  [[nodiscard]] Status goodbye();

 private:
  /// A stream whose reply is owed: assembled frame by frame.
  struct Pending {
    std::string reply;
    bool done = false;    ///< every frame arrived
    bool waited = false;  ///< start()ed: only wait() may take the reply
  };

  explicit QueryClient(std::shared_ptr<uds::Channel> channel);
  [[nodiscard]] Result<std::uint64_t> open_stream(std::string_view line,
                                                  bool waited);
  void read_loop();

  std::shared_ptr<uds::Channel> channel_;
  std::thread reader_;

  std::mutex send_mu_;  ///< orders id allocation with the frames on the wire
  std::uint64_t next_stream_ = 1;  ///< guarded by send_mu_

  std::mutex mu_;  ///< guards everything below
  std::condition_variable cv_;
  std::map<std::uint64_t, Pending> pending_;  ///< by stream id
  bool closed_ = false;  ///< reader exited
  Status error_;         ///< first transport/decode error, if any
};

}  // namespace inspector::net
