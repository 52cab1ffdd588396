#include "net/dispatcher.h"

#include <algorithm>
#include <exception>

#include "obs/metrics.h"

namespace inspector::net {

namespace {

/// Per-process dispatcher series, shared by every connection.
struct DispatcherMetrics {
  obs::Counter& streams;
  obs::Counter& connection_errors;
  obs::Gauge& finalizer_queue_depth;
  obs::Histogram& stream_wall_us;  ///< admission -> reply on the wire
  obs::Histogram& finalize_us;
};

DispatcherMetrics& dispatcher_metrics() {
  static DispatcherMetrics* m = [] {
    auto& reg = obs::Registry::global();
    return new DispatcherMetrics{
        reg.counter("net_streams_total"),
        reg.counter("net_connection_errors_total"),
        reg.gauge("net_finalizer_queue_depth"),
        reg.histogram("net_stream_wall_us"),
        reg.histogram("net_finalize_us"),
    };
  }();
  return *m;
}

/// Streams admitted before the reader stops reading (backpressure: the
/// client's sends eventually block).
constexpr std::size_t kMaxInFlight = 1024;

}  // namespace

Dispatcher::Dispatcher(std::shared_ptr<uds::Channel> channel,
                       rpc::Service& service, DispatcherOptions options)
    : channel_(std::move(channel)), service_(service), options_(options) {}

Dispatcher::~Dispatcher() = default;

Status Dispatcher::serve() {
  session_ = service_.open_session();
  std::thread writer(&Dispatcher::write_loop, this);
  std::vector<std::thread> pool;
  const std::size_t workers = std::max<std::size_t>(1, options_.worker_threads);
  pool.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    pool.emplace_back(&Dispatcher::exec_loop, this);
  }

  read_loop();

  {
    std::lock_guard lock(mu_);
    reader_done_ = true;
  }
  exec_cv_.notify_all();
  write_cv_.notify_all();
  for (auto& t : pool) t.join();
  writer.join();
  session_.reset();  // closes the engine session / worker channels

  std::lock_guard lock(mu_);
  return failed_ ? status_ : Status::Ok();
}

void Dispatcher::read_loop() {
  for (;;) {
    auto got = channel_->recv();
    {
      std::lock_guard lock(mu_);
      if (failed_) return;
    }
    if (!got.ok()) {
      {
        std::lock_guard lock(mu_);
        // After the writer answers Goodbye it shuts the channel down;
        // the recv error that wakes us is the handshake completing.
        if (goodbye_) return;
      }
      fail(got.status());
      return;
    }
    if (!got->has_value()) {  // EOF at a frame boundary
      {
        std::lock_guard lock(mu_);
        if (!goodbye_) peer_gone_ = true;
      }
      exec_cv_.notify_all();
      write_cv_.notify_all();
      admit_cv_.notify_all();
      return;
    }
    const Frame& frame = **got;
    switch (frame.header.type) {
      case FrameType::kData:
        if (!handle_data(frame)) return;
        break;
      case FrameType::kCancel: {
        const std::uint64_t id = frame.header.stream_id;
        std::shared_ptr<Stream> target;
        {
          std::lock_guard lock(mu_);
          if (partial_open_ && partial_id_ == id) {
            partial_open_ = false;
            partial_.clear();
            skip_id_ = id;
            break;
          }
          const auto it = live_.find(id);
          if (it != live_.end()) {
            it->second->cancelled.store(true, std::memory_order_relaxed);
            target = it->second;
          }
        }
        if (target) {
          session_->on_cancel(id);
          write_cv_.notify_all();
        }
        break;
      }
      case FrameType::kPing:
      case FrameType::kSettings:
        break;  // reserved in format 1
      case FrameType::kGoodbye:
        {
          std::lock_guard lock(mu_);
          goodbye_ = true;
        }
        exec_cv_.notify_all();
        write_cv_.notify_all();
        break;
      case FrameType::kError: {
        fail(Status(StatusCode::kUnavailable,
                    "peer reported a connection error: " +
                        std::string(reinterpret_cast<const char*>(
                                        frame.payload.data()),
                                    frame.payload.size())));
        return;
      }
      case FrameType::kTrace: {
        // The peer's context for the stream named in the header; its
        // data frames follow on this same link.
        std::lock_guard lock(mu_);
        pending_trace_ = obs::decode_context(std::string_view(
            reinterpret_cast<const char*>(frame.payload.data()),
            frame.payload.size()));
        pending_trace_id_ = frame.header.stream_id;
        break;
      }
    }
  }
}

bool Dispatcher::handle_data(const Frame& frame) {
  const std::uint64_t id = frame.header.stream_id;
  std::shared_ptr<Stream> stream;
  Status violation;  // fail() locks mu_, so it must run outside the scope
  {
    std::lock_guard lock(mu_);
    if (goodbye_) {
      // Admitting work after a drain request would never be replied to.
      violation =
          Status(StatusCode::kInvalidArgument,
                 "data frame after goodbye on stream " + std::to_string(id));
    } else if (id == 0) {
      violation = Status(StatusCode::kInvalidArgument,
                         "stream id 0 is reserved for connection frames");
    } else if (!partial_open_ && id == skip_id_) {
      return true;  // tail of a request cancelled mid-assembly
    } else if (partial_open_ && id != partial_id_) {
      violation = Status(StatusCode::kInvalidArgument,
                         "interleaved request streams: stream " +
                             std::to_string(id) + " arrived inside stream " +
                             std::to_string(partial_id_));
    } else if (!partial_open_ && id <= last_stream_id_) {
      violation = Status(StatusCode::kInvalidArgument,
                         "stream ids must be strictly increasing (got " +
                             std::to_string(id) + " after " +
                             std::to_string(last_stream_id_) + ")");
    } else if (partial_.size() + frame.payload.size() > kMaxFramePayload) {
      violation = Status(StatusCode::kInvalidArgument,
                         "request on stream " + std::to_string(id) +
                             " exceeds the " +
                             std::to_string(kMaxFramePayload) + "-byte cap");
    } else {
      if (!partial_open_) {
        partial_open_ = true;
        partial_id_ = id;
        last_stream_id_ = id;
        partial_.clear();
      }
      partial_.append(reinterpret_cast<const char*>(frame.payload.data()),
                      frame.payload.size());
      if (!frame.header.end_stream()) return true;
      partial_open_ = false;
      stream = std::make_shared<Stream>();
      stream->id = id;
      stream->request = std::move(partial_);
      if (pending_trace_id_ == id) {
        stream->trace = pending_trace_;
        pending_trace_ = obs::TraceContext{};
        pending_trace_id_ = 0;
      }
      partial_ = std::string();
    }
  }
  if (!violation.ok()) {
    fail(std::move(violation));
    return false;
  }
  admit(std::move(stream));
  return true;
}

void Dispatcher::admit(std::shared_ptr<Stream> stream) {
  std::unique_lock lock(mu_);
  admit_cv_.wait(lock, [&] {
    return order_.size() < kMaxInFlight || failed_ || peer_gone_;
  });
  if (failed_ || peer_gone_) return;
  DispatcherMetrics& metrics = dispatcher_metrics();
  metrics.streams.add();
  stream->admitted = std::chrono::steady_clock::now();
  if (obs::Tracer::enabled()) {
    // Server span: child of the peer's kTrace context when one came,
    // a fresh root otherwise. Finished after the reply is sent.
    stream->span = std::make_unique<obs::Span>("rpc", stream->trace);
  }
  live_.emplace(stream->id, stream);
  order_.push_back(stream);
  metrics.finalizer_queue_depth.set(
      static_cast<std::int64_t>(order_.size()));
  exec_queue_.push_back(std::move(stream));
  lock.unlock();
  exec_cv_.notify_one();
  write_cv_.notify_all();
}

void Dispatcher::exec_loop() {
  for (;;) {
    std::shared_ptr<Stream> stream;
    {
      std::unique_lock lock(mu_);
      exec_cv_.wait(lock, [&] {
        return !exec_queue_.empty() || reader_done_ || failed_ || peer_gone_;
      });
      if (exec_queue_.empty()) {
        if (reader_done_ || failed_ || peer_gone_) return;
        continue;
      }
      stream = exec_queue_.front();
      exec_queue_.pop_front();
    }
    rpc::Finalizer finalizer;
    if (!stream->cancelled.load(std::memory_order_relaxed)) {
      rpc::Context ctx{stream->id, &stream->cancelled};
      // Spans opened inside handle() (parse, route, execute, shard
      // loads on this thread) parent under the server span.
      obs::ContextScope trace_scope(stream->span ? stream->span->context()
                                                 : obs::TraceContext{});
      try {
        finalizer = service_.handle(*session_, ctx, stream->request);
      } catch (const std::exception& e) {
        fail(Status(StatusCode::kInternal,
                    std::string("request handler escaped: ") + e.what()));
        return;
      }
    }
    {
      std::lock_guard lock(mu_);
      stream->finalizer = std::move(finalizer);
      stream->ready = true;
    }
    write_cv_.notify_all();
  }
}

void Dispatcher::write_loop() {
  for (;;) {
    std::shared_ptr<Stream> stream;
    bool send_goodbye = false;
    {
      std::unique_lock lock(mu_);
      write_cv_.wait(lock, [&] {
        if (failed_ || peer_gone_) return true;
        if (!order_.empty()) {
          return order_.front()->ready ||
                 order_.front()->cancelled.load(std::memory_order_relaxed);
        }
        return goodbye_ || reader_done_;
      });
      if (failed_ || peer_gone_) return;
      if (order_.empty()) {
        if (goodbye_) {
          send_goodbye = true;
        } else {
          return;  // reader_done_: clean EOF with nothing owed
        }
      } else {
        stream = order_.front();
        order_.pop_front();
        live_.erase(stream->id);
        dispatcher_metrics().finalizer_queue_depth.set(
            static_cast<std::int64_t>(order_.size()));
      }
    }
    admit_cv_.notify_one();
    if (send_goodbye) {
      (void)channel_->send(FrameType::kGoodbye, 0, 0, std::string_view());
      channel_->shutdown();  // wakes the reader; drain complete
      return;
    }
    if (stream->cancelled.load(std::memory_order_relaxed)) continue;
    std::string reply;
    const auto finalize_started = std::chrono::steady_clock::now();
    try {
      obs::ContextScope trace_scope(stream->span ? stream->span->context()
                                                  : obs::TraceContext{});
      if (stream->finalizer) reply = stream->finalizer();
    } catch (const std::exception& e) {
      fail(Status(StatusCode::kInternal,
                  std::string("finalizer escaped: ") + e.what()));
      return;
    }
    DispatcherMetrics& metrics = dispatcher_metrics();
    metrics.finalize_us.observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - finalize_started)
            .count()));
    if (Status s = send_reply(stream->id, reply); !s.ok()) {
      fail(s);
      return;
    }
    // Span emission happens after the reply bytes are on the wire, so
    // tracing can never reorder or perturb the reply stream.
    if (stream->span) {
      stream->span->annotate("reply_bytes",
                             static_cast<std::uint64_t>(reply.size()));
      // lint: allow(finalizer-purity) deliberate: send_reply() already put the reply on the wire, so emission here cannot perturb it
      stream->span->finish();
    }
    metrics.stream_wall_us.observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - stream->admitted)
            .count()));
  }
}

Status Dispatcher::send_reply(std::uint64_t stream_id,
                              const std::string& reply) {
  const std::uint32_t limit =
      std::max<std::uint32_t>(1, options_.max_frame_payload);
  std::size_t offset = 0;
  do {
    const std::size_t n =
        std::min<std::size_t>(limit, reply.size() - offset);
    const bool last = offset + n == reply.size();
    const Status s =
        channel_->send(FrameType::kData, last ? kFlagEndStream : 0, stream_id,
                       std::string_view(reply).substr(offset, n));
    if (!s.ok()) return s;
    offset += n;
  } while (offset < reply.size());
  return Status::Ok();
}

void Dispatcher::fail(Status status) {
  dispatcher_metrics().connection_errors.add();
  bool first = false;
  {
    std::lock_guard lock(mu_);
    if (!failed_) {
      failed_ = true;
      status_ = std::move(status);
      first = true;
    }
  }
  if (first) {
    std::lock_guard lock(mu_);
    // Tell the peer why before cutting it off -- but only for protocol
    // violations; transport errors mean the wire is already dead.
    if (status_.code() == StatusCode::kInvalidArgument ||
        status_.code() == StatusCode::kDataLoss) {
      (void)channel_->send(FrameType::kError, 0, 0, status_.message());
    }
    channel_->shutdown();
  }
  exec_cv_.notify_all();
  write_cv_.notify_all();
  admit_cv_.notify_all();
}

ServeLoop::ServeLoop(uds::Server server, rpc::Service& service,
                     DispatcherOptions options)
    : server_(std::move(server)), service_(service), options_(options) {}

ServeLoop::~ServeLoop() { stop(); }

void ServeLoop::start() {
  accept_thread_ = std::thread([this] {
    for (;;) {
      auto channel = server_.accept();
      if (!channel.ok()) return;  // listener closed
      std::lock_guard lock(mu_);
      if (stopped_.load()) {
        (*channel)->shutdown();
        return;
      }
      channels_.push_back(*channel);
      conn_threads_.emplace_back([this, ch = *channel] {
        Dispatcher dispatcher(ch, service_, options_);
        (void)dispatcher.serve();
      });
    }
  });
}

void ServeLoop::stop() {
  if (stopped_.exchange(true)) return;
  server_.close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<uds::Channel>> channels;
  std::vector<std::thread> threads;
  {
    std::lock_guard lock(mu_);
    channels.swap(channels_);
    threads.swap(conn_threads_);
  }
  for (auto& channel : channels) channel->shutdown();
  for (auto& thread : threads) {
    if (thread.joinable()) thread.join();
  }
}

}  // namespace inspector::net
