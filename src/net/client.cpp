#include "net/client.h"

#include <utility>

#include "obs/trace.h"

namespace inspector::net {

QueryClient::QueryClient(std::shared_ptr<uds::Channel> channel)
    : channel_(std::move(channel)) {
  reader_ = std::thread(&QueryClient::read_loop, this);
}

QueryClient::~QueryClient() {
  channel_->shutdown();
  if (reader_.joinable()) reader_.join();
}

Result<std::unique_ptr<QueryClient>> QueryClient::connect(
    const std::string& path, int attempts) {
  auto channel = uds::Channel::connect_retry(path, attempts);
  if (!channel.ok()) return channel.status();
  return std::unique_ptr<QueryClient>(new QueryClient(*channel));
}

Result<std::uint64_t> QueryClient::send(std::string_view request_line) {
  return open_stream(request_line, /*waited=*/false);
}

Result<std::uint64_t> QueryClient::start(std::string_view request_line) {
  return open_stream(request_line, /*waited=*/true);
}

Result<std::uint64_t> QueryClient::open_stream(std::string_view line,
                                               bool waited) {
  std::lock_guard send_lock(send_mu_);
  const std::uint64_t id = next_stream_++;
  {
    std::lock_guard lock(mu_);
    if (closed_) {
      return !error_.ok() ? error_
                          : Status(StatusCode::kUnavailable,
                                   "connection closed after goodbye");
    }
    // Registered before the data leaves, so the reader always finds it.
    pending_[id].waited = waited;
  }
  // The caller's trace context rides ahead of the data, so the
  // server's rpc span joins this thread's trace.
  if (const obs::TraceContext ctx = obs::current_context(); ctx.sampled) {
    (void)channel_->send(FrameType::kTrace, 0, id, obs::encode_context(ctx));
  }
  if (Status s = channel_->send(FrameType::kData, kFlagEndStream, id, line);
      !s.ok()) {
    std::lock_guard lock(mu_);
    pending_.erase(id);
    return s;
  }
  return id;
}

Result<std::string> QueryClient::next_reply() {
  std::unique_lock lock(mu_);
  for (;;) {
    auto it = pending_.begin();
    while (it != pending_.end() && it->second.waited) ++it;
    if (it != pending_.end() && it->second.done) {
      std::string reply = std::move(it->second.reply);
      pending_.erase(it);
      return reply;
    }
    if (closed_) {
      if (!error_.ok()) return error_;
      return Status(StatusCode::kExhausted,
                    "connection closed; every reply has been delivered");
    }
    cv_.wait(lock);
  }
}

Result<std::string> QueryClient::call(std::string_view request_line) {
  const auto id = start(request_line);
  if (!id.ok()) return id.status();
  return wait(*id);
}

Result<std::string> QueryClient::wait(std::uint64_t stream_id) {
  std::unique_lock lock(mu_);
  for (;;) {
    const auto it = pending_.find(stream_id);
    if (it == pending_.end()) {
      return Status(StatusCode::kNotFound,
                    "stream " + std::to_string(stream_id) + " was cancelled");
    }
    if (it->second.done) {
      std::string reply = std::move(it->second.reply);
      pending_.erase(it);
      return reply;
    }
    if (closed_) {
      pending_.erase(it);
      if (!error_.ok()) return error_;
      return Status(StatusCode::kUnavailable,
                    "connection closed before stream " +
                        std::to_string(stream_id) + " was answered");
    }
    cv_.wait(lock);
  }
}

Status QueryClient::cancel(std::uint64_t stream_id) {
  {
    std::lock_guard lock(mu_);
    const auto it = pending_.find(stream_id);
    if (it == pending_.end() || it->second.done) return Status::Ok();
    pending_.erase(it);
  }
  cv_.notify_all();  // a wait() on the stream returns at once
  return channel_->send(FrameType::kCancel, 0, stream_id, std::string_view());
}

Status QueryClient::goodbye() {
  {
    std::lock_guard send_lock(send_mu_);
    if (Status s =
            channel_->send(FrameType::kGoodbye, 0, 0, std::string_view());
        !s.ok()) {
      return s;
    }
  }
  std::unique_lock lock(mu_);
  cv_.wait(lock, [&] { return closed_; });
  return error_;
}

void QueryClient::read_loop() {
  bool saw_goodbye = false;
  for (;;) {
    auto got = channel_->recv();
    if (!got.ok() || !got->has_value()) {
      std::lock_guard lock(mu_);
      closed_ = true;
      // After the server's Goodbye, the shutdown-induced EOF (or recv
      // error) is the normal end of the drain handshake; without one,
      // the server vanished and callers still owed a reply must know.
      if (!saw_goodbye) {
        error_ = !got.ok()
                     ? got.status()
                     : Status(StatusCode::kUnavailable,
                              "server closed the connection without goodbye");
      }
      cv_.notify_all();
      return;
    }
    const Frame& frame = **got;
    switch (frame.header.type) {
      case FrameType::kData: {
        std::lock_guard lock(mu_);
        const auto it = pending_.find(frame.header.stream_id);
        if (it == pending_.end() || it->second.done) break;  // cancelled
        it->second.reply.append(
            reinterpret_cast<const char*>(frame.payload.data()),
            frame.payload.size());
        if (frame.header.end_stream()) {
          it->second.done = true;
          cv_.notify_all();
        }
        break;
      }
      case FrameType::kGoodbye:
        saw_goodbye = true;
        break;
      case FrameType::kError: {
        std::lock_guard lock(mu_);
        closed_ = true;
        error_ = Status(
            StatusCode::kUnavailable,
            "server reported a connection error: " +
                std::string(
                    reinterpret_cast<const char*>(frame.payload.data()),
                    frame.payload.size()));
        cv_.notify_all();
        return;
      }
      case FrameType::kPing:
      case FrameType::kSettings:
      case FrameType::kCancel:
      case FrameType::kTrace:
        break;
    }
  }
}

}  // namespace inspector::net
