#include "obs/trace.h"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace inspector::obs {

namespace {

thread_local TraceContext tls_context;

/// splitmix64: one multiply-xor-shift round per id, seeded per process
/// so two processes in a fan-out never mint colliding span ids.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t next_id() noexcept {
  static const std::uint64_t seed = [] {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return mix64(static_cast<std::uint64_t>(::getpid()) ^
                 static_cast<std::uint64_t>(now.count()) << 16);
  }();
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t id = 0;
  while (id == 0) {
    id = mix64(seed + counter.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  return id;
}

std::uint64_t steady_now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t unix_now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_us() noexcept {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ULL;
}

std::uint64_t thread_token() noexcept {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

void append_hex(std::string& out, std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  out += buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

/// The process-wide sink. fd -1 = disabled, 2 = stderr, else an
/// O_APPEND file we own. enabled_ is the lock-free fast-path check;
/// the mutex covers (re)configuration and fd ownership.
struct Sink {
  std::atomic<bool> enabled{false};
  std::mutex mu;
  int fd = -1;
  bool owns_fd = false;
};

Sink& sink() {
  static Sink* s = new Sink();  // leaked: spans may emit during exit
  return *s;
}

void configure_locked(Sink& s, const std::string& path) {
  if (s.owns_fd && s.fd >= 0) ::close(s.fd);
  s.fd = -1;
  s.owns_fd = false;
  if (path.empty()) {
    s.enabled.store(false, std::memory_order_release);
    return;
  }
  if (path == "stderr") {
    s.fd = 2;
  } else {
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) {
      std::fprintf(stderr, "inspector: cannot open trace sink %s\n",
                   path.c_str());
      s.enabled.store(false, std::memory_order_release);
      return;
    }
    s.fd = fd;
    s.owns_fd = true;
  }
  s.enabled.store(true, std::memory_order_release);
}

void init_sink_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* path = std::getenv("INSPECTOR_TRACE");
    if (path != nullptr && *path != '\0') {
      Sink& s = sink();
      std::lock_guard lock(s.mu);
      configure_locked(s, path);
    }
  });
}

std::atomic<std::uint64_t>& slow_query_us_setting() {
  static std::atomic<std::uint64_t>* v = [] {
    auto* p = new std::atomic<std::uint64_t>(0);
    const char* env = std::getenv("INSPECTOR_SLOW_QUERY_MS");
    if (env != nullptr && *env != '\0') {
      p->store(std::strtoull(env, nullptr, 10) * 1000ULL,
               std::memory_order_relaxed);
    }
    return p;
  }();
  return *v;
}

}  // namespace

TraceContext current_context() noexcept { return tls_context; }

ContextScope::ContextScope(TraceContext ctx) noexcept : saved_(tls_context) {
  tls_context = ctx;
}

ContextScope::~ContextScope() { tls_context = saved_; }

bool Tracer::enabled() noexcept {
  init_sink_from_env();
  return sink().enabled.load(std::memory_order_acquire);
}

void Tracer::configure(const std::string& path) {
  init_sink_from_env();  // claim the once_flag so env can't override us
  Sink& s = sink();
  std::lock_guard lock(s.mu);
  configure_locked(s, path);
}

void Tracer::emit_line(std::string_view line) {
  Sink& s = sink();
  if (!s.enabled.load(std::memory_order_acquire)) return;
  std::string buf;
  buf.reserve(line.size() + 1);
  buf.append(line);
  buf.push_back('\n');
  std::lock_guard lock(s.mu);
  if (s.fd < 0) return;
  // One write per line: concurrent processes appending to a shared
  // file (or stderr) interleave at line boundaries, not mid-record.
  ssize_t unused = ::write(s.fd, buf.data(), buf.size());
  (void)unused;
}

std::uint64_t Tracer::slow_query_threshold_us() noexcept {
  return slow_query_us_setting().load(std::memory_order_relaxed);
}

void Tracer::set_slow_query_threshold_ms(std::uint64_t ms) {
  slow_query_us_setting().store(ms * 1000ULL, std::memory_order_relaxed);
}

void Tracer::log_slow_query(std::string_view kind, std::uint64_t wall_us,
                            std::string_view status) {
  const std::uint64_t threshold = slow_query_threshold_us();
  if (threshold == 0 || wall_us < threshold) return;
  std::string line = "{\"type\":\"slow_query\",\"kind\":";
  append_json_string(line, kind);
  line += ",\"wall_us\":" + std::to_string(wall_us);
  line += ",\"threshold_us\":" + std::to_string(threshold);
  line += ",\"status\":";
  append_json_string(line, status);
  const TraceContext ctx = tls_context;
  if (ctx.sampled) {
    line += ",\"trace\":\"";
    append_hex(line, ctx.trace_id);
    line += "\"";
  }
  line += ",\"pid\":" + std::to_string(::getpid()) + "}";
  if (enabled()) {
    emit_line(line);
  } else {
    line.push_back('\n');
    ssize_t unused = ::write(2, line.data(), line.size());
    (void)unused;
  }
}

Span::Span(std::string_view name, Root root)
    : Span(name, tls_context, root) {}

Span::Span(std::string_view name, TraceContext parent, Root root) {
  if (parent.sampled) {
    ctx_.trace_id = parent.trace_id;
    parent_span_ = parent.span_id;
  } else {
    if (root == Root::kDeny || !Tracer::enabled()) return;
    ctx_.trace_id = next_id();
  }
  if (!Tracer::enabled()) return;
  active_ = true;
  ctx_.span_id = next_id();
  ctx_.sampled = true;
  name_.assign(name);
  start_wall_us_ = steady_now_us();
  start_unix_us_ = unix_now_us();
  start_cpu_us_ = thread_cpu_us();
  start_thread_ = thread_token();
}

Span::~Span() { finish(); }

void Span::annotate(std::string_view key, std::string_view value) {
  if (!active_) return;
  annotations_.emplace_back(std::string(key),
                            [&] {
                              std::string v;
                              append_json_string(v, value);
                              return v;
                            }());
}

void Span::annotate(std::string_view key, std::uint64_t value) {
  if (!active_) return;
  annotations_.emplace_back(std::string(key), std::to_string(value));
}

void Span::finish() {
  if (!active_) return;
  active_ = false;
  const std::uint64_t wall_us = steady_now_us() - start_wall_us_;
  std::string line = "{\"type\":\"span\",\"trace\":\"";
  append_hex(line, ctx_.trace_id);
  line += "\",\"span\":\"";
  append_hex(line, ctx_.span_id);
  line += "\"";
  if (parent_span_ != 0) {
    line += ",\"parent\":\"";
    append_hex(line, parent_span_);
    line += "\"";
  }
  line += ",\"name\":";
  append_json_string(line, name_);
  line += ",\"pid\":" + std::to_string(::getpid());
  line += ",\"start_unix_us\":" + std::to_string(start_unix_us_);
  line += ",\"wall_us\":" + std::to_string(wall_us);
  if (thread_token() == start_thread_) {
    line += ",\"cpu_us\":" + std::to_string(thread_cpu_us() - start_cpu_us_);
  }
  for (const auto& [key, value] : annotations_) {
    line += ",";
    append_json_string(line, key);
    line += ":" + value;
  }
  line += "}";
  Tracer::emit_line(line);
}

std::string encode_context(const TraceContext& ctx) {
  std::string out = "{\"trace\":\"";
  append_hex(out, ctx.trace_id);
  out += "\",\"span\":\"";
  append_hex(out, ctx.span_id);
  out += "\"}";
  return out;
}

TraceContext decode_context(std::string_view payload) {
  TraceContext ctx;
  const auto hex_after = [payload](std::string_view key) -> std::uint64_t {
    const std::size_t at = payload.find(key);
    if (at == std::string_view::npos) return 0;
    std::size_t i = at + key.size();
    std::uint64_t v = 0;
    std::size_t digits = 0;
    while (i < payload.size() && digits < 16) {
      const char c = payload[i];
      std::uint64_t d = 0;
      if (c >= '0' && c <= '9') {
        d = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        d = static_cast<std::uint64_t>(c - 'a') + 10;
      } else {
        break;
      }
      v = (v << 4) | d;
      ++i;
      ++digits;
    }
    return digits == 0 ? 0 : v;
  };
  ctx.trace_id = hex_after("\"trace\":\"");
  ctx.span_id = hex_after("\"span\":\"");
  ctx.sampled = ctx.trace_id != 0 && ctx.span_id != 0;
  return ctx;
}

}  // namespace inspector::obs
