// Per-query tracing: spans with wall + CPU time per phase, stitched
// across the UDS boundary into one tree per client request.
//
// A span records one phase (parse -> route -> shard load -> execute ->
// finalize) as a JSON line on a process-wide sink. Parentage flows two
// ways: within a thread through a thread-local current context
// (ContextScope, set by the dispatcher around method bodies and
// finalizers), and across processes through kTrace frames carrying the
// sender's context ahead of a request's Data frames -- a router fan-out
// therefore produces one tree: client span -> router rpc span -> route
// / dispatch spans -> worker rpc span -> execute / shard_load spans.
//
// The sink is configured by environment:
//   INSPECTOR_TRACE=<path>    append JSON lines to <path>
//   INSPECTOR_TRACE=stderr    write them to stderr
//   INSPECTOR_SLOW_QUERY_MS=N log queries slower than N ms even when
//                             tracing is off (to the sink, else stderr)
//
// Tracing must never perturb reply bytes: spans are write-only, emit
// whole lines with one write() (so concurrent processes interleave at
// line boundaries), touch neither stdout nor any reply buffer, and
// when the sink is disabled every operation here is a few branches.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace inspector::obs {

/// Identity of an in-progress span, carried to children and peers.
/// sampled=false means "no trace here": spans under it stay inactive.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool sampled = false;
};

/// The thread's current context (what a new Span adopts as parent).
[[nodiscard]] TraceContext current_context() noexcept;

/// RAII: install `ctx` as the thread's current context, restoring the
/// previous one on destruction. The dispatcher wraps method bodies and
/// finalizers in one of these so nested spans parent correctly.
class ContextScope {
 public:
  explicit ContextScope(TraceContext ctx) noexcept;
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TraceContext saved_;
};

/// Process-wide trace sink configuration and emission.
class Tracer {
 public:
  /// True once a sink is configured (environment or configure()).
  [[nodiscard]] static bool enabled() noexcept;

  /// Point the sink at `path` ("stderr" for stderr), overriding the
  /// environment. Empty path disables. Test seam and tool flag hook.
  static void configure(const std::string& path);

  /// Write one complete JSON line (newline appended) to the sink with
  /// a single write(), so lines from concurrent processes sharing a
  /// file interleave whole. No-op when disabled.
  static void emit_line(std::string_view line);

  /// Slow-query threshold in microseconds; 0 = disabled.
  [[nodiscard]] static std::uint64_t slow_query_threshold_us() noexcept;
  static void set_slow_query_threshold_ms(std::uint64_t ms);

  /// Emit a slow-query record if `wall_us` crosses the threshold.
  /// Goes to the trace sink when one is configured, stderr otherwise
  /// (the slow-query log works with tracing off).
  static void log_slow_query(std::string_view kind, std::uint64_t wall_us,
                             std::string_view status);
};

/// One timed phase. Construction captures the parent (thread-local
/// current context, or an explicit TraceContext for cross-thread /
/// cross-process spans), start wall and thread-CPU clocks; finish()
/// (or destruction) emits the JSON line. When tracing is disabled --
/// or, under Root::kDeny, when no sampled parent exists -- the span is
/// inert and costs a few branches.
class Span {
 public:
  enum class Root {
    kAllow,  ///< no sampled parent: start a new trace (if enabled)
    kDeny,   ///< no sampled parent: stay inactive (leaf phases)
  };

  explicit Span(std::string_view name, Root root = Root::kAllow);
  Span(std::string_view name, TraceContext parent, Root root = Root::kAllow);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] bool active() const noexcept { return active_; }
  /// This span's context, for ContextScope or cross-process carry.
  [[nodiscard]] TraceContext context() const noexcept { return ctx_; }

  void annotate(std::string_view key, std::string_view value);
  void annotate(std::string_view key, std::uint64_t value);

  /// Emit the span (idempotent). Safe to call from a different thread
  /// than the constructor's; CPU time is then omitted (a thread CPU
  /// clock only measures its own thread).
  void finish();

 private:
  bool active_ = false;
  TraceContext ctx_;
  std::uint64_t parent_span_ = 0;
  std::string name_;
  std::uint64_t start_wall_us_ = 0;   ///< steady, for the duration
  std::uint64_t start_unix_us_ = 0;   ///< system, for the record
  std::uint64_t start_cpu_us_ = 0;
  std::uint64_t start_thread_ = 0;
  std::vector<std::pair<std::string, std::string>> annotations_;
};

/// kTrace frame payload: {"trace":"<hex>","span":"<hex>"}.
[[nodiscard]] std::string encode_context(const TraceContext& ctx);
/// Tolerant decode; an unparsable payload yields an unsampled context.
[[nodiscard]] TraceContext decode_context(std::string_view payload);

}  // namespace inspector::obs
