// Measurement harness of the end-to-end benchmark: order statistics,
// span tracing around the benchmark's own calls into the system,
// closed-loop socket clients that check every reply, process-memory
// probes, and the one-line JSON result.
//
// Nothing here reaches into the system under test: every number is
// taken from outside, by timing calls into public functions.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- clock -------------------------------------------------------------

/// CLOCK_MONOTONIC seconds. System-wide, so span times recorded in
/// forked children line up with the parent's.
[[nodiscard]] double mono_now();

// --- statistics --------------------------------------------------------

/// Median (mean of the middle two for even counts); NaN when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Mean of the values left after dropping floor(n * trim) from each
/// end; NaN when empty. Cold capture reps are bimodal on a shared host
/// (fast and slow reps ~35 % apart, interleaved second by second), so
/// their median jumps between the modes as the mix shifts, while this
/// mean moves with the mix and ignores a rare stalled rep.
[[nodiscard]] double trimmed_mean(std::vector<double> values, double trim);

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default 'exclusive' method); needs at least two values.
[[nodiscard]] std::array<double, 3> quartiles(std::vector<double> values);

/// One order statistic of a latency sample.
struct Percentile {
  double value = 0;       ///< sample at the percentile (nearest rank)
  double percentile = 0;  ///< e.g. 99.9
  std::size_t samples = 0;  ///< successes plus failures
  std::size_t beyond = 0;   ///< samples strictly after the chosen rank
};

/// The value at percentile `p` (0 < p < 100) by nearest rank, with
/// `failures` counted as infinitely slow samples beyond every rank.
[[nodiscard]] Percentile percentile_of(std::vector<double> samples,
                                       std::size_t failures, double p);

/// The tail: the highest percentile of the ladder 50, 75, 90, 99, 99.9,
/// 99.99, not above `cap`, that leaves at least ten samples beyond it.
/// A workload caps the ladder at the rung its smallest expected sample
/// supports, so the rung does not flip between runs whose counts
/// straddle a threshold. With fewer than 11 samples there is no tail,
/// and `percentile` is 0.
[[nodiscard]] Percentile tail_percentile(std::vector<double> samples,
                                         std::size_t failures,
                                         double cap = 99.99);

/// Latency reported for a failed operation that lands on a percentile.
inline constexpr double kFailedLatencyUs = 60e6;

// --- derived layer metrics ----------------------------------------------

/// Layer costs derived as differences and ratios of measured numbers.
struct Derived {
  double net_overhead_p50_us = 0;     ///< socket p50 - in-process shard p50
  double router_hop_p50_us = 0;       ///< router p50 - socket p50
  double resident_overhead_x = 0;     ///< shard p50 / graph p50
  double memtrack_cost_s = 0;         ///< capture - capture without memtrack
  double ptsim_cost_s = 0;            ///< capture - capture without PT
  double overhead_x = 0;              ///< capture / native run
};

struct Measured {
  double socket_p50_us = 0, router_p50_us = 0;
  double shard_p50_us = 0, graph_p50_us = 0;
  double capture_s = 0, no_memtrack_s = 0, no_pt_s = 0, native_s = 0;
};

[[nodiscard]] Derived derive(const Measured& m);

// --- tracing -----------------------------------------------------------

/// One timed call of the benchmark into a module's public function.
struct SpanRecord {
  std::string name;
  double start = 0;
  double end = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 for a root
  std::uint64_t request = 0;  ///< request id the call served, 0 if none
};

void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// RAII span: records [construction, destruction) under the calling
/// thread's innermost open span. A no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  double start_ = 0;
};

/// Every finished span so far (spans are held in memory until exit).
[[nodiscard]] std::vector<SpanRecord> spans();
/// Adopt spans recorded elsewhere (a forked child's).
void add_spans(std::vector<SpanRecord> records);
/// Drop every span held so far (a forked child's inherited copy).
void clear_spans();

/// Per span name: count, busy time (sum of durations) and self time
/// (each span minus the part of it its child spans cover).
struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double busy_s = 0;
  double self_s = 0;
};
[[nodiscard]] std::vector<LayerRow> layer_table(
    const std::vector<SpanRecord>& records);

/// One span per line: "span <name> <start> <end> <id> <parent> <req>".
[[nodiscard]] std::string encode_spans(const std::vector<SpanRecord>& records);
/// Parse a "span ..." line; false if it is not one.
bool decode_span(std::string_view line, SpanRecord& out);

// --- memory ------------------------------------------------------------

/// Reset this process's peak RSS (VmHWM) to its current RSS by writing
/// "5" to /proc/self/clear_refs. False when the kernel refuses.
bool reset_peak_rss();
/// VmHWM of this process in MiB (0 if unreadable).
[[nodiscard]] double peak_rss_mib();
/// Largest peak RSS of any waited-for child, in MiB.
[[nodiscard]] double children_peak_rss_mib();

// --- hashing -----------------------------------------------------------

/// FNV-1a 64 of a reply line. Expected replies are kept as (hash,
/// length) so the harness holds no copy of the answers while the
/// measured phase's memory is read.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

// --- closed-loop socket load --------------------------------------------

/// A request line and the reply the reference engine gives for it.
struct Request {
  std::string line;
  std::uint64_t id = 0;
  std::uint64_t reply_hash = 0;
  std::size_t reply_size = 0;
};

/// What one target (the server or the router) saw across segments.
struct LoadTally {
  std::vector<double> latencies_us;  ///< successful requests
  std::size_t attempted = 0;
  std::size_t failed = 0;    ///< mismatch, error reply, drop or timeout
  std::size_t mismatched = 0;
  std::size_t dropped = 0;   ///< transport errors (connection lost)
  double busy_s = 0;         ///< timed wall time of this target's segments
};

/// Closed-loop clients: one connection and one thread per pool, each
/// sending its pool's requests in turn and waiting for every reply.
/// Replies are checked against the expected (hash, length).
class ClosedLoop {
 public:
  /// `pools[i]` is connection i's request cycle (pointers into a
  /// caller-owned vector that must outlive this object).
  /// Each segment's first `warmup_s` seconds are driven and checked
  /// but not timed (caches refill after the capture reps between
  /// segments).
  ClosedLoop(std::string socket_path,
             std::vector<std::vector<const Request*>> pools,
             double warmup_s = 0);
  ~ClosedLoop();
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Connect every client (untimed). False if any connection fails.
  [[nodiscard]] bool connect();
  /// Drive all clients until `seconds` have passed, each finishing its
  /// in-flight request. Appends to `tally`. A request outstanding for
  /// longer than `timeout_s` calls `on_timeout` from a watchdog.
  void run_segment(double seconds, LoadTally& tally, double timeout_s,
                   const std::function<void()>& on_timeout,
                   const char* span_name);
  /// Goodbye on every connection.
  void close();

 private:
  struct Client;
  std::string path_;
  std::vector<std::vector<const Request*>> pools_;
  double warmup_s_ = 0;
  std::vector<std::unique_ptr<Client>> clients_;
};

// --- result ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Every digit of a double, as JSON (non-finite values become -1).
[[nodiscard]] std::string json_number(double value);

/// The run's last stdout line.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

/// Self-tests of this file and the failure accounting; 0 on success.
int run_selftest();

}  // namespace perfbench
