#include "harness.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "net/client.h"

namespace perfbench {

double mono_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- statistics --------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double trimmed_mean(std::vector<double> values, double trim) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const auto drop = static_cast<std::size_t>(
      std::floor(static_cast<double>(values.size()) * trim));
  if (2 * drop >= values.size()) return median(std::move(values));
  double sum = 0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

std::array<double, 3> quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<long long>(values.size());
  std::array<double, 3> out{};
  if (ld < 2) {
    out.fill(ld == 1 ? values[0] : std::numeric_limits<double>::quiet_NaN());
    return out;
  }
  // statistics.quantiles(method='exclusive'): m = n + 1 points, with
  // the cut index clamped to 1 .. n-1.
  const long long m = ld + 1;
  for (long long i = 1; i < 4; ++i) {
    long long j = i * m / 4;
    j = std::clamp(j, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

Percentile percentile_of(std::vector<double> samples, std::size_t failures,
                         double p) {
  Percentile out;
  out.percentile = p;
  out.samples = samples.size() + failures;
  if (out.samples == 0) return out;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least p% at or below it.
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(out.samples) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, out.samples);
  out.beyond = out.samples - rank;
  out.value = rank <= samples.size() ? samples[rank - 1] : kFailedLatencyUs;
  return out;
}

Percentile tail_percentile(std::vector<double> samples, std::size_t failures,
                           double cap) {
  const std::size_t n = samples.size() + failures;
  for (const double p : {99.99, 99.9, 99.0, 90.0, 75.0, 50.0}) {
    if (p > cap) continue;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (n >= 11 && n - rank >= 10) {
      return percentile_of(std::move(samples), failures, p);
    }
  }
  Percentile none;
  none.samples = n;
  return none;
}

// --- derived layer metrics ----------------------------------------------

Derived derive(const Measured& m) {
  Derived d;
  d.net_overhead_p50_us = m.socket_p50_us - m.shard_p50_us;
  d.router_hop_p50_us = m.router_p50_us - m.socket_p50_us;
  d.resident_overhead_x = m.shard_p50_us / m.graph_p50_us;
  d.memtrack_cost_s = m.capture_s - m.no_memtrack_s;
  d.ptsim_cost_s = m.capture_s - m.no_pt_s;
  d.overhead_x = m.capture_s / m.native_s;
  return d;
}

// --- tracing -----------------------------------------------------------

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_span{1};
thread_local std::uint64_t tl_current = 0;

struct SpanSink {
  std::mutex mu;
  std::vector<SpanRecord> records;
};

SpanSink& sink() {
  static SpanSink s;
  return s;
}

std::uint64_t next_span_id() {
  // The pid keeps ids of forked children apart from the parent's.
  return (static_cast<std::uint64_t>(getpid()) << 32) |
         g_next_span.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t request)
    : name_(name), request_(request) {
  if (!tracing()) return;
  id_ = next_span_id();
  parent_ = tl_current;
  tl_current = id_;
  start_ = mono_now();
}

Span::~Span() {
  if (id_ == 0) return;
  const double end = mono_now();
  tl_current = parent_;
  SpanRecord r{name_, start_, end, id_, parent_, request_};
  std::lock_guard<std::mutex> lock(sink().mu);
  sink().records.push_back(std::move(r));
}

namespace {

/// Makes `parent` the enclosing span of every span this thread opens
/// while the guard lives (links a client thread to the segment span).
class SpanParent {
 public:
  explicit SpanParent(std::uint64_t parent) : saved_(tl_current) {
    tl_current = parent;
  }
  ~SpanParent() { tl_current = saved_; }
  SpanParent(const SpanParent&) = delete;
  SpanParent& operator=(const SpanParent&) = delete;

 private:
  std::uint64_t saved_;
};

}  // namespace

std::vector<SpanRecord> spans() {
  std::lock_guard<std::mutex> lock(sink().mu);
  return sink().records;
}

void add_spans(std::vector<SpanRecord> records) {
  std::lock_guard<std::mutex> lock(sink().mu);
  for (auto& r : records) sink().records.push_back(std::move(r));
}

void clear_spans() {
  std::lock_guard<std::mutex> lock(sink().mu);
  sink().records.clear();
}

std::vector<LayerRow> layer_table(const std::vector<SpanRecord>& records) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& r : records) {
    if (r.parent != 0) children[r.parent].push_back(&r);
  }
  std::map<std::string, LayerRow> rows;
  for (const SpanRecord& r : records) {
    LayerRow& row = rows[r.name];
    row.name = r.name;
    ++row.count;
    const double busy = r.end - r.start;
    row.busy_s += busy;
    // Children may overlap (several client threads under one segment),
    // so subtract the union of their intervals, clipped to the span.
    std::vector<std::pair<double, double>> cover;
    if (const auto it = children.find(r.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const double a = std::max(c->start, r.start);
        const double b = std::min(c->end, r.end);
        if (b > a) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    double reach = r.start;
    for (const auto& [a, b] : cover) {
      const double from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    row.self_s += busy - covered;
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  return out;
}

std::string encode_spans(const std::vector<SpanRecord>& records) {
  std::string out;
  char buf[160];
  for (const SpanRecord& r : records) {
    std::snprintf(buf, sizeof(buf), " %.9f %.9f %llu %llu %llu\n", r.start,
                  r.end, static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent),
                  static_cast<unsigned long long>(r.request));
    out += "span ";
    out += r.name;
    out += buf;
  }
  return out;
}

bool decode_span(std::string_view line, SpanRecord& out) {
  std::istringstream in{std::string(line)};
  std::string tag;
  if (!(in >> tag) || tag != "span") return false;
  unsigned long long id = 0, parent = 0, request = 0;
  if (!(in >> out.name >> out.start >> out.end >> id >> parent >> request)) {
    return false;
  }
  out.id = id;
  out.parent = parent;
  out.request = request;
  return true;
}

// --- memory ------------------------------------------------------------

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double children_peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- hashing -----------------------------------------------------------

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// --- closed-loop socket load --------------------------------------------

struct ClosedLoop::Client {
  std::unique_ptr<inspector::net::QueryClient> conn;
  std::size_t next = 0;
  std::atomic<double> inflight_since{0};
  bool dead = false;
};

ClosedLoop::ClosedLoop(std::string socket_path,
                       std::vector<std::vector<const Request*>> pools,
                       double warmup_s)
    : path_(std::move(socket_path)), pools_(std::move(pools)),
      warmup_s_(warmup_s) {
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    clients_.push_back(std::make_unique<Client>());
  }
}

ClosedLoop::~ClosedLoop() = default;

bool ClosedLoop::connect() {
  bool ok = true;
  for (auto& c : clients_) {
    auto conn = inspector::net::QueryClient::connect(path_);
    if (!conn.ok()) {
      c->dead = true;
      ok = false;
      continue;
    }
    c->conn = std::move(conn).value();
    c->dead = false;
  }
  return ok;
}

void ClosedLoop::run_segment(double seconds, LoadTally& tally,
                             double timeout_s,
                             const std::function<void()>& on_timeout,
                             const char* span_name) {
  const std::uint64_t parent = [] {
    // The caller's innermost open span parents every request span.
    return tl_current;
  }();
  const double start = mono_now();
  const double timed_from = start + std::min(warmup_s_, seconds / 2);
  const double deadline = start + seconds;
  std::vector<LoadTally> local(clients_.size());
  std::vector<std::thread> threads;
  std::atomic<bool> done{false};
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    threads.emplace_back([&, i] {
      SpanParent link(parent);
      Client& c = *clients_[i];
      LoadTally& t = local[i];
      const auto& pool = pools_[i];
      if (c.dead) {
        // One reconnect attempt per segment after a dropped link.
        auto conn = inspector::net::QueryClient::connect(path_);
        if (!conn.ok()) {
          ++t.attempted;
          ++t.failed;
          ++t.dropped;
          return;
        }
        c.conn = std::move(conn).value();
        c.dead = false;
      }
      while (mono_now() < deadline && !pool.empty()) {
        const Request& req = *pool[c.next];
        c.next = (c.next + 1) % pool.size();
        ++t.attempted;
        const double t0 = mono_now();
        c.inflight_since.store(t0);
        inspector::Result<std::string> reply = [&] {
          Span span(span_name, req.id);
          return c.conn->call(req.line);
        }();
        const double t1 = mono_now();
        c.inflight_since.store(0);
        if (!reply.ok()) {
          ++t.failed;
          ++t.dropped;
          c.dead = true;
          c.conn.reset();
          return;
        }
        if (reply->size() != req.reply_size ||
            fnv1a(*reply) != req.reply_hash) {
          ++t.failed;
          ++t.mismatched;
          continue;
        }
        if (t0 >= timed_from) t.latencies_us.push_back((t1 - t0) * 1e6);
      }
    });
  }
  std::thread watchdog([&] {
    bool fired = false;
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const double now = mono_now();
      for (const auto& c : clients_) {
        const double since = c->inflight_since.load();
        if (!fired && since > 0 && now - since > timeout_s) {
          fired = true;
          on_timeout();
        }
      }
    }
  });
  for (auto& th : threads) th.join();
  done.store(true);
  watchdog.join();
  tally.busy_s += mono_now() - timed_from;
  for (LoadTally& t : local) {
    tally.attempted += t.attempted;
    tally.failed += t.failed;
    tally.mismatched += t.mismatched;
    tally.dropped += t.dropped;
    tally.latencies_us.insert(tally.latencies_us.end(), t.latencies_us.begin(),
                              t.latencies_us.end());
  }
}

void ClosedLoop::close() {
  for (auto& c : clients_) {
    if (c->conn && !c->dead) (void)c->conn->goodbye();
    c->conn.reset();
  }
}

// --- result ------------------------------------------------------------

std::string json_number(double value) {
  if (!std::isfinite(value)) return "-1";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
