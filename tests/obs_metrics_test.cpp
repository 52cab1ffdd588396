// Concurrency and rendering contract of the metrics registry
// (src/obs/metrics.h): many writer threads hammer one counter /
// gauge / histogram while reader threads take snapshots, and every
// snapshot a reader sees must be monotone (counters and histogram
// counts never decrease between successive snapshots) with the final
// quiesced values exact. Run under TSan in CI -- the registry's whole
// point is relaxed-atomic hot paths that are still race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace {

using namespace inspector::obs;

constexpr int kWriters = 8;  // CI asserts TSan-clean at >= 4 threads
constexpr std::uint64_t kOpsPerWriter = 20000;

/// The histogram series in `snap` named `name` (count 0 if absent).
Histogram::Snapshot find_histogram(const MetricsSnapshot& snap,
                                   const std::string& name) {
  for (const auto& s : snap.series) {
    if (s.name == name && s.kind == SeriesSnapshot::Kind::kHistogram) {
      return s.histogram;
    }
  }
  return {};
}

std::uint64_t find_counter(const MetricsSnapshot& snap,
                           const std::string& name) {
  for (const auto& s : snap.series) {
    if (s.name == name && s.kind == SeriesSnapshot::Kind::kCounter) {
      return s.counter_value;
    }
  }
  return 0;
}

TEST(ObsMetrics, ConcurrentWritersWithSnapshotReaders) {
  Registry registry;
  Counter& counter = registry.counter("test_ops_total");
  Gauge& gauge = registry.gauge("test_level");
  Histogram& histogram = registry.histogram("test_latency_us");

  std::atomic<bool> stop{false};
  std::atomic<int> monotonicity_violations{0};

  // Two concurrent readers: each asserts its own snapshot sequence is
  // monotone while the writers are mid-flight.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_counter = 0;
      std::uint64_t last_hist_count = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const MetricsSnapshot snap = registry.snapshot();
        const std::uint64_t c = find_counter(snap, "test_ops_total");
        const Histogram::Snapshot h =
            find_histogram(snap, "test_latency_us");
        if (c < last_counter || h.count < last_hist_count) {
          monotonicity_violations.fetch_add(1, std::memory_order_relaxed);
        }
        last_counter = c;
        last_hist_count = h.count;
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kOpsPerWriter; ++i) {
        counter.add();
        gauge.set(static_cast<std::int64_t>(w * kOpsPerWriter + i));
        histogram.observe(i % 1000);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(monotonicity_violations.load(), 0);

  // Writers quiesced: totals are exact, not approximate.
  constexpr std::uint64_t kTotal = kWriters * kOpsPerWriter;
  EXPECT_EQ(counter.value(), kTotal);
  const Histogram::Snapshot h = histogram.snapshot();
  EXPECT_EQ(h.count, kTotal);
  std::uint64_t want_sum = 0;
  for (std::uint64_t i = 0; i < kOpsPerWriter; ++i) want_sum += i % 1000;
  EXPECT_EQ(h.sum, want_sum * kWriters);
  // The gauge high-water mark is the largest value any writer set.
  EXPECT_EQ(gauge.max_value(), kWriters * kOpsPerWriter - 1);
}

TEST(ObsMetrics, SameNameReturnsSameSeries) {
  Registry registry;
  Counter& a = registry.counter("dup_total");
  Counter& b = registry.counter("dup_total");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);

  Histogram& ha = registry.histogram("dup_us");
  Histogram& hb = registry.histogram("dup_us");
  EXPECT_EQ(&ha, &hb);
}

TEST(ObsMetrics, HistogramBucketsAndPercentiles) {
  Histogram h;
  // 90 fast observations and 10 slow ones: p50 lands in the fast
  // bucket, p99 in the slow one. Bounds are conservative (<=).
  for (int i = 0; i < 90; ++i) h.observe(3);    // bucket bound 4
  for (int i = 0; i < 10; ++i) h.observe(900);  // bucket bound 1024
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 90u * 3 + 10u * 900);
  EXPECT_EQ(s.percentile(0.50), 4u);
  EXPECT_EQ(s.percentile(0.99), 1024u);
  EXPECT_EQ(s.percentile(0.0), 4u);  // rank floors at 1
}

TEST(ObsMetrics, GaugeTracksLevelAndHighWater) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max_value(), 15);
  g.add(-7);
  EXPECT_EQ(g.value(), -5);
  EXPECT_EQ(g.max_value(), 15);
}

TEST(ObsMetrics, PrometheusRenderingComposesEmbeddedLabels) {
  Registry registry;
  registry.counter("plain_total").add(2);
  registry.gauge("level").set(-3);
  registry.histogram("latency_us{kind=\"races\"}").observe(3);

  const std::string text = to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("plain_total 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("level -3\n"), std::string::npos) << text;
  // The embedded label pair merges with the le label on buckets and
  // stays alone on _sum/_count.
  EXPECT_NE(text.find("latency_us_bucket{kind=\"races\",le=\"4\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_us_bucket{kind=\"races\",le=\"+Inf\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_us_sum{kind=\"races\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_us_count{kind=\"races\"} 1\n"),
            std::string::npos)
      << text;
}

TEST(ObsMetrics, JsonSnapshotGroupsByKind) {
  Registry registry;
  registry.counter("c_total").add(5);
  registry.gauge("g").set(7);
  Histogram& h = registry.histogram("h_us");
  h.observe(100);
  h.observe(200);

  const std::string json = to_json(registry.snapshot());
  EXPECT_NE(json.find("\"counters\":{\"c_total\":5}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gauges\":{\"g\":7}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h_us\":{\"count\":2,\"sum\":300"),
            std::string::npos)
      << json;
}


/// The exact exposition of a fixed registry, text for text, so a
/// rewrite of the renderers cannot drift a byte.
Registry& fixed_registry(Registry& registry) {
  registry.counter("plain_total").add(2);
  registry.counter("rpc_total{op=\"races\"}").add(11);
  registry.gauge("level").set(-3);
  Histogram& h = registry.histogram("latency_us{kind=\"races\"}");
  h.observe(3);
  h.observe(900);
  return registry;
}

TEST(ObsMetrics, PrometheusTextIsExact) {
  Registry registry;
  const std::string text = to_prometheus(fixed_registry(registry).snapshot());
  EXPECT_EQ(text, R"(latency_us_bucket{kind="races",le="1"} 0
latency_us_bucket{kind="races",le="2"} 0
latency_us_bucket{kind="races",le="4"} 1
latency_us_bucket{kind="races",le="8"} 1
latency_us_bucket{kind="races",le="16"} 1
latency_us_bucket{kind="races",le="32"} 1
latency_us_bucket{kind="races",le="64"} 1
latency_us_bucket{kind="races",le="128"} 1
latency_us_bucket{kind="races",le="256"} 1
latency_us_bucket{kind="races",le="512"} 1
latency_us_bucket{kind="races",le="1024"} 2
latency_us_bucket{kind="races",le="2048"} 2
latency_us_bucket{kind="races",le="4096"} 2
latency_us_bucket{kind="races",le="8192"} 2
latency_us_bucket{kind="races",le="16384"} 2
latency_us_bucket{kind="races",le="32768"} 2
latency_us_bucket{kind="races",le="65536"} 2
latency_us_bucket{kind="races",le="131072"} 2
latency_us_bucket{kind="races",le="262144"} 2
latency_us_bucket{kind="races",le="524288"} 2
latency_us_bucket{kind="races",le="1048576"} 2
latency_us_bucket{kind="races",le="2097152"} 2
latency_us_bucket{kind="races",le="4194304"} 2
latency_us_bucket{kind="races",le="8388608"} 2
latency_us_bucket{kind="races",le="16777216"} 2
latency_us_bucket{kind="races",le="33554432"} 2
latency_us_bucket{kind="races",le="67108864"} 2
latency_us_bucket{kind="races",le="+Inf"} 2
latency_us_sum{kind="races"} 903
latency_us_count{kind="races"} 2
level -3
plain_total 2
rpc_total{op="races"} 11
)");
}

TEST(ObsMetrics, JsonTextIsExact) {
  Registry registry;
  const std::string json = to_json(fixed_registry(registry).snapshot());
  EXPECT_EQ(json,
            R"({"counters":{"plain_total":2,"rpc_total{op=\"races\"}":11},)"
            R"("gauges":{"level":-3},)"
            R"("histograms":{"latency_us{kind=\"races\"}":)"
            R"({"count":2,"sum":903,"p50":4,"p90":1024,"p99":1024}}})");
}

}  // namespace
