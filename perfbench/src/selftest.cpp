// Self-tests of the harness: order statistics, tail selection, derived
// differences, span self time, the result line, the peak-RSS reset,
// and failure accounting against a real server (an injected reply
// mismatch and a killed server must each count as failed).
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "core/inspector.h"
#include "harness.h"
#include "net/dispatcher.h"
#include "net/query_service.h"
#include "net/uds.h"
#include "query/engine.h"
#include "query/wire.h"
#include "shard/engine.h"
#include "shard/planner.h"
#include "shard/store.h"
#include "workloads/registry.h"

namespace perfbench {
namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cout << "FAIL " << what << "\n";
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void test_statistics() {
  check(near(median({3, 1, 2}), 2), "median of odd count");
  check(near(median({4, 1, 3, 2}), 2.5), "median of even count");
  check(near(trimmed_mean({100, 2, 3, 4, 1}, 0.2), 3),
        "trimmed mean drops one value from each end of five");
  check(near(trimmed_mean(ramp(10), 0.1), 5.5),
        "trimmed mean of 1..10 at 10 % is the mean of 2..9");
  check(near(trimmed_mean({1, 2, 9}, 0.1), 4), "trimmed mean of three drops none");
  check(near(trimmed_mean({7, 1}, 0.5), 4),
        "trimmed mean that would drop everything falls back to the median");
  check(std::isnan(trimmed_mean({}, 0.1)), "trimmed mean of nothing is NaN");
  // Reference values from Python's statistics.quantiles(v, n=4).
  const auto q1 = quartiles({1, 3, 5, 7, 9});
  check(near(q1[0], 2.0) && near(q1[1], 5.0) && near(q1[2], 8.0),
        "quartiles of 1,3,5,7,9");
  const auto q2 = quartiles(ramp(10));
  check(near(q2[0], 2.75) && near(q2[1], 5.5) && near(q2[2], 8.25),
        "quartiles of 1..10");
  const auto q3 = quartiles({1, 2});
  check(near(q3[0], 0.75) && near(q3[1], 1.5) && near(q3[2], 2.25),
        "quartiles of 1,2");
  const auto q4 = quartiles({5.0, 1.0, 4.0, 2.5});
  check(near(q4[0], 1.375) && near(q4[1], 3.25) && near(q4[2], 4.75),
        "quartiles of an unsorted sample");
}

void test_tail() {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
  auto t = tail_percentile(ramp(1000), 0);
  check(near(t.percentile, 99.0) && near(t.value, 990) && t.beyond == 10 &&
            t.samples == 1000,
        "tail of 1000 samples is p99");
  // 999 samples: p99 leaves 9, so the tail drops to p90.
  t = tail_percentile(ramp(999), 0);
  check(near(t.percentile, 90.0) && near(t.value, 900) && t.beyond == 99,
        "tail of 999 samples is p90");
  t = tail_percentile(ramp(10000), 0);
  check(near(t.percentile, 99.9) && near(t.value, 9990) && t.beyond == 10,
        "tail of 10000 samples is p99.9");
  t = tail_percentile(ramp(10000), 0, 99.0);
  check(near(t.percentile, 99.0) && near(t.value, 9900),
        "the cap keeps the tail at p99");
  t = tail_percentile(ramp(50), 0);
  check(near(t.percentile, 75.0) && t.beyond >= 10, "small samples fall to p75");
  t = tail_percentile(ramp(10), 0);
  check(t.percentile == 0 && t.samples == 10, "no tail below 11 samples");
  // Failures sit beyond every percentile.
  t = tail_percentile(ramp(995), 5);
  check(near(t.percentile, 99.0) && near(t.value, 990) && t.samples == 1000,
        "failures count beyond the tail");
  t = tail_percentile(ramp(985), 15);
  check(near(t.value, kFailedLatencyUs), "a failure can be the tail");
  const auto p50 = percentile_of(ramp(4), 0, 50);
  check(near(p50.value, 2) && p50.beyond == 2, "nearest-rank p50");
  const auto p50f = percentile_of(ramp(2), 2, 50);
  check(near(p50f.value, 2), "failures move the median");
}

void test_derived() {
  Measured m;
  m.socket_p50_us = 110;
  m.router_p50_us = 220;
  m.shard_p50_us = 3;
  m.graph_p50_us = 1.5;
  m.capture_s = 0.9;
  m.no_memtrack_s = 0.6;
  m.no_pt_s = 0.8;
  m.native_s = 0.3;
  const Derived d = derive(m);
  check(near(d.net_overhead_p50_us, 107), "net overhead = socket - shard");
  check(near(d.router_hop_p50_us, 110), "router hop = router - socket");
  check(near(d.resident_overhead_x, 2), "resident overhead = shard / graph");
  check(near(d.memtrack_cost_s, 0.3), "memtrack cost");
  check(near(d.ptsim_cost_s, 0.1), "ptsim cost");
  check(near(d.overhead_x, 3), "measured overhead");
}

void test_spans() {
  // Parent [0,10] with overlapping children [1,3], [2,5] and [8,12]:
  // covered = [1,5] + [8,10] = 6, so self = 4.
  std::vector<SpanRecord> r = {
      {"p", 0, 10, 1, 0, 0},
      {"c", 1, 3, 2, 1, 0},
      {"c", 2, 5, 3, 1, 0},
      {"c", 8, 12, 4, 1, 0},
  };
  const auto rows = layer_table(r);
  check(rows.size() == 2, "one row per span name");
  for (const auto& row : rows) {
    if (row.name == "p") {
      check(row.count == 1 && near(row.busy_s, 10) && near(row.self_s, 4),
            "self time subtracts the union of child intervals");
    } else {
      check(row.count == 3 && near(row.busy_s, 9) && near(row.self_s, 9),
            "leaf self time equals busy time");
    }
  }
  SpanRecord back;
  check(decode_span(encode_spans({r[1]}), back) && back.name == "c" &&
            back.parent == 1 && near(back.end, 3),
        "spans survive the child pipe encoding");
}

void test_result_line() {
  const std::string line = result_line(
      true, 3, 0, {{"a", 1.5, "s"}, {"b", 20493, "count"}});
  check(line ==
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": "
            "20493, \"unit\": \"count\"}}}",
        "result line format");
  check(json_number(0.1) == "0.10000000000000001", "all digits are kept");
}

void test_peak_reset() {
  const double before = peak_rss_mib();
  {
    std::vector<char> block(96u << 20, 1);
    for (std::size_t i = 0; i < block.size(); i += 4096) block[i] = 2;
    check(peak_rss_mib() >= before + 64, "touching 96 MiB raises VmHWM");
  }
  check(reset_peak_rss(), "clear_refs accepts 5");
  const double after = peak_rss_mib();
  check(after < before + 32, "VmHWM drops back after the reset");
}

/// A tiny served store for the failure-accounting tests.
struct Rig {
  std::shared_ptr<const inspector::cpg::Graph> graph;
  std::unique_ptr<inspector::net::QueryService> service;
  std::unique_ptr<inspector::net::ServeLoop> loop;
  std::vector<Request> requests;
};

bool make_rig(Rig& rig, const std::string& tag) {
  namespace fs = std::filesystem;
  inspector::workloads::WorkloadConfig config;
  config.threads = 2;
  config.scale = 0.05;
  const auto program = inspector::workloads::make_workload("histogram", config);
  auto result = inspector::core::Inspector().run(program);
  rig.graph = std::make_shared<const inspector::cpg::Graph>(
      std::move(*result.graph));
  const std::string dir = "selftest_" + tag;
  fs::remove_all(dir);
  if (!inspector::shard::write_store(*rig.graph, dir,
                                     inspector::shard::PlanOptions{3},
                                     inspector::shard::ShardCodec::kLz)
           .ok()) {
    return false;
  }
  auto store = inspector::shard::ShardStore::open(dir);
  if (!store.ok()) return false;
  rig.service = std::make_unique<inspector::net::QueryService>(
      std::make_shared<inspector::shard::ShardedQueryEngine>(*store));
  auto server = inspector::net::uds::Server::listen(tag + ".sock");
  if (!server.ok()) return false;
  rig.loop = std::make_unique<inspector::net::ServeLoop>(
      std::move(server).value(), *rig.service);
  rig.loop->start();
  inspector::query::QueryEngine reference(rig.graph);
  const auto nodes = rig.graph->nodes().size();
  for (std::uint64_t k = 0; k < 8; ++k) {
    Request r;
    r.id = k + 1;
    r.line = "{\"id\":" + std::to_string(r.id) +
             ",\"op\":\"latest_writers\",\"node\":" +
             std::to_string(k * 7 % nodes) + "}";
    const auto parsed = inspector::query::wire::parse_request(r.line);
    if (!parsed.ok()) return false;
    const auto reply = reference.run(
        std::get<inspector::query::Query>(parsed->op));
    const std::string bytes = inspector::query::wire::serialize_reply(r.id, reply);
    r.reply_hash = fnv1a(bytes);
    r.reply_size = bytes.size();
    rig.requests.push_back(std::move(r));
  }
  return true;
}

std::vector<std::vector<const Request*>> one_pool(const Rig& rig) {
  std::vector<const Request*> pool;
  for (const auto& r : rig.requests) pool.push_back(&r);
  return {pool};
}

void test_failure_accounting() {
  Rig rig;
  if (!make_rig(rig, "mismatch")) {
    check(false, "failure rig set-up");
    return;
  }
  const auto never = [] { check(false, "no request may time out"); };
  {
    ClosedLoop loop(rig.loop->path(), one_pool(rig));
    check(loop.connect(), "client connects");
    LoadTally clean;
    loop.run_segment(0.2, clean, 10, never, "selftest.call");
    check(clean.attempted > 0 && clean.failed == 0 &&
              clean.latencies_us.size() == clean.attempted,
          "matching replies count as successes");
    LoadTally warm;
    ClosedLoop warmed(rig.loop->path(), one_pool(rig), 0.1);
    check(warmed.connect(), "second client connects");
    warmed.run_segment(0.3, warm, 10, never, "selftest.call");
    check(warm.failed == 0 && warm.latencies_us.size() < warm.attempted &&
              warm.busy_s < 0.25,
          "warm-up requests are checked but not timed");
    warmed.close();
    // Inject one wrong expected reply: each send of it must fail.
    rig.requests[3].reply_hash ^= 1;
    LoadTally bad;
    loop.run_segment(0.2, bad, 10, never, "selftest.call");
    check(bad.failed >= 1 && bad.failed == bad.mismatched &&
              bad.dropped == 0 &&
              bad.latencies_us.size() + bad.failed == bad.attempted,
          "an injected reply mismatch counts as failed");
    rig.requests[3].reply_hash ^= 1;
    loop.close();
  }
  {
    ClosedLoop loop(rig.loop->path(), one_pool(rig));
    check(loop.connect(), "client reconnects");
    std::thread killer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      rig.loop->abort();
    });
    LoadTally killed;
    const double t0 = mono_now();
    loop.run_segment(0.5, killed, 10, never, "selftest.call");
    killer.join();
    check(killed.failed >= 1 && killed.dropped >= 1,
          "a killed server counts as failed");
    // The next segment cannot reconnect either; it must fail, not hang.
    loop.run_segment(0.1, killed, 10, never, "selftest.call");
    check(killed.dropped >= 2 && mono_now() - t0 < 5,
          "a dead server keeps failing without hanging");
    loop.close();
  }
}

}  // namespace

int run_selftest() {
  test_statistics();
  test_tail();
  test_derived();
  test_spans();
  test_result_line();
  test_peak_reset();
  test_failure_accounting();
  std::cout << (g_failures == 0 ? "selftest: all checks passed"
                                : "selftest: " + std::to_string(g_failures) +
                                      " check(s) failed")
            << "\n";
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
