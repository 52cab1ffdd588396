// perfbench: one command that measures the pipeline from capture to a
// reply on the client's socket, end to end and per layer.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --workdir DIR [--trace-file FILE]
//   perfbench selftest --workdir DIR
//
// Every workload runs the same stretches -- capture (executor, memtrack,
// PT, CPG) -> shard write -> store open -> query engine -> socket ->
// router -- and drives one of them hard (see README.md for why each
// exists). Captures run cold, each in a child forked before this
// process starts any thread; serving runs in this process behind real
// sockets, in closed loops that check every reply.
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <tuple>
#include <string>
#include <vector>

#include "core/inspector.h"
#include "cpg/serialize.h"
#include "harness.h"
#include "net/dispatcher.h"
#include "net/query_service.h"
#include "net/router.h"
#include "net/uds.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "query/wire.h"
#include "shard/engine.h"
#include "shard/fsck.h"
#include "shard/planner.h"
#include "shard/store.h"
#include "workloads/registry.h"

namespace fs = std::filesystem;
namespace insp = inspector;
using namespace perfbench;

namespace {

// --- workload definitions ------------------------------------------------

constexpr std::uint32_t kProgramThreads = 4;
constexpr std::uint32_t kShards = 8;
constexpr std::uint64_t kScheduleSeed = 0;  ///< fixed; the seed varies inputs
constexpr int kSetups = 9;  ///< identical set-ups per run (setup_s)
/// Share of the cold capture reps dropped from each end before their
/// times are averaged into capture_s and ingest_s.
constexpr double kRepTrim = 0.1;
constexpr double kRequestTimeoutS = 30;
constexpr double kSegmentWarmupS = 0.1;

struct ProgramSpec {
  const char* name;
  double scale;
};

enum class Kind {
  kLatestWriters,
  kDataDependencies,
  kPageAccessors,
  kHappensBefore,
  kBackwardSlice,
  kForwardSlice,
  kTaint,
  kInvalidate,
  kRaces,
};

struct WorkloadSpec {
  std::string name;
  std::vector<ProgramSpec> programs;  ///< captured cold in every rep
  std::size_t served = 0;             ///< program whose store is served
  std::vector<Kind> mix;              ///< equal shares
  std::size_t connections = 1;
  std::size_t pool_per_connection = 0;
  double budget_fraction = 0;  ///< of the decoded store; 0 = unlimited
  /// Capture reps: 0 = as many as fit in capture_share of the run.
  int fixture_reps = 0;
  double capture_share = 0;  ///< of --seconds spent capturing
  int segments = 12;         ///< served window, alternating socket/router
  /// Highest tail percentile reported: the rung the smallest expected
  /// socket or router sample of this workload supports, or a lower one
  /// where that rung would only time host stalls.
  double tail_cap = 99.9;
};

const std::vector<Kind> kLookupMix = {Kind::kLatestWriters,
                                      Kind::kDataDependencies,
                                      Kind::kPageAccessors,
                                      Kind::kHappensBefore};

WorkloadSpec spec_of(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "capture") {
    s.programs = {{"word_count", 10},
                  {"canneal", 40},
                  {"streamcluster", 1},
                  {"kmeans", 0.5}};
    s.served = 1;
    s.mix = kLookupMix;
    s.connections = 1;
    s.pool_per_connection = 4096;
    s.capture_share = 0.6;
    s.segments = 8;
    // One idle-waiting connection answers in ~80 us, so its p99 is the
    // first host stall: 125-180 us on quiet runs, milliseconds when
    // other guests steal a few percent of the CPU. p90 stays in the
    // body of the distribution.
    s.tail_cap = 90;
  } else if (name == "lookup") {
    s.programs = {{"word_count", 10}};
    s.mix = kLookupMix;
    s.connections = 2;
    s.pool_per_connection = 4096;
    s.fixture_reps = 31;
    s.tail_cap = 99;
  } else if (name == "analysis") {
    s.programs = {{"canneal", 10}};
    // Only the ms-scale kinds whose cost order holds under host
    // contention, so the median stays on backward slices. Taint and
    // invalidate (parallel kernels that slow most when the host is
    // busy) are served on out_of_core and measured per layer.
    s.mix = {Kind::kBackwardSlice, Kind::kForwardSlice, Kind::kRaces};
    s.connections = 1;
    s.pool_per_connection = 512;
    // canneal@10 captures in ~80 ms with a wide cold-start spread.
    s.fixture_reps = 41;
    s.tail_cap = 90;
  } else if (name == "out_of_core") {
    s.programs = {{"word_count", 10}};
    s.mix = {Kind::kLatestWriters, Kind::kDataDependencies,
             Kind::kPageAccessors, Kind::kTaint, Kind::kInvalidate};
    s.connections = 1;
    s.pool_per_connection = 512;
    s.budget_fraction = 0.5;
    s.fixture_reps = 31;
    s.tail_cap = 90;
  } else {
    s.name.clear();
  }
  return s;
}

/// The analysis fixture: the store the out-of-core slice probe reads.
constexpr ProgramSpec kSliceProbe{"canneal", 10};

insp::runtime::Program make_program(const ProgramSpec& p, std::uint64_t seed) {
  insp::workloads::WorkloadConfig config;
  config.threads = kProgramThreads;
  config.seed = seed;
  config.scale = p.scale;
  return insp::workloads::make_workload(p.name, config);
}

// --- cold capture reps (forked children) -------------------------------

enum class RepKind { kFull, kNative, kNoMemtrack, kNoPt, kSetup };

const char* rep_name(RepKind k) {
  switch (k) {
    case RepKind::kFull: return "full";
    case RepKind::kNative: return "native";
    case RepKind::kNoMemtrack: return "no_memtrack";
    case RepKind::kNoPt: return "no_pt";
    case RepKind::kSetup: return "setup";
  }
  return "?";
}

/// One program of one rep, as the child reports it.
struct ProgramRep {
  std::string name;
  std::map<std::string, double> v;  ///< capture_s, write_s, nodes, ...
};

struct RepResult {
  RepKind kind = RepKind::kFull;
  bool traced = false;
  bool ok = false;
  std::string error;
  std::string dir;
  std::vector<ProgramRep> programs;
  double setup_s = 0;
  double maxrss_mib = 0;  ///< the child's own peak RSS

  [[nodiscard]] double sum(const char* key) const {
    double total = 0;
    for (const auto& p : programs) {
      const auto it = p.v.find(key);
      if (it != p.v.end()) total += it->second;
    }
    return total;
  }
};

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

void write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = write(fd, text.data() + off, text.size() - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

/// Body of a capture child. Writes "key value" lines to `out`.
/// Everything after the timed calls (fsck, byte counts) is untimed.
void child_rep(const std::vector<ProgramSpec>& programs, std::size_t served,
               RepKind kind, std::uint64_t seed, const std::string& dir,
               bool index_probe, std::ostream& out) {
  if (kind == RepKind::kSetup) {
    const double t0 = mono_now();
    {
      Span span("workloads.make_suite");
      std::vector<insp::runtime::Program> suite;
      for (const auto& p : programs) suite.push_back(make_program(p, seed));
      insp::core::Options options;
      options.schedule_seed = kScheduleSeed;
      const insp::core::Inspector inspector(options);
      (void)inspector;
    }
    out << "setup_s " << mono_now() - t0 << "\n";
    return;
  }
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const ProgramSpec& p = programs[i];
    const auto program = make_program(p, seed);
    insp::core::Options options;
    options.schedule_seed = kScheduleSeed;
    options.enable_memtrack = kind != RepKind::kNoMemtrack;
    options.enable_pt = kind != RepKind::kNoPt;
    const insp::core::Inspector inspector(options);
    std::ostringstream line;
    line.precision(17);
    line << "prog " << p.name;
    const double t0 = mono_now();
    insp::runtime::ExecutionResult result;
    if (kind == RepKind::kNative) {
      Span span("runtime.run_native");
      result = inspector.run_native(program);
    } else {
      Span span(kind == RepKind::kFull         ? "runtime.run"
                : kind == RepKind::kNoMemtrack ? "runtime.run_no_memtrack"
                                               : "runtime.run_no_pt");
      result = inspector.run(program);
    }
    const double t1 = mono_now();
    const auto& st = result.stats;
    line << " time_s " << t1 - t0 << " sim_ns " << st.sim_time_ns;
    if (kind == RepKind::kFull) {
      const auto& graph = *result.graph;
      const std::string store = dir + "/" + p.name;
      insp::Result<insp::shard::Manifest> manifest = [&] {
        Span span("shard.write_store");
        return insp::shard::write_store(graph, store,
                                        insp::shard::PlanOptions{kShards},
                                        insp::shard::ShardCodec::kLz);
      }();
      const double t2 = mono_now();
      if (!manifest.ok()) {
        throw std::runtime_error("write_store: " + manifest.status().message());
      }
      {
        Span span("shard.open");
        auto opened = insp::shard::ShardStore::open(store);
        if (!opened.ok()) {
          throw std::runtime_error("open: " + opened.status().message());
        }
      }
      const double t3 = mono_now();
      const auto report = insp::shard::fsck(store);
      if (!report.ok() || !report->clean()) {
        throw std::runtime_error("fsck: store " + store + " is not clean");
      }
      if (st.pt_overflows != 0) {
        throw std::runtime_error("ptsim: AUX ring overflowed");
      }
      std::uint64_t encoded = 0;
      std::uint64_t decoded = 0;
      for (const auto& s : manifest->shards) {
        encoded += s.byte_size;
        decoded += s.decoded_bytes;
      }
      const auto nodes = graph.nodes().size();
      line << " write_s " << t2 - t1 << " open_s " << t3 - t2 << " nodes "
           << nodes << " store_bytes " << dir_bytes(store) << " encoded "
           << encoded << " decoded " << decoded << " faults "
           << st.page_faults << " commits " << st.commits << " committed "
           << st.bytes_committed << " pt_bytes " << st.pt_bytes
           << " overflows " << st.pt_overflows << " sync_ops " << st.sync_ops;
      if (index_probe) {
        auto nodes_copy = graph.nodes();
        auto edges_copy = graph.edges();
        auto schedule_copy = graph.schedule();
        const double b0 = mono_now();
        {
          Span span("cpg.graph_build");
          const insp::cpg::Graph rebuilt(std::move(nodes_copy),
                                         std::move(edges_copy),
                                         std::move(schedule_copy));
          (void)rebuilt;
        }
        line << " index_s " << mono_now() - b0;
      }
      if (i == served) {
        const auto bytes = insp::cpg::serialize(graph);
        std::ofstream f(dir + "/served.cpg", std::ios::binary);
        f.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        if (!f) throw std::runtime_error("cannot write served.cpg");
      }
    }
    out << line.str() << "\n";
  }
}

/// Fork a child that runs one rep and reports through a pipe. Must be
/// called while this process has no threads besides the main one.
RepResult run_rep(const std::vector<ProgramSpec>& programs,
                  std::size_t served, RepKind kind, std::uint64_t seed,
                  const std::string& dir, bool traced) {
  RepResult r;
  r.kind = kind;
  r.traced = traced;
  r.dir = dir;
  int fds[2];
  if (pipe(fds) != 0) {
    r.error = "pipe failed";
    return r;
  }
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) {
    r.error = "fork failed";
    return r;
  }
  if (pid == 0) {
    close(fds[0]);
    clear_spans();  // report only this child's own spans
    set_tracing(traced);
    std::ostringstream out;
    out.precision(17);
    int code = 0;
    try {
      fs::create_directories(dir);
      child_rep(programs, served, kind, seed, dir, traced, out);
    } catch (const std::exception& e) {
      out << "error " << e.what() << "\n";
      code = 1;
    }
    write_all(fds[1], out.str() + encode_spans(spans()));
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[65536];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  wait4(pid, &status, 0, &usage);
  r.maxrss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const bool exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  std::istringstream in(text);
  std::string line;
  std::vector<SpanRecord> child_spans;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "prog") {
      ProgramRep p;
      ls >> p.name;
      std::string key;
      double value = 0;
      while (ls >> key >> value) p.v[key] = value;
      r.programs.push_back(std::move(p));
    } else if (tag == "setup_s") {
      ls >> r.setup_s;
    } else if (tag == "error") {
      std::getline(ls, r.error);
    } else if (SpanRecord s; decode_span(line, s)) {
      child_spans.push_back(std::move(s));
    }
  }
  add_spans(std::move(child_spans));
  r.ok = exited_ok && r.error.empty() &&
         (kind == RepKind::kSetup || r.programs.size() == programs.size());
  if (!r.ok && r.error.empty()) {
    r.error = "child exited with status " + std::to_string(status);
  }
  return r;
}

// --- the served system ---------------------------------------------------

/// One set-up: the store opened for a single-process QueryService, and
/// a RouterService over two shard-range workers, each on its own store.
struct ServedSystem {
  std::shared_ptr<insp::shard::ShardStore> store;
  std::shared_ptr<insp::shard::ShardedQueryEngine> engine;
  std::unique_ptr<insp::net::QueryService> service;
  std::unique_ptr<insp::net::ServeLoop> loop;

  std::vector<std::shared_ptr<insp::shard::ShardStore>> worker_stores;
  std::vector<std::unique_ptr<insp::net::QueryService>> worker_services;
  std::vector<std::unique_ptr<insp::net::ServeLoop>> worker_loops;
  std::unique_ptr<insp::net::RouterService> router;
  std::unique_ptr<insp::net::ServeLoop> router_loop;

  std::string socket_path;
  std::string router_path;

  ServedSystem() = default;
  ServedSystem(const ServedSystem&) = delete;
  ServedSystem& operator=(const ServedSystem&) = delete;
  ~ServedSystem() { stop(); }

  void stop() {
    if (router_loop) router_loop->stop();
    router_loop.reset();
    router.reset();
    for (auto& l : worker_loops) l->stop();
    worker_loops.clear();
    worker_services.clear();
    worker_stores.clear();
    if (loop) loop->stop();
    loop.reset();
    service.reset();
    engine.reset();
    store.reset();
  }
};

constexpr std::uint32_t kRouterWorkers = 2;

insp::Status warm(insp::shard::ShardStore& store) {
  for (std::uint32_t k = 0; k < store.manifest().shard_count; ++k) {
    auto loaded = store.load(k);
    if (!loaded.ok()) return loaded.status();
  }
  return insp::Status();
}

/// Open, build, start and warm everything a served run needs.
std::unique_ptr<ServedSystem> set_up(const std::string& store_dir,
                                     std::uint64_t budget,
                                     const std::string& tag,
                                     std::string& error) {
  auto sys = std::make_unique<ServedSystem>();
  insp::shard::StoreOptions options;
  options.memory_budget_bytes = budget;
  auto open = [&](std::shared_ptr<insp::shard::ShardStore>& out) {
    Span span("shard.open");
    auto s = insp::shard::ShardStore::open(store_dir, options);
    if (!s.ok()) {
      error = "open: " + s.status().message();
      return false;
    }
    out = std::move(s).value();
    return true;
  };
  auto listen = [&](const std::string& path, insp::net::rpc::Service& svc,
                    std::unique_ptr<insp::net::ServeLoop>& out) {
    Span span("net.listen");
    auto server = insp::net::uds::Server::listen(path);
    if (!server.ok()) {
      error = "listen: " + server.status().message();
      return false;
    }
    out = std::make_unique<insp::net::ServeLoop>(std::move(server).value(), svc);
    out->start();
    return true;
  };
  if (!open(sys->store)) return nullptr;
  sys->engine = std::make_shared<insp::shard::ShardedQueryEngine>(sys->store);
  sys->service = std::make_unique<insp::net::QueryService>(sys->engine);
  sys->socket_path = "s" + tag + ".sock";
  if (!listen(sys->socket_path, *sys->service, sys->loop)) return nullptr;

  std::vector<insp::net::WorkerEndpoint> endpoints;
  const std::uint32_t shards = sys->store->manifest().shard_count;
  for (std::uint32_t w = 0; w < kRouterWorkers; ++w) {
    std::shared_ptr<insp::shard::ShardStore> ws;
    if (!open(ws)) return nullptr;
    sys->worker_services.push_back(std::make_unique<insp::net::QueryService>(
        std::make_shared<insp::shard::ShardedQueryEngine>(ws)));
    sys->worker_stores.push_back(std::move(ws));
    insp::net::WorkerEndpoint ep;
    ep.socket_path = "w" + tag + "_" + std::to_string(w) + ".sock";
    ep.shard_lo = shards * w / kRouterWorkers;
    ep.shard_hi = shards * (w + 1) / kRouterWorkers;
    std::unique_ptr<insp::net::ServeLoop> wl;
    if (!listen(ep.socket_path, *sys->worker_services.back(), wl)) {
      return nullptr;
    }
    sys->worker_loops.push_back(std::move(wl));
    endpoints.push_back(std::move(ep));
  }
  sys->router = std::make_unique<insp::net::RouterService>(
      sys->store->manifest(), std::move(endpoints));
  sys->router_path = "r" + tag + ".sock";
  if (!listen(sys->router_path, *sys->router, sys->router_loop)) {
    return nullptr;
  }
  // Warm-up: every shard of every store loaded once.
  Span span("shard.warm_up");
  std::vector<insp::shard::ShardStore*> stores = {sys->store.get()};
  for (const auto& ws : sys->worker_stores) stores.push_back(ws.get());
  for (insp::shard::ShardStore* s : stores) {
    if (auto st = warm(*s); !st.ok()) {
      error = "warm-up: " + st.message();
      return nullptr;
    }
  }
  return sys;
}

// --- requests --------------------------------------------------------------

const char* kind_op(Kind k) {
  switch (k) {
    case Kind::kLatestWriters: return "latest_writers";
    case Kind::kDataDependencies: return "data_dependencies";
    case Kind::kPageAccessors: return "page_accessors";
    case Kind::kHappensBefore: return "happens_before";
    case Kind::kBackwardSlice: return "backward_slice";
    case Kind::kForwardSlice: return "forward_slice";
    case Kind::kTaint: return "taint";
    case Kind::kInvalidate: return "invalidate";
    case Kind::kRaces: return "races";
  }
  return "?";
}

/// Stratified draws from [0, n): `strata` equal strata, visited in a
/// seeded shuffled order, one uniform draw inside each. A slice's cost
/// depends on where its node sits in the history, so plain uniform
/// draws let one seed ask for costlier requests than another; strata
/// make every seed cover the history evenly, and any prefix of the
/// cycle is still a random sample of it.
class Strata {
 public:
  Strata(std::size_t strata, std::mt19937_64& rng) : order_(strata) {
    for (std::size_t i = 0; i < strata; ++i) order_[i] = i;
    std::shuffle(order_.begin(), order_.end(), rng);
  }

  std::uint64_t draw(std::uint64_t n, std::mt19937_64& rng) {
    const double s = static_cast<double>(order_[next_++ % order_.size()]);
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    const auto v = static_cast<std::uint64_t>(
        (s + u) * static_cast<double>(n) / static_cast<double>(order_.size()));
    return std::min(v, n - 1);
  }

 private:
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
};

std::string request_line(Kind kind, std::uint64_t id, std::mt19937_64& rng,
                         Strata& node_strata, Strata& page_strata,
                         std::uint64_t nodes,
                         const std::vector<std::uint64_t>& pages) {
  auto node = [&] { return std::to_string(node_strata.draw(nodes, rng)); };
  auto page = [&] {
    return std::to_string(pages[page_strata.draw(pages.size(), rng)]);
  };
  std::string body = "{\"id\":" + std::to_string(id) + ",\"op\":\"" +
                     kind_op(kind) + "\"";
  switch (kind) {
    case Kind::kLatestWriters:
    case Kind::kDataDependencies:
    case Kind::kBackwardSlice:
    case Kind::kForwardSlice:
      body += ",\"node\":" + node();
      break;
    case Kind::kPageAccessors:
      body += ",\"page\":" + page();
      break;
    case Kind::kHappensBefore:
      body += ",\"first\":" + node() + ",\"second\":" +
              std::to_string(rng() % nodes);
      break;
    case Kind::kTaint:
      body += ",\"seed_pages\":[" + page() + "]";
      break;
    case Kind::kInvalidate:
      body += ",\"changed_pages\":[" + page() + "]";
      break;
    case Kind::kRaces:
      body += ",\"ignored_pages\":[" + page() + "]";
      break;
  }
  return body + "}";
}

struct Pool {
  std::vector<Request> requests;
  std::vector<std::vector<const Request*>> per_connection;
  double items_per_request = 0;
  double reply_bytes_per_request = 0;
};

/// Draw the seeded request mix and compute every expected reply with
/// the in-memory engine on the fixture graph.
bool make_pool(const WorkloadSpec& spec, std::uint64_t seed,
               insp::query::QueryEngine& reference,
               const insp::shard::Manifest& manifest, Pool& pool,
               std::string& error) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const std::vector<std::uint64_t> pages(manifest.pages.begin(),
                                         manifest.pages.end());
  if (pages.empty() || manifest.total_nodes == 0) {
    error = "fixture has no pages or nodes";
    return false;
  }
  const std::size_t connections = spec.connections;
  const std::size_t per_connection = spec.pool_per_connection;
  const std::size_t total = connections * per_connection;
  const std::size_t kinds = spec.mix.size();
  const std::size_t per_kind = (per_connection + kinds - 1) / kinds;
  std::vector<insp::query::QueryEngine::BatchItem> batch;
  std::vector<Strata> node_strata, page_strata;
  for (std::size_t k = 0; k < total; ++k) {
    if (k % per_connection == 0) {
      // Each connection's cycle covers the history once per kind.
      node_strata.clear();
      page_strata.clear();
      for (std::size_t i = 0; i < kinds; ++i) {
        node_strata.emplace_back(per_kind, rng);
        page_strata.emplace_back(per_kind, rng);
      }
    }
    const std::size_t kind = k % per_connection % kinds;
    Request r;
    r.id = k + 1;
    r.line = request_line(spec.mix[kind], r.id, rng, node_strata[kind],
                          page_strata[kind], manifest.total_nodes, pages);
    auto parsed = insp::query::wire::parse_request(r.line);
    if (!parsed.ok() ||
        !std::holds_alternative<insp::query::Query>(parsed->op)) {
      error = "bad request line " + r.line;
      return false;
    }
    insp::query::QueryEngine::BatchItem item;
    item.query = std::get<insp::query::Query>(parsed->op);
    item.options.skip_cache = true;
    batch.push_back(std::move(item));
    pool.requests.push_back(std::move(r));
  }
  const auto replies =
      reference.run_batch(insp::query::QueryEngine::kDefaultSession, batch);
  double items = 0;
  double bytes = 0;
  for (std::size_t k = 0; k < total; ++k) {
    if (!replies[k].ok()) {
      error = "reference engine failed on " + pool.requests[k].line + ": " +
              replies[k].status().message();
      return false;
    }
    const std::string line =
        insp::query::wire::serialize_reply(pool.requests[k].id, replies[k]);
    pool.requests[k].reply_hash = fnv1a(line);
    pool.requests[k].reply_size = line.size();
    items += static_cast<double>(replies[k]->total_items);
    bytes += static_cast<double>(line.size());
  }
  pool.items_per_request = items / static_cast<double>(total);
  pool.reply_bytes_per_request = bytes / static_cast<double>(total);
  // Connection c takes a contiguous run of the pool, so each connection
  // cycles through every kind of the mix in equal shares.
  pool.per_connection.assign(connections, {});
  for (std::size_t k = 0; k < total; ++k) {
    pool.per_connection[k / per_connection].push_back(&pool.requests[k]);
  }
  return true;
}

/// In-process pass: parse, run on `engine` (cache bypassed), serialize,
/// check; for up to `seconds`.
struct InProcess {
  std::vector<double> parse_us, run_us, serialize_us;
  std::size_t attempted = 0, failed = 0;
};

void in_process_pass(insp::query::QueryEngine& engine,
                     const std::vector<Request>& requests, double seconds,
                     const char* run_span, InProcess& out) {
  const double deadline = mono_now() + seconds;
  for (std::size_t k = 0; k < requests.size() && mono_now() < deadline; ++k) {
    const Request& req = requests[k];
    ++out.attempted;
    const double t0 = mono_now();
    auto parsed = [&] {
      Span span("query.parse_request", req.id);
      return insp::query::wire::parse_request(req.line);
    }();
    const double t1 = mono_now();
    if (!parsed.ok()) {
      ++out.failed;
      continue;
    }
    insp::query::QueryOptions options;
    options.skip_cache = true;
    auto reply = [&] {
      Span span(run_span, req.id);
      return engine.run(std::get<insp::query::Query>(parsed->op), options);
    }();
    const double t2 = mono_now();
    const std::string line = [&] {
      Span span("query.serialize_reply", req.id);
      return insp::query::wire::serialize_reply(req.id, reply);
    }();
    const double t3 = mono_now();
    if (line.size() != req.reply_size || fnv1a(line) != req.reply_hash) {
      ++out.failed;
      continue;
    }
    out.parse_us.push_back((t1 - t0) * 1e6);
    out.run_us.push_back((t2 - t1) * 1e6);
    out.serialize_us.push_back((t3 - t2) * 1e6);
  }
}

std::uint64_t counter(const char* name) {
  return insp::obs::Registry::global().counter(name).value();
}

// --- the run ---------------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string trace_file;
};

/// Metric name -> value.
using Metrics = std::map<std::string, double>;

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"capture_s", "s"},
    {"ingest_s", "s"},
    {"store_bytes_per_node", "B/node"},
    {"peak_rss_mb", "MiB"},
    {"socket_qps", "req/s"},
    {"socket_p50_us", "us"},
    {"socket_tail_us", "us"},
    {"router_qps", "req/s"},
    {"router_p50_us", "us"},
    {"router_tail_us", "us"},
};

const std::vector<const char*> kKernelKinds = {
    "backward_slice", "forward_slice", "taint",
    "invalidate",     "races",         "critical_path"};

std::vector<std::pair<std::string, std::string>> per_layer_names() {
  std::vector<std::pair<std::string, std::string>> out = {
      {"runtime.native_s", "s"},
      {"runtime.capture_s", "s"},
      {"runtime.overhead_x", "x"},
      {"runtime.modelled_overhead_x", "x"},
      {"memtrack.cost_s", "s"},
      {"memtrack.faults_per_node", "1/node"},
      {"memtrack.commits_per_node", "1/node"},
      {"memtrack.committed_bytes_per_node", "B/node"},
      {"ptsim.cost_s", "s"},
      {"ptsim.bytes_per_node", "B/node"},
      {"ptsim.overflows", "count"},
      {"sync.ops_per_node", "1/node"},
      {"cpg.index_build_s", "s"},
      {"shard.write_s", "s"},
      {"shard.open_s", "s"},
      {"snapshot.lz_ratio", "x"},
      {"query.parse_us", "us"},
      {"query.serialize_us", "us"},
      {"query.shard_p50_us", "us"},
      {"query.shard_tail_us", "us"},
      {"query.graph_p50_us", "us"},
      {"query.graph_tail_us", "us"},
      {"shard.resident_overhead_x", "x"},
      {"query.cache_hit_ratio", "ratio"},
      {"net.overhead_p50_us", "us"},
      {"net.bytes_per_request", "B/req"},
      {"net.router_hop_p50_us", "us"},
      {"query.items_per_request", "1/req"},
      {"query.reply_bytes_per_request", "B/req"},
      {"util.pool_jobs_per_request", "1/req"},
      {"shard.loads_per_request", "1/req"},
      {"shard.hit_ratio", "ratio"},
      {"shard.evictions_per_request", "1/req"},
      {"shard.peak_over_budget", "x"},
      {"shard.retries", "count"},
      {"shard.quarantined", "count"},
      {"shard.load_us", "us"},
  };
  for (const char* k : kKernelKinds) {
    out.emplace_back(std::string("analysis.") + k + "_p50_us", "us");
  }
  for (const char* k : kKernelKinds) {
    out.emplace_back(std::string("shard.") + k + "_p50_us", "us");
  }
  out.emplace_back("shard.ooc_slice_loads", "count");
  out.emplace_back("obs.trace_overhead", "x");
  return out;
}

void say(const std::string& s) { std::cout << s << "\n"; }

std::string fmt(double v, int digits = 4) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

std::string describe(const char* name, const Percentile& p) {
  return std::string(name) + " = " + fmt(p.value) + " us (p" +
         fmt(p.percentile, 6) + " of " + std::to_string(p.samples) +
         " samples, " + std::to_string(p.beyond) + " beyond)";
}

/// Run state of the orchestrating process.
struct Run {
  Args args;
  WorkloadSpec spec;
  Metrics e2e;
  Metrics layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(const std::string& what) {
    ++failed;
    problems.push_back(what);
  }
};

Run* g_run = nullptr;
int g_status_fd = -1;       ///< set in the serving child: where fatal errors go
pid_t g_serving_pid = -1;   ///< the orchestrator's live serving child
std::string g_registry_json;  ///< the serving child's metrics registry

[[noreturn]] void abort_run(const std::string& why) {
  std::cout.flush();
  if (g_status_fd >= 0) {
    // In the serving child: the orchestrator reports the failure.
    write_all(g_status_fd, "fatal " + why + "\n");
    _exit(3);
  }
  if (g_serving_pid > 0) {
    kill(g_serving_pid, SIGKILL);
    waitpid(g_serving_pid, nullptr, 0);
  }
  std::cout << "error: " << why << "\n";
  std::cout << result_line(false, g_run ? g_run->attempted + 1 : 1,
                           g_run ? g_run->failed + 1 : 1, {})
            << std::endl;
  _exit(3);
}

/// Capture-side metrics from the reps.
void capture_metrics(Run& run, const std::vector<RepResult>& reps) {
  std::vector<double> capture, ingest, write, open, index, setup;
  std::vector<double> capture_traced, capture_plain;
  std::map<RepKind, std::vector<double>> by_kind;
  std::map<std::string, std::vector<double>> per_program;
  const RepResult* last_full = nullptr;
  const RepResult* last_native = nullptr;
  double peak_rss = 0;
  for (const RepResult& r : reps) {
    if (r.kind == RepKind::kSetup) {
      setup.push_back(r.setup_s);
      continue;
    }
    by_kind[r.kind].push_back(r.sum("time_s"));
    if (r.kind == RepKind::kNative) last_native = &r;
    if (r.kind != RepKind::kFull) continue;
    last_full = &r;
    peak_rss = std::max(peak_rss, r.maxrss_mib);
    const double c = r.sum("time_s");
    capture.push_back(c);
    (r.traced ? capture_traced : capture_plain).push_back(c);
    ingest.push_back(c + r.sum("write_s") + r.sum("open_s"));
    write.push_back(r.sum("write_s"));
    open.push_back(r.sum("open_s"));
    if (r.traced) index.push_back(r.sum("index_s"));
    for (const auto& p : r.programs) {
      per_program[p.name].push_back(p.v.at("time_s"));
    }
  }
  if (last_full == nullptr) abort_run("no capture rep succeeded");
  auto& e = run.e2e;
  auto& l = run.layer;
  e["capture_s"] = trimmed_mean(capture, kRepTrim);
  e["ingest_s"] = trimmed_mean(ingest, kRepTrim);
  const double nodes = last_full->sum("nodes");
  e["store_bytes_per_node"] = last_full->sum("store_bytes") / nodes;
  if (run.spec.fixture_reps == 0) {
    e["setup_s"] = median(setup);
    e["peak_rss_mb"] = peak_rss;
    say("setup_s = " + fmt(e["setup_s"]) + " s (median of " +
        std::to_string(setup.size()) + " set-ups)");
  }

  l["runtime.capture_s"] = e["capture_s"];
  l["shard.write_s"] = median(write);
  l["shard.open_s"] = median(open);
  l["cpg.index_build_s"] = median(index);
  l["snapshot.lz_ratio"] = last_full->sum("decoded") / last_full->sum("encoded");
  l["memtrack.faults_per_node"] = last_full->sum("faults") / nodes;
  l["memtrack.commits_per_node"] = last_full->sum("commits") / nodes;
  l["memtrack.committed_bytes_per_node"] = last_full->sum("committed") / nodes;
  l["ptsim.bytes_per_node"] = last_full->sum("pt_bytes") / nodes;
  l["ptsim.overflows"] = last_full->sum("overflows");
  l["sync.ops_per_node"] = last_full->sum("sync_ops") / nodes;
  if (run.args.trace) {
    Measured m;
    m.capture_s = e["capture_s"];
    m.native_s = median(by_kind[RepKind::kNative]);
    m.no_memtrack_s = median(by_kind[RepKind::kNoMemtrack]);
    m.no_pt_s = median(by_kind[RepKind::kNoPt]);
    const Derived d = derive(m);
    l["runtime.native_s"] = m.native_s;
    l["runtime.overhead_x"] = d.overhead_x;
    l["runtime.modelled_overhead_x"] =
        last_native ? last_full->sum("sim_ns") / last_native->sum("sim_ns")
                    : 0;
    l["memtrack.cost_s"] = d.memtrack_cost_s;
    l["ptsim.cost_s"] = d.ptsim_cost_s;
    if (run.spec.fixture_reps == 0 && !capture_plain.empty()) {
      l["obs.trace_overhead"] = median(capture_traced) / median(capture_plain);
    }
  }
  say("capture: " + std::to_string(capture.size()) + " cold reps of " +
      std::to_string(run.spec.programs.size()) + " program(s), " +
      fmt(nodes, 8) + " CPG nodes per rep");
  if (capture.size() >= 2) {
    const auto q = quartiles(capture);
    say("  capture_s = " + fmt(e["capture_s"]) + " s (mean of the middle " +
        fmt(100 * (1 - 2 * kRepTrim)) + " % of reps; median " + fmt(q[1]) +
        ", quartiles " + fmt(q[0]) + " / " + fmt(q[2]) + ")");
  }
  std::string each;
  for (const double c : capture) each += " " + fmt(c);
  say("  capture_s of each rep, in order:" + each);
  for (const auto& [name, times] : per_program) {
    say("  runtime.capture_s." + name + " = " +
        fmt(trimmed_mean(times, kRepTrim)) + " s");
  }
  if (run.args.trace) {
    say("  runtime.overhead_x = " + fmt(l["runtime.overhead_x"]) +
        " (measured wall time) beside runtime.modelled_overhead_x = " +
        fmt(l["runtime.modelled_overhead_x"]) +
        " (modelled by runtime/cost_model.h)");
  }
}

/// Median latency of one analysis kind on `engine` over `reps` runs.
double kernel_p50_us(insp::query::QueryEngine& engine,
                     const insp::query::Query& q, int reps,
                     const char* span_name) {
  std::vector<double> us;
  insp::query::QueryOptions options;
  options.skip_cache = true;
  for (int r = 0; r < reps; ++r) {
    const double t0 = mono_now();
    {
      Span span(span_name);
      auto reply = engine.run(q, options);
      if (!reply.ok()) abort_run("kernel failed: " + reply.status().message());
    }
    us.push_back((mono_now() - t0) * 1e6);
  }
  return median(us);
}

insp::query::Query kernel_query(const std::string& kind, std::uint64_t node,
                                std::uint64_t page) {
  namespace q = insp::query;
  const auto id = static_cast<insp::cpg::NodeId>(node);
  if (kind == "backward_slice") return q::BackwardSliceQuery{id};
  if (kind == "forward_slice") return q::ForwardSliceQuery{id};
  if (kind == "taint") {
    q::TaintQuery t;
    t.seed_pages = insp::PageSet{page};
    return t;
  }
  if (kind == "invalidate") {
    q::InvalidateQuery i;
    i.changed_pages = insp::PageSet{page};
    return i;
  }
  if (kind == "races") return q::RacesQuery{};
  return q::CriticalPathQuery{};
}

// --- the serving child -----------------------------------------------------
//
// Serving runs in a child forked from the thread-free orchestrator, so
// the orchestrator can keep forking cold capture reps between served
// segments. Protocol, one line each way per step:
//   child -> "ready"                      after set-up
//   parent -> "seg <k> <seconds>"         child runs segment k
//   child -> "done <k>"
//   parent -> "finish"                    child reports, then "end"
// Results travel as "e2e <name> <value>", "layer <name> <value>",
// "attempted <n>", "fail <why>" and span lines.

struct Target {
  LoadTally all;
  std::vector<double> segment_p50, segment_qps;
  LoadTally traced, plain;  ///< socket only: traced / untraced segments
};

void merge(LoadTally& into, const LoadTally& seg) {
  into.attempted += seg.attempted;
  into.failed += seg.failed;
  into.mismatched += seg.mismatched;
  into.dropped += seg.dropped;
  into.busy_s += seg.busy_s;
  into.latencies_us.insert(into.latencies_us.end(), seg.latencies_us.begin(),
                           seg.latencies_us.end());
}

[[noreturn]] void serve_main(const Run& run, const std::string& served_dir,
                             const std::string& cpg_file,
                             const std::string& probe_dir, FILE* commands,
                             int status_fd) {
  g_status_fd = status_fd;
  const auto& spec = run.spec;
  const bool traced_run = run.args.trace;
  set_tracing(traced_run);
  std::ostringstream out;
  out.precision(17);
  std::uint64_t attempted = 0;
  std::vector<std::string> fails;
  std::map<std::string, double> e, l;

  // The reference graph and the expected replies.
  std::shared_ptr<const insp::cpg::Graph> graph;
  {
    std::ifstream f(cpg_file, std::ios::binary);
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
    auto g = insp::cpg::deserialize_checked(bytes);
    if (!g.ok()) abort_run(cpg_file + ": " + g.status().message());
    graph = std::make_shared<const insp::cpg::Graph>(std::move(g).value());
  }
  auto reference = std::make_unique<insp::query::QueryEngine>(graph);
  insp::shard::Manifest manifest;
  {
    auto opened = insp::shard::ShardStore::open(served_dir);
    if (!opened.ok()) abort_run("open: " + opened.status().message());
    manifest = (*opened)->manifest();
  }
  Pool pool;
  {
    std::string error;
    if (!make_pool(spec, run.args.seed, *reference, manifest, pool, error)) {
      abort_run(error);
    }
  }
  std::uint64_t decoded_total = 0;
  for (const auto& s : manifest.shards) decoded_total += s.decoded_bytes;
  const auto budget = static_cast<std::uint64_t>(
      static_cast<double>(decoded_total) * spec.budget_fraction);

  // Repeated identical set-ups; the last one is measured.
  std::vector<double> setup_times;
  std::unique_ptr<ServedSystem> sys;
  const int setups = spec.fixture_reps == 0 ? 1 : kSetups;
  for (int k = 0; k < setups; ++k) {
    if (sys) sys->stop();
    sys.reset();
    std::string error;
    ++attempted;
    const double t0 = mono_now();
    {
      Span span("setup.serving");
      sys = set_up(served_dir, budget, std::to_string(k), error);
    }
    setup_times.push_back(mono_now() - t0);
    if (!sys) abort_run("set-up failed: " + error);
  }
  if (spec.fixture_reps != 0) {
    e["setup_s"] = median(setup_times);
    say("setup_s = " + fmt(e["setup_s"]) + " s (median of " +
        std::to_string(setup_times.size()) + " set-ups)");
  }
  l["query.items_per_request"] = pool.items_per_request;
  l["query.reply_bytes_per_request"] = pool.reply_bytes_per_request;

  if (traced_run) {
    // In-process passes over the same mix: the reference graph engine
    // and a shard engine on the served store.
    InProcess graph_pass, shard_pass;
    in_process_pass(*reference, pool.requests, 2.0, "query.graph_run",
                    graph_pass);
    insp::shard::ShardedQueryEngine shard_engine(sys->store);
    in_process_pass(shard_engine, pool.requests, 2.0, "query.shard_run",
                    shard_pass);
    attempted += graph_pass.attempted + shard_pass.attempted;
    for (std::size_t i = 0; i < graph_pass.failed + shard_pass.failed; ++i) {
      fails.push_back("in-process reply mismatch");
    }
    std::vector<double> parse = graph_pass.parse_us;
    parse.insert(parse.end(), shard_pass.parse_us.begin(),
                 shard_pass.parse_us.end());
    std::vector<double> ser = graph_pass.serialize_us;
    ser.insert(ser.end(), shard_pass.serialize_us.begin(),
               shard_pass.serialize_us.end());
    l["query.parse_us"] = median(parse);
    l["query.serialize_us"] = median(ser);
    l["query.graph_p50_us"] = median(graph_pass.run_us);
    l["query.graph_tail_us"] = tail_percentile(graph_pass.run_us, 0).value;
    l["query.shard_p50_us"] = median(shard_pass.run_us);
    l["query.shard_tail_us"] = tail_percentile(shard_pass.run_us, 0).value;
    say("in process: graph engine " + std::to_string(graph_pass.run_us.size()) +
        " requests, shard engine " + std::to_string(shard_pass.run_us.size()) +
        " requests");

    // Analysis kernels on the graph and on a resident store.
    auto resident = insp::shard::ShardStore::open(served_dir);
    if (!resident.ok()) abort_run("open: " + resident.status().message());
    if (auto st = warm(**resident); !st.ok()) abort_run(st.message());
    insp::shard::ShardedQueryEngine resident_engine(*resident);
    const std::uint64_t node = manifest.total_nodes / 2;
    const std::uint64_t page = manifest.pages[manifest.pages.size() / 2];
    for (const char* kind : kKernelKinds) {
      const auto q = kernel_query(kind, node, page);
      l[std::string("analysis.") + kind + "_p50_us"] =
          kernel_p50_us(*reference, q, 3, "analysis.kernel");
      l[std::string("shard.") + kind + "_p50_us"] =
          kernel_p50_us(resident_engine, q, 3, "shard.kernel");
    }

    // Shard loads on a freshly opened store.
    auto fresh = insp::shard::ShardStore::open(served_dir);
    if (!fresh.ok()) abort_run("open: " + fresh.status().message());
    std::vector<double> load_us;
    for (std::uint32_t k = 0; k < manifest.shard_count; ++k) {
      const double t0 = mono_now();
      Span span("shard.load");
      if (!(*fresh)->load(k).ok()) fails.push_back("shard load failed");
      load_us.push_back((mono_now() - t0) * 1e6);
    }
    l["shard.load_us"] = median(load_us);
  }
  // Harness-only data goes before the peak reset.
  reference.reset();
  graph.reset();
  if (spec.fixture_reps != 0 && !reset_peak_rss()) {
    abort_run("cannot reset the peak RSS through /proc/self/clear_refs");
  }

  ClosedLoop socket_loop(sys->socket_path, pool.per_connection,
                         kSegmentWarmupS);
  ClosedLoop router_loop(sys->router_path, pool.per_connection,
                         kSegmentWarmupS);
  if (!socket_loop.connect() || !router_loop.connect()) {
    abort_run("cannot connect to the served sockets");
  }
  const auto on_timeout = [] { abort_run("request timed out"); };
  Target socket, router;
  const auto stats0 = sys->store->stats();
  const auto cache0 = sys->engine->cache_stats();
  const std::uint64_t conn_errors0 = counter("net_connection_errors_total");
  const std::uint64_t deaths0 = counter("router_worker_deaths_total");
  std::uint64_t socket_bytes = 0, socket_jobs = 0;
  write_all(status_fd, "ready\n");

  char* line = nullptr;
  std::size_t cap = 0;
  for (;;) {
    // Anything but a segment or "finish" (the orchestrator is gone):
    // stop at once.
    if (getline(&line, &cap, commands) <= 0) _exit(4);
    if (std::strncmp(line, "finish", 6) == 0) break;
    int k = 0;
    double seconds = 0;
    if (std::sscanf(line, "seg %d %lf", &k, &seconds) != 2) _exit(4);
    LoadTally seg;
    if (k % 2 == 0) {
      // Socket segments alternate traced and untraced in a traced run.
      const bool traced_segment = traced_run && (k / 2) % 2 == 0;
      set_tracing(traced_segment);
      const std::uint64_t b0 = counter("net_bytes_sent_total");
      const std::uint64_t j0 = counter("task_pool_jobs_total");
      {
        Span span("segment.socket");
        socket_loop.run_segment(seconds, seg, kRequestTimeoutS, on_timeout,
                                "net.socket_call");
      }
      socket_bytes += counter("net_bytes_sent_total") - b0;
      socket_jobs += counter("task_pool_jobs_total") - j0;
      merge(traced_segment ? socket.traced : socket.plain, seg);
      set_tracing(traced_run);
    } else {
      Span span("segment.router");
      router_loop.run_segment(seconds, seg, kRequestTimeoutS, on_timeout,
                              "net.router_call");
    }
    Target& t = k % 2 == 0 ? socket : router;
    merge(t.all, seg);
    if (!seg.latencies_us.empty()) {
      t.segment_p50.push_back(median(seg.latencies_us));
      t.segment_qps.push_back(static_cast<double>(seg.latencies_us.size()) /
                              seg.busy_s);
    }
    write_all(status_fd, "done " + std::to_string(k) + "\n");
  }
  free(line);
  socket_loop.close();
  router_loop.close();
  const auto stats1 = sys->store->stats();
  const auto cache1 = sys->engine->cache_stats();
  if (spec.fixture_reps != 0) e["peak_rss_mb"] = peak_rss_mib();

  // Failure accounting: every failed request counts, and so does every
  // connection error or worker death the servers saw.
  attempted += socket.all.attempted + router.all.attempted;
  for (const Target* t : {&socket, &router}) {
    for (std::size_t i = 0; i < t->all.failed; ++i) {
      fails.push_back(t->all.mismatched ? "reply mismatch" : "request failed");
    }
  }
  const std::uint64_t conn_errors =
      counter("net_connection_errors_total") - conn_errors0;
  const std::uint64_t deaths = counter("router_worker_deaths_total") - deaths0;
  for (std::uint64_t i = 0; i < conn_errors; ++i) {
    fails.push_back("connection error");
  }
  for (std::uint64_t i = 0; i < deaths; ++i) fails.push_back("router worker died");

  // qps: the median over the segments, so a host stall that hits one
  // segment does not move it. Latency percentiles pool every sample:
  // a mixed mix puts few requests of the median's kind in one segment.
  const Percentile stail =
      tail_percentile(socket.all.latencies_us, socket.all.failed, spec.tail_cap);
  const Percentile rtail =
      tail_percentile(router.all.latencies_us, router.all.failed, spec.tail_cap);
  e["socket_qps"] = median(socket.segment_qps);
  e["socket_p50_us"] = median(socket.all.latencies_us);
  e["socket_tail_us"] = stail.value;
  e["router_qps"] = median(router.segment_qps);
  e["router_p50_us"] = median(router.all.latencies_us);
  e["router_tail_us"] = rtail.value;
  for (Target* t : {&socket, &router}) {
    if (t->all.failed != 0) {
      // A failed request is slower than any success.
      const double p50 =
          percentile_of(t->all.latencies_us, t->all.failed, 50).value;
      (t == &socket ? e["socket_p50_us"] : e["router_p50_us"]) = p50;
    }
  }
  say("served: " + std::to_string(spec.connections) +
      " closed-loop connection(s), " + std::to_string(pool.requests.size()) +
      " distinct requests, budget " +
      (budget ? std::to_string(budget) + " of " +
                    std::to_string(decoded_total) + " decoded bytes"
              : std::string("unlimited")));
  for (const auto& [name, t, tail] :
       {std::tuple{"socket", &socket, stail}, std::tuple{"router", &router, rtail}}) {
    say("  " + std::string(name) + "_qps = " + fmt(e[std::string(name) + "_qps"]) +
        " req/s (median of " + std::to_string(t->segment_qps.size()) +
        " segments over " + fmt(t->all.busy_s) + " s), " +
        std::to_string(t->all.failed) + " failed of " +
        std::to_string(t->all.attempted));
    std::string per_segment;
    for (const double p : t->segment_p50) per_segment += " " + fmt(p);
    say("  " + std::string(name) + "_p50_us = " +
        fmt(e[std::string(name) + "_p50_us"]) + " us over " +
        std::to_string(t->all.latencies_us.size()) +
        " samples (segment p50s:" + per_segment + ")");
    say("  " + describe((std::string(name) + "_tail_us").c_str(), tail));
  }

  // Per-layer numbers of the served window.
  const double socket_requests =
      static_cast<double>(std::max<std::size_t>(socket.all.attempted, 1));
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  l["query.cache_hit_ratio"] = hits / std::max(hits + misses, 1.0);
  l["net.bytes_per_request"] = static_cast<double>(socket_bytes) / socket_requests;
  l["util.pool_jobs_per_request"] =
      static_cast<double>(socket_jobs) / socket_requests;
  const double loads = static_cast<double>(stats1.loads - stats0.loads);
  const double shard_hits = static_cast<double>(stats1.hits - stats0.hits);
  l["shard.loads_per_request"] = loads / socket_requests;
  l["shard.hit_ratio"] = shard_hits / std::max(shard_hits + loads, 1.0);
  l["shard.evictions_per_request"] =
      static_cast<double>(stats1.evictions - stats0.evictions) / socket_requests;
  l["shard.peak_over_budget"] =
      static_cast<double>(stats1.peak_resident_bytes) /
      static_cast<double>(budget ? budget : decoded_total);
  l["shard.retries"] = static_cast<double>(stats1.retries - stats0.retries);
  l["shard.quarantined"] = static_cast<double>(stats1.quarantined_shards);
  if (traced_run) {
    Measured m;
    m.socket_p50_us = e["socket_p50_us"];
    m.router_p50_us = e["router_p50_us"];
    m.shard_p50_us = l["query.shard_p50_us"];
    m.graph_p50_us = l["query.graph_p50_us"];
    const Derived d = derive(m);
    l["net.overhead_p50_us"] = d.net_overhead_p50_us;
    l["net.router_hop_p50_us"] = d.router_hop_p50_us;
    l["shard.resident_overhead_x"] = d.resident_overhead_x;
    if (spec.fixture_reps != 0) {
      l["obs.trace_overhead"] = median(socket.traced.latencies_us) /
                                median(socket.plain.latencies_us);
    }
  }
  sys->stop();
  sys.reset();

  if (traced_run) {
    // One out-of-core slice on the analysis fixture under half budget:
    // keeps the slice thrash visible though no served mix has slices.
    auto whole = insp::shard::ShardStore::open(probe_dir);
    if (!whole.ok()) abort_run("open: " + whole.status().message());
    std::uint64_t probe_decoded = 0;
    for (const auto& s : (*whole)->manifest().shards) {
      probe_decoded += s.decoded_bytes;
    }
    const std::uint64_t probe_nodes = (*whole)->manifest().total_nodes;
    insp::shard::StoreOptions half;
    half.memory_budget_bytes = probe_decoded / 2;
    auto probe = insp::shard::ShardStore::open(probe_dir, half);
    if (!probe.ok()) abort_run("open: " + probe.status().message());
    insp::shard::ShardedQueryEngine probe_engine(*probe);
    const double t0 = mono_now();
    {
      Span span("shard.ooc_slice");
      ++attempted;
      auto reply = probe_engine.run(insp::query::BackwardSliceQuery{
          static_cast<insp::cpg::NodeId>(probe_nodes / 2)});
      if (!reply.ok()) fails.push_back("out-of-core slice failed");
    }
    l["shard.ooc_slice_loads"] = static_cast<double>((*probe)->stats().loads);
    say("out-of-core slice: node " + std::to_string(probe_nodes / 2) + " of " +
        std::to_string(probe_nodes) + ", " +
        fmt(l["shard.ooc_slice_loads"], 8) + " loads of " +
        std::to_string((*probe)->manifest().shard_count) + " shards in " +
        fmt(mono_now() - t0) + " s");
    // The registry snapshot of the serving process, for the trace file.
    out << "registry "
        << insp::obs::to_json(insp::obs::Registry::global().snapshot()) << "\n";
  }

  for (const auto& [k, v] : e) out << "e2e " << k << " " << v << "\n";
  for (const auto& [k, v] : l) out << "layer " << k << " " << v << "\n";
  out << "attempted " << attempted << "\n";
  for (const auto& f : fails) out << "fail " << f << "\n";
  std::cout.flush();
  write_all(status_fd, out.str() + encode_spans(spans()) + "end\n");
  _exit(0);
}

/// The orchestrator's handle on the serving child.
class ServingChild {
 public:
  ServingChild(const Run& run, const std::string& served_dir,
               const std::string& cpg_file, const std::string& probe_dir) {
    int cmd[2], status[2];
    if (pipe(cmd) != 0 || pipe(status) != 0) abort_run("pipe failed");
    std::cout.flush();
    pid_ = fork();
    if (pid_ < 0) abort_run("fork failed");
    if (pid_ > 0) g_serving_pid = pid_;
    if (pid_ == 0) {
      close(cmd[1]);
      close(status[0]);
      serve_main(run, served_dir, cpg_file, probe_dir, fdopen(cmd[0], "r"),
                 status[1]);
    }
    close(cmd[0]);
    close(status[1]);
    cmd_fd_ = cmd[1];
    status_ = fdopen(status[0], "r");
  }
  ~ServingChild() {
    if (status_ != nullptr) fclose(status_);
    if (cmd_fd_ >= 0) close(cmd_fd_);
    if (pid_ > 0) waitpid(pid_, nullptr, 0);
  }
  ServingChild(const ServingChild&) = delete;
  ServingChild& operator=(const ServingChild&) = delete;

  /// Next status line from the child; aborts the run if it died.
  std::string expect(const std::string& prefix) {
    const std::string got = next_line();
    if (got.rfind(prefix, 0) != 0) {
      abort_run(got.rfind("fatal ", 0) == 0
                    ? "serving: " + got.substr(6)
                    : "serving child stopped (expected " + prefix + ")");
    }
    return got;
  }

  void segment(int k, double seconds) {
    write_all(cmd_fd_, "seg " + std::to_string(k) + " " + fmt(seconds, 17) + "\n");
    expect("done " + std::to_string(k));
  }

  /// Ask for the results and fold them into `run`.
  void finish(Run& run, std::string& registry_json) {
    write_all(cmd_fd_, "finish\n");
    std::vector<SpanRecord> child_spans;
    for (;;) {
      const std::string line = next_line();
      if (line == "end") break;
      if (line.empty() || line.rfind("fatal ", 0) == 0) {
        abort_run(line.empty() ? "serving child died" : "serving: " + line.substr(6));
      }
      std::istringstream ls(line);
      std::string tag, name;
      ls >> tag;
      if (tag == "e2e" || tag == "layer") {
        double v = 0;
        ls >> name >> v;
        (tag == "e2e" ? run.e2e : run.layer)[name] = v;
      } else if (tag == "attempted") {
        std::uint64_t n = 0;
        ls >> n;
        run.attempted += n;
      } else if (tag == "fail") {
        run.fail(line.substr(5));
      } else if (tag == "registry") {
        registry_json = line.substr(9);
      } else if (SpanRecord s; decode_span(line, s)) {
        child_spans.push_back(std::move(s));
      }
    }
    add_spans(std::move(child_spans));
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    g_serving_pid = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      run.fail("serving child exited with status " + std::to_string(status));
    }
  }

 private:
  std::string next_line() {
    char* buf = nullptr;
    std::size_t cap = 0;
    const ssize_t n = getline(&buf, &cap, status_);
    std::string line = n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "";
    free(buf);
    if (!line.empty() && line.back() == '\n') line.pop_back();
    return line;
  }

  pid_t pid_ = -1;
  int cmd_fd_ = -1;
  FILE* status_ = nullptr;
};

/// One rep in a fresh child, with its bookkeeping. Reps other than the
/// served one delete their stores once measured.
struct RepRunner {
  Run& run;
  std::vector<RepResult> reps;
  int next = 0;

  bool rep(RepKind kind, bool keep = false) {
    const std::string dir = "rep" + std::to_string(next++);
    // Alternate traced and untraced full reps in a traced run: their
    // ratio is the tracing overhead of the capture path.
    const int fulls = static_cast<int>(std::count_if(
        reps.begin(), reps.end(),
        [](const RepResult& r) { return r.kind == RepKind::kFull; }));
    const bool traced =
        run.args.trace && !(kind == RepKind::kFull && fulls % 2 == 1);
    ++run.attempted;
    RepResult r = run_rep(run.spec.programs, run.spec.served, kind,
                          run.args.seed, dir, traced);
    if (!keep) fs::remove_all(dir);
    if (!r.ok) {
      run.fail(std::string("capture rep ") + rep_name(kind) + ": " + r.error);
      return false;
    }
    reps.push_back(std::move(r));
    return true;
  }
};

/// The whole run. Cold capture reps (all forked from this thread-free
/// process) interleave with the serving child's segments, so both are
/// spread across the run and a host stall cannot land on one alone.
void run_workload(Run& run) {
  const auto& spec = run.spec;
  const double seconds = run.args.seconds;
  const bool traced = run.args.trace;
  set_tracing(traced);
  RepRunner reps{run, {}, 0};

  // The first full rep writes the served store and its CPG.
  if (!reps.rep(RepKind::kFull, /*keep=*/true)) {
    abort_run("the first capture rep failed: " + run.problems.back());
  }
  const std::string first = reps.reps.front().dir;
  std::string probe_dir;
  if (traced) {
    // The out-of-core slice probe reads the analysis fixture's store.
    ++run.attempted;
    RepResult probe = run_rep({kSliceProbe}, 0, RepKind::kFull,
                              run.args.seed, "probe", false);
    if (!probe.ok) abort_run("slice-probe capture: " + probe.error);
    probe_dir = "probe/" + std::string(kSliceProbe.name);
  }

  // Rep kinds still to run: full reps, the capture workload's set-up
  // reps, and a traced run's ablations.
  std::vector<RepKind> schedule;
  const std::vector<RepKind> ablations = {RepKind::kNative,
                                          RepKind::kNoMemtrack, RepKind::kNoPt};
  const bool capture_workload = spec.fixture_reps == 0;
  if (!capture_workload) {
    for (int k = 1; k < spec.fixture_reps; ++k) {
      schedule.push_back(RepKind::kFull);
      if (traced && k <= 3) schedule.push_back(ablations[k - 1]);
    }
  }
  int setups_left = capture_workload ? kSetups : 0;

  ServingChild serving(run, first + "/" + spec.programs[spec.served].name,
                       first + "/served.cpg", probe_dir);
  serving.expect("ready");

  const double window = seconds * (1 - spec.capture_share);
  const double segment = window / spec.segments;
  const double start = mono_now();
  std::size_t done = 0;  // schedule entries run
  std::size_t cycle = 0;
  for (int s = 0; s < spec.segments; ++s) {
    serving.segment(s, segment);
    if (capture_workload) {
      // Capture reps fill the capture share of the run, spread so the
      // segments land evenly between them.
      const double until = start + seconds * (s + 1) / spec.segments;
      while (mono_now() < until) {
        RepKind kind = RepKind::kFull;
        if (traced) {
          const RepKind kinds[] = {RepKind::kFull, RepKind::kNative,
                                   RepKind::kNoMemtrack, RepKind::kNoPt};
          kind = kinds[cycle++ % 4];
        }
        reps.rep(kind);
        if (setups_left > 0) {
          reps.rep(RepKind::kSetup);
          --setups_left;
        }
        if (run.failed > 3) abort_run("capture reps keep failing");
      }
    } else {
      // The fixture's reps spread evenly over the segments.
      const std::size_t target =
          schedule.size() * static_cast<std::size_t>(s + 1) /
          static_cast<std::size_t>(spec.segments);
      while (done < target) reps.rep(schedule[done++]);
    }
  }
  while (setups_left-- > 0) reps.rep(RepKind::kSetup);
  std::string registry_json;
  serving.finish(run, registry_json);
  capture_metrics(run, reps.reps);
  g_registry_json = registry_json;
}

void print_layer_table(const Run& run) {
  const auto rows = layer_table(spans());
  say("per-layer spans (count, busy s, self s):");
  for (const auto& row : rows) {
    char buf[200];
    std::snprintf(buf, sizeof(buf), "  %-28s %8zu %12.6f %12.6f",
                  row.name.c_str(), row.count, row.busy_s, row.self_s);
    say(buf);
  }
  say("per-layer metrics:");
  for (const auto& [name, unit] : per_layer_names()) {
    const auto it = run.layer.find(name);
    say("  " + name + " = " +
        (it == run.layer.end() ? std::string("absent") : fmt(it->second, 6)) +
        " " + unit);
  }
}

void write_trace_file(const Run& run) {
  if (run.args.trace_file.empty()) return;
  std::ofstream f(run.args.trace_file);
  for (const SpanRecord& s : spans()) {
    f << "{\"name\":\"" << s.name << "\",\"start\":" << json_number(s.start)
      << ",\"end\":" << json_number(s.end) << ",\"id\":" << s.id
      << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
  if (!g_registry_json.empty()) {
    f << "{\"registry\":" << g_registry_json << "}\n";
  }
}

bool parse_args(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--trace-file") a.trace_file = fs::absolute(v).string();
    else return false;
  }
  return !a.workdir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench run --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--trace-file F]\n"
                 "       perfbench selftest --workdir DIR\n";
    return 2;
  }
  fs::create_directories(args.workdir);
  if (chdir(args.workdir.c_str()) != 0) {
    std::cerr << "cannot enter " << args.workdir << "\n";
    return 2;
  }
  if (args.mode == "selftest") return run_selftest();
  if (args.mode != "run") return 2;

  Run run;
  g_run = &run;
  run.args = args;
  run.spec = spec_of(args.workload);
  if (run.spec.name.empty()) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  say("workload " + run.spec.name + ", seed " + std::to_string(args.seed) +
      ", " + fmt(args.seconds) + " s, trace " + (args.trace ? "on" : "off"));
  try {
    run_workload(run);
  } catch (const std::exception& e) {
    abort_run(std::string("exception: ") + e.what());
  }
  for (const auto& p : run.problems) say("failed: " + p);

  std::vector<Metric> out;
  bool complete = true;
  if (args.trace) {
    print_layer_table(run);
    write_trace_file(run);
    for (const auto& [name, unit] : per_layer_names()) {
      const auto it = run.layer.find(name);
      if (it == run.layer.end()) complete = false;
      out.push_back({name, it == run.layer.end() ? -1 : it->second, unit});
    }
  } else {
    for (const auto& [name, unit] : kEndToEnd) {
      const auto it = run.e2e.find(name);
      if (it == run.e2e.end()) complete = false;
      out.push_back({name, it == run.e2e.end() ? -1 : it->second, unit});
    }
  }
  const bool correct = run.failed == 0 && complete;
  std::cout << result_line(correct, run.attempted, run.failed, out)
            << std::endl;
  std::cout.flush();
  // Skip static destructors: the shared analysis pool's threads have
  // nothing left to do.
  _exit(0);
}
