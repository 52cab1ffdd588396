// inspector_query -- serve provenance queries over a captured CPG.
//
// The paper's workflow is capture once, ask questions later: a traced
// run persists its Concurrent Provenance Graph (inspector_cli
// --dump-cpg), and an analyst -- or a fleet of them -- queries it.
// This tool is that serving front-end: it loads a serialized CPG into
// an immutable snapshot -- or opens a sharded store directory
// (inspector_cli --shard-out / --shard-append, raw or LZ-compressed
// payloads, decompressed transparently at load) for out-of-core
// serving under a resident memory budget (--shard-budget counts
// *decoded* bytes, so it bounds actual memory whatever the on-disk
// compression ratio) -- stands a QueryEngine on top, and answers
// line-delimited JSON requests (query/wire.h) from stdin or a request
// file. Replies are bit-identical between the storage forms.
//
// lint: allow-file(finalizer-purity) THE designated reply-emission site: this tool's stdout carries the canonical reply bytes
//
//   inspector_query <cpg.bin> [options]
//   inspector_query --store <dir> [--shard-budget BYTES]
//                   [--allow-degraded] [options]
//   inspector_query <cpg.bin>|--store <dir> --serve <socket>
//                   [--workers N] [server options]
//   inspector_query --connect <socket> [--requests FILE]
//   options: [--requests FILE] [--analysis-threads N] [--page-size N]
//
// --allow-degraded opts a store-backed server into degraded serving:
// queries that touch a quarantined (corrupt or unreadable) shard skip
// it and reply with a partial answer marked "degraded":true instead of
// failing with status "unavailable". In router mode (--workers) it
// additionally fails queries of a dead worker process over to the next
// live one. Queries untouched by the damage reply byte-identically
// either way. Run inspector_fsck to diagnose and repair the store.
//
// --serve exposes the same wire protocol over an AF_UNIX socket
// (src/net/): requests and replies travel as Data frames carrying the
// unchanged JSON lines, so a served session is byte-identical to the
// stdin front-end, cursor boundaries included. With --workers N (store
// mode only) the process becomes a router: it forks N worker processes,
// each serving the store under its own budget on <socket>.w<K>, fans a
// session's requests out by shard affinity, and merges replies in
// request order. A worker killed mid-session yields typed
// "unavailable" replies (or transparent failover under
// --allow-degraded), never a hang. --connect is the matching client:
// it pipelines request lines at the server and prints replies in
// request order, exiting nonzero if the server vanishes.
//
// Both in-process modes run the served code path: a net::QueryService
// session answers each line, exactly as it does behind --serve. With
// --requests, the whole file is executed as one batch: every line's
// phase 1 (parse, analysis, and the snapshot of a "metrics" request)
// fans out over the analysis pool, then the finalizers print replies
// in request order -- bit-identical at every worker count, which is
// what the CI smoke test diffs against its golden reply. "next"
// requests resolve against cursors issued earlier in the same file
// (cursor ids are assigned in request order, starting at 1). Without
// --requests, requests are read interactively from stdin, one reply
// per line.
//
// Exit status: 0 even when individual queries fail (their errors are
// on the wire); nonzero only when the tool itself cannot run (bad
// usage, unreadable CPG, lost server).
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cpg/graph.h"
#include "cpg/serialize.h"
#include "net/client.h"
#include "net/dispatcher.h"
#include "net/query_service.h"
#include "net/router.h"
#include "net/uds.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "shard/engine.h"
#include "util/failpoint.h"
#include "util/parallel.h"

namespace {

using namespace inspector;

int usage() {
  std::cerr << "usage: inspector_query <cpg.bin> [options]\n"
               "       inspector_query --store <dir> [--shard-budget BYTES] "
               "[--allow-degraded] [options]\n"
               "       inspector_query <cpg.bin>|--store <dir> "
               "--serve <socket> [--workers N]\n"
               "       inspector_query --connect <socket> [--requests FILE]\n"
               "options: [--requests FILE] [--analysis-threads N] "
               "[--page-size N]\n"
               "         [--dump-metrics] [--metrics-out FILE]\n"
               "see the header of tools/inspector_query.cpp for the "
               "wire format\n";
  return 2;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open " + path);
  const auto size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("read failed: " + path);
  return bytes;
}

struct ToolArgs {
  std::string cpg_path;       ///< whole-graph file (exclusive with store)
  std::string store_path;     ///< sharded store directory
  std::uint64_t shard_budget = 0;  ///< resident bytes, 0 = unlimited
  bool allow_degraded = false;     ///< serve partial answers off damage
  std::string requests_path;  ///< empty = interactive stdin
  std::uint64_t default_page_size = 0;
  std::string serve_path;     ///< socket to serve on
  std::string connect_path;   ///< socket to query as a client
  std::uint64_t workers = 0;  ///< 0 = single-process server
  /// Fault-injection spec armed inside forked workers only, for the
  /// worker-kill smoke: "SPEC" arms every worker, "K:SPEC" worker K.
  std::string worker_failpoints;
  /// Observability surface. Both emit on exit (and --metrics-out also
  /// periodically under --serve); neither touches stdout, so reply
  /// bytes stay identical with or without them.
  bool dump_metrics = false;    ///< JSON snapshot to stderr at exit
  std::string metrics_out;      ///< Prometheus text file
};

/// Export interval for --metrics-out under --serve.
constexpr std::chrono::seconds kMetricsInterval{1};

void write_metrics_file(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    return;
  }
  out << obs::to_prometheus(obs::Registry::global().snapshot());
}

/// Final exports, run once per process on the way out.
void export_metrics_at_exit(const ToolArgs& args) {
  if (!args.metrics_out.empty()) write_metrics_file(args.metrics_out);
  if (args.dump_metrics) {
    std::cerr << obs::to_json(obs::Registry::global().snapshot()) << "\n";
  }
}

/// Rewrites --metrics-out every kMetricsInterval while a server runs;
/// one final write on destruction. Inert without a path.
class MetricsExporter {
 public:
  explicit MetricsExporter(std::string path) : path_(std::move(path)) {
    if (path_.empty()) return;
    thread_ = std::thread([this] {
      std::unique_lock lock(mu_);
      for (;;) {
        if (cv_.wait_for(lock, kMetricsInterval, [&] { return stop_; })) break;
        lock.unlock();
        write_metrics_file(path_);
        lock.lock();
      }
    });
  }

  ~MetricsExporter() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    write_metrics_file(path_);
  }

 private:
  std::string path_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

bool parse_uint(const std::string& value, std::uint64_t& out) {
  if (value.empty() || value.size() > 18) return false;
  for (const char c : value) {
    if (c < '0' || c > '9') return false;
  }
  out = std::stoull(value);
  return true;
}

bool parse_args(int argc, char** argv, ToolArgs& args) {
  if (argc < 2) return false;
  int i = 2;
  const std::string first = argv[1];
  if (first == "--store" || first == "--connect") {
    if (argc < 3) return false;
    (first == "--store" ? args.store_path : args.connect_path) = argv[2];
    i = 3;
  } else {
    args.cpg_path = argv[1];
  }
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--shard-budget") {
      if (args.store_path.empty()) {
        std::cerr << "--shard-budget requires --store\n";
        return false;
      }
      if (!parse_uint(next(), args.shard_budget)) {
        std::cerr << "--shard-budget must be a non-negative byte count\n";
        return false;
      }
    } else if (a == "--allow-degraded") {
      if (args.store_path.empty()) {
        std::cerr << "--allow-degraded requires --store\n";
        return false;
      }
      args.allow_degraded = true;
    } else if (a == "--requests") {
      args.requests_path = next();
    } else if (a == "--analysis-threads") {
      const auto workers = util::parse_analysis_threads(next());
      if (!workers) {
        std::cerr << "--analysis-threads must be an integer in [1, 1024]\n";
        return false;
      }
      util::set_analysis_threads(*workers);
    } else if (a == "--page-size") {
      if (!parse_uint(next(), args.default_page_size)) {
        std::cerr << "--page-size must be a non-negative integer\n";
        return false;
      }
    } else if (a == "--serve") {
      args.serve_path = next();
    } else if (a == "--workers") {
      if (!parse_uint(next(), args.workers) || args.workers == 0) {
        std::cerr << "--workers must be a positive integer\n";
        return false;
      }
    } else if (a == "--worker-failpoints") {
      args.worker_failpoints = next();
    } else if (a == "--dump-metrics") {
      args.dump_metrics = true;
    } else if (a == "--metrics-out") {
      args.metrics_out = next();
    } else {
      std::cerr << "unknown option: " << a << "\n";
      return false;
    }
  }
  if (!args.connect_path.empty() &&
      (!args.serve_path.empty() || args.workers != 0)) {
    std::cerr << "--connect excludes --serve/--workers\n";
    return false;
  }
  if (!args.serve_path.empty() && !args.requests_path.empty()) {
    std::cerr << "--serve does not read requests (use --connect)\n";
    return false;
  }
  if (args.workers != 0 && args.serve_path.empty()) {
    std::cerr << "--workers requires --serve\n";
    return false;
  }
  if (args.workers != 0 && args.store_path.empty()) {
    std::cerr << "--workers requires --store (shard-range workers)\n";
    return false;
  }
  if (!args.worker_failpoints.empty() && args.workers == 0) {
    std::cerr << "--worker-failpoints requires --workers\n";
    return false;
  }
  return true;
}

/// Every input mode skips lines holding nothing but whitespace.
bool is_blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

/// Execute the request file as one deterministic batch through the
/// served code path: every line's phase 1 fans out over the analysis
/// pool, then the finalizers run in line order, so a "next" sees every
/// cursor an earlier line issued.
int serve_batch(net::QueryService& service, const ToolArgs& args) {
  std::ifstream in(args.requests_path);
  if (!in) {
    std::cerr << "error: cannot open " << args.requests_path << "\n";
    return 1;
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!is_blank(line)) lines.push_back(std::move(line));
  }
  const auto session = service.open_session();
  std::vector<net::rpc::Finalizer> finalizers(lines.size());
  util::shared_pool()->parallel_for(
      0, lines.size(), 1, [&](std::size_t begin, std::size_t end, unsigned) {
        for (std::size_t i = begin; i < end; ++i) {
          finalizers[i] = service.handle(*session, {.stream_id = i + 1},
                                         lines[i]);
        }
      });
  for (const net::rpc::Finalizer& finalize : finalizers) {
    std::cout << finalize() << "\n";
  }
  return 0;
}

/// Interactive mode: one request per stdin line, reply immediately.
int serve_stdin(net::QueryService& service) {
  const auto session = service.open_session();
  std::uint64_t stream_id = 0;
  for (std::string line; std::getline(std::cin, line);) {
    if (is_blank(line)) continue;
    std::cout << service.handle(*session, {.stream_id = ++stream_id}, line)()
              << "\n"
              << std::flush;
  }
  return 0;
}

/// Build the engine behind every serving mode (stdin, --serve, and
/// each forked worker): CPG snapshot or sharded store.
std::shared_ptr<query::QueryEngine> make_engine(const ToolArgs& args) {
  if (!args.store_path.empty()) {
    shard::StoreOptions store_options;
    store_options.memory_budget_bytes = args.shard_budget;
    auto store = shard::ShardStore::open(args.store_path, store_options);
    if (!store.ok()) {
      std::cerr << "error: " << store.status().message() << "\n";
      return nullptr;
    }
    return std::make_shared<shard::ShardedQueryEngine>(
        std::move(store).value(), args.allow_degraded);
  }
  auto snapshot = cpg::deserialize_checked(read_file(args.cpg_path));
  if (!snapshot.ok()) {
    std::cerr << "error: " << snapshot.status().message() << "\n";
    return nullptr;
  }
  return std::make_shared<query::QueryEngine>(
      std::make_shared<const cpg::Graph>(std::move(snapshot).value()));
}

/// Block SIGTERM/SIGINT for the whole process (threads inherit the
/// mask), returning the set to sigwait() on. Must run before any
/// thread is spawned.
sigset_t block_shutdown_signals() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  return set;
}

void wait_shutdown_signal(const sigset_t& set) {
  int sig = 0;
  sigwait(&set, &sig);
}

/// Single-process server: one engine, one ServeLoop, until SIGTERM.
int run_server(const ToolArgs& args) {
  const sigset_t signals = block_shutdown_signals();
  auto engine = make_engine(args);
  if (!engine) return 1;
  auto server = net::uds::Server::listen(args.serve_path);
  if (!server.ok()) {
    std::cerr << "error: " << server.status().message() << "\n";
    return 1;
  }
  net::QueryService service(
      std::move(engine), {.default_page_size = args.default_page_size});
  net::ServeLoop loop(std::move(server).value(), service);
  loop.start();
  MetricsExporter exporter(args.metrics_out);
  std::cerr << "serving on " << args.serve_path << "\n";
  wait_shutdown_signal(signals);
  loop.stop();
  return 0;
}

/// One forked worker: open the store under its own budget and serve
/// it on the worker socket until SIGTERM (or parent death). Reports
/// readiness with one byte on `ready_fd`.
[[noreturn]] void run_worker(const ToolArgs& args, std::uint64_t index,
                             const std::string& socket_path, int ready_fd) {
  const sigset_t signals = block_shutdown_signals();
  // Die with the router: a killed router must never leak workers.
  prctl(PR_SET_PDEATHSIG, SIGTERM);
  if (!args.worker_failpoints.empty()) {
    // "K:SPEC" arms only worker K; a bare spec arms every worker.
    std::string spec = args.worker_failpoints;
    const std::size_t colon = spec.find(':');
    if (colon != std::string::npos &&
        spec.find_first_not_of("0123456789") == colon) {
      if (std::stoull(spec.substr(0, colon)) != index) spec.clear();
      else spec = spec.substr(colon + 1);
    }
    if (!spec.empty()) {
      if (auto s = util::configure_failpoints(spec); !s.ok()) {
        std::cerr << "error: " << s.message() << "\n";
        std::_Exit(1);
      }
    }
  }
  auto engine = make_engine(args);
  if (!engine) std::_Exit(1);
  auto server = net::uds::Server::listen(socket_path);
  if (!server.ok()) {
    std::cerr << "error: " << server.status().message() << "\n";
    std::_Exit(1);
  }
  net::QueryService service(
      std::move(engine), {.default_page_size = args.default_page_size});
  net::ServeLoop loop(std::move(server).value(), service);
  loop.start();
  const char ready = 'R';
  (void)!write(ready_fd, &ready, 1);
  close(ready_fd);
  wait_shutdown_signal(signals);
  loop.stop();
  std::_Exit(0);
}

/// Router mode: fork per-shard-range workers, then serve the routing
/// front-end. Workers listen on <socket>.w<K>.
int run_router(const ToolArgs& args) {
  auto manifest = shard::ShardReader::read_manifest(args.store_path);
  if (!manifest.ok()) {
    std::cerr << "error: " << manifest.status().message() << "\n";
    return 1;
  }
  const std::uint32_t shard_count = std::max(1u, manifest->shard_count);
  const std::uint32_t workers = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(args.workers, shard_count));
  if (workers < args.workers) {
    std::cerr << "note: clamping --workers to the store's " << shard_count
              << " shard(s)\n";
  }

  const sigset_t signals = block_shutdown_signals();

  std::vector<net::WorkerEndpoint> endpoints(workers);
  std::vector<pid_t> pids(workers, -1);
  std::vector<int> ready_fds(workers, -1);
  for (std::uint32_t w = 0; w < workers; ++w) {
    endpoints[w].socket_path =
        args.serve_path + ".w" + std::to_string(w);
    endpoints[w].shard_lo = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(shard_count) * w) / workers);
    endpoints[w].shard_hi = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(shard_count) * (w + 1)) / workers);
    int pipe_fds[2];
    if (pipe(pipe_fds) != 0) {
      std::cerr << "error: pipe failed\n";
      return 1;
    }
    // Fork strictly before any thread exists in this process (the
    // analysis pool is lazy and the router never runs queries).
    const pid_t pid = fork();
    if (pid < 0) {
      std::cerr << "error: fork failed\n";
      return 1;
    }
    if (pid == 0) {
      close(pipe_fds[0]);
      for (int fd : ready_fds) {
        if (fd >= 0) close(fd);
      }
      run_worker(args, w, endpoints[w].socket_path, pipe_fds[1]);
    }
    close(pipe_fds[1]);
    pids[w] = pid;
    ready_fds[w] = pipe_fds[0];
  }

  // Wait for every worker to open its store and listen; a worker that
  // exits instead (bad store) closes the pipe without writing.
  bool all_ready = true;
  for (std::uint32_t w = 0; w < workers; ++w) {
    pollfd pfd{ready_fds[w], POLLIN, 0};
    const int rc = poll(&pfd, 1, 30000);
    char byte = 0;
    if (rc <= 0 || read(ready_fds[w], &byte, 1) != 1 || byte != 'R') {
      std::cerr << "error: worker " << w << " failed to start\n";
      all_ready = false;
    }
    close(ready_fds[w]);
  }

  int exit_code = 1;
  if (all_ready) {
    auto server = net::uds::Server::listen(args.serve_path);
    if (!server.ok()) {
      std::cerr << "error: " << server.status().message() << "\n";
    } else {
      net::RouterService service(
          std::move(manifest).value(), endpoints,
          {.allow_degraded = args.allow_degraded});
      net::DispatcherOptions dispatcher_options;
      dispatcher_options.worker_threads =
          std::max<std::size_t>(4, 2 * workers);
      net::ServeLoop loop(std::move(server).value(), service,
                          dispatcher_options);
      loop.start();
      MetricsExporter exporter(args.metrics_out);
      std::cerr << "routing " << args.serve_path << " over " << workers
                << " worker(s)\n";
      wait_shutdown_signal(signals);
      loop.stop();
      exit_code = 0;
    }
  }

  for (std::uint32_t w = 0; w < workers; ++w) {
    if (pids[w] > 0) kill(pids[w], SIGTERM);
  }
  for (std::uint32_t w = 0; w < workers; ++w) {
    if (pids[w] > 0) waitpid(pids[w], nullptr, 0);
    // A SIGKILLed worker leaves its socket file behind.
    unlink(endpoints[w].socket_path.c_str());
  }
  return exit_code;
}

/// Client mode: pipeline request lines at a server, print replies in
/// request order. Nonzero exit if the server vanishes mid-session.
int run_client(const ToolArgs& args) {
  auto client = net::QueryClient::connect(args.connect_path);
  if (!client.ok()) {
    std::cerr << "error: " << client.status().message() << "\n";
    return 1;
  }
  std::atomic<bool> lost{false};
  std::thread printer([&] {
    for (;;) {
      auto reply = (*client)->next_reply();
      if (!reply.ok()) {
        if (reply.status().code() != StatusCode::kExhausted) {
          std::cerr << "error: " << reply.status().message() << "\n";
          lost.store(true);
        }
        return;
      }
      std::cout << *reply << "\n" << std::flush;
    }
  });

  std::ifstream file;
  std::istream* in = &std::cin;
  if (!args.requests_path.empty()) {
    file.open(args.requests_path);
    if (!file) {
      std::cerr << "error: cannot open " << args.requests_path << "\n";
      (void)(*client)->goodbye();
      printer.join();
      return 1;
    }
    in = &file;
  }
  std::string line;
  while (std::getline(*in, line)) {
    if (is_blank(line)) continue;
    if (auto id = (*client)->send(line); !id.ok()) {
      std::cerr << "error: " << id.status().message() << "\n";
      lost.store(true);
      break;
    }
  }
  (void)(*client)->goodbye();
  printer.join();
  return lost.load() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  ToolArgs args;
  try {
    if (!parse_args(argc, argv, args)) return usage();
    int rc = 0;
    if (!args.connect_path.empty()) {
      rc = run_client(args);
    } else if (!args.serve_path.empty()) {
      rc = args.workers != 0 ? run_router(args) : run_server(args);
    } else {
      auto engine = make_engine(args);
      if (!engine) return 1;
      net::QueryService service(
          std::move(engine), {.default_page_size = args.default_page_size});
      rc = args.requests_path.empty() ? serve_stdin(service)
                                      : serve_batch(service, args);
    }
    export_metrics_at_exit(args);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
