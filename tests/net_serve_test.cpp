// End-to-end tests for the serving tier over real AF_UNIX sockets:
// served sessions must be byte-identical to the in-process engine
// (the PR-4 reply contract extended across the process boundary),
// Cancel must free one stream without corrupting its neighbors, and a
// dead worker behind the router must surface as typed kUnavailable --
// or transparent failover under degraded serving -- never a hang.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "cpg/graph.h"
#include "net/client.h"
#include "net/dispatcher.h"
#include "net/query_service.h"
#include "net/router.h"
#include "net/uds.h"
#include "query/engine.h"
#include "query/wire.h"
#include "shard/engine.h"
#include "shard/planner.h"
#include "shard/store.h"
#include "util/page_set.h"
#include "history_fixtures.h"

namespace {

using namespace inspector;

std::string socket_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<std::string> request_lines() {
  return {
      R"({"id":1,"op":"stats"})",
      R"({"id":2,"op":"critical_path","page_size":3})",
      R"({"id":3,"op":"next","cursor":1})",
      R"({"id":4,"op":"next","cursor":1})",
      R"({"id":5,"op":"backward_slice","node":0})",
      R"({"id":6,"op":"forward_slice","node":1,"page_size":4})",
      R"({"id":7,"op":"next","cursor":2})",
      R"({"id":8,"op":"races","limit":5})",
      R"({"id":9,"op":"latest_writers","node":2})",
      R"({"id":10,"op":"next","cursor":99})",
      R"({"id":11,"op":"bogus"})",
  };
}

/// What the stdin front-end would print: one serial engine session,
/// requests executed in order. This is the byte-identity oracle for
/// every transport configuration below.
std::vector<std::string> reference_replies(
    const std::shared_ptr<const cpg::Graph>& graph,
    const std::vector<std::string>& lines) {
  query::QueryEngine engine(graph);
  std::vector<std::string> replies;
  for (const std::string& line : lines) {
    std::uint64_t id = 0;
    const auto parsed = query::wire::parse_request(line, &id);
    if (!parsed.ok()) {
      replies.push_back(query::wire::serialize_reply(
          id, Result<query::Reply>(parsed.status())));
      continue;
    }
    if (const auto* next =
            std::get_if<query::wire::NextRequest>(&parsed.value().op)) {
      replies.push_back(
          query::wire::serialize_reply(id, engine.next(next->cursor)));
      continue;
    }
    query::QueryOptions options;
    options.page_size = parsed.value().page_size;
    replies.push_back(query::wire::serialize_reply(
        id, engine.run(std::get<query::Query>(parsed.value().op), options)));
  }
  return replies;
}

/// Replay `lines` through one client connection, pipelined, and
/// return the replies in order.
std::vector<std::string> replay(const std::string& path,
                                const std::vector<std::string>& lines) {
  auto client = net::QueryClient::connect(path);
  EXPECT_TRUE(client.ok()) << client.status().message();
  if (!client.ok()) return {};
  for (const std::string& line : lines) {
    const auto id = (*client)->send(line);
    EXPECT_TRUE(id.ok()) << id.status().message();
  }
  std::vector<std::string> replies;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    auto reply = (*client)->next_reply();
    EXPECT_TRUE(reply.ok()) << reply.status().message();
    if (!reply.ok()) break;
    replies.push_back(std::move(reply).value());
  }
  EXPECT_TRUE((*client)->goodbye().ok());
  return replies;
}

TEST(NetServe, ConcurrentClientsMatchInProcessEngine) {
  const auto graph =
      std::make_shared<const cpg::Graph>(fixtures::random_history(7));
  const auto lines = request_lines();
  const auto expected = reference_replies(graph, lines);

  net::QueryService service(std::make_shared<query::QueryEngine>(graph));
  auto server = net::uds::Server::listen(socket_path("net_serve_basic.sock"));
  ASSERT_TRUE(server.ok()) << server.status().message();
  net::ServeLoop loop(std::move(server).value(), service);
  loop.start();

  // Each connection gets its own engine session, so every client must
  // see the exact same reply bytes -- cursor ids included.
  constexpr int kClients = 3;
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(
        [&, c] { got[c] = replay(loop.path(), lines); });
  }
  for (auto& t : clients) t.join();
  loop.stop();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(got[c], expected) << "client " << c;
  }
}

TEST(NetServe, TinyFramesReassembleIdentically) {
  const auto graph =
      std::make_shared<const cpg::Graph>(fixtures::random_history(3));
  const auto lines = request_lines();
  const auto expected = reference_replies(graph, lines);

  net::QueryService service(std::make_shared<query::QueryEngine>(graph));
  net::DispatcherOptions options;
  options.max_frame_payload = 8;  // every reply spans many Data frames
  auto server = net::uds::Server::listen(socket_path("net_serve_tiny.sock"));
  ASSERT_TRUE(server.ok()) << server.status().message();
  net::ServeLoop loop(std::move(server).value(), service, options);
  loop.start();

  EXPECT_EQ(replay(loop.path(), lines), expected);
  loop.stop();
}

/// A service whose requests echo back from the finalizer -- except
/// those containing `gate` ("block" by default), whose phase 1 parks
/// until its stream is cancelled. Exercises Cancel against a genuinely
/// in-flight request.
class GateService final : public net::rpc::Service {
 public:
  explicit GateService(std::string gate = "block") : gate_(std::move(gate)) {}

  [[nodiscard]] std::unique_ptr<net::rpc::Session> open_session() override {
    return std::make_unique<net::rpc::Session>();
  }
  [[nodiscard]] net::rpc::Finalizer handle(
      net::rpc::Session&, const net::rpc::Context& ctx,
      std::string_view request) override {
    if (request.find(gate_) != std::string_view::npos) {
      parked.fetch_add(1);
      while (!ctx.is_cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return [] { return std::string("cancelled streams never reply"); };
    }
    std::string copy(request);
    return [copy] { return "ok:" + copy; };
  }

  /// Requests that have parked so far.
  std::atomic<int> parked{0};

 private:
  std::string gate_;
};

TEST(NetServe, CancelFreesStreamWithoutCorruptingNeighbors) {
  GateService service;
  auto server = net::uds::Server::listen(socket_path("net_serve_cancel.sock"));
  ASSERT_TRUE(server.ok()) << server.status().message();
  net::ServeLoop loop(std::move(server).value(), service);
  loop.start();

  auto client = net::QueryClient::connect(loop.path());
  ASSERT_TRUE(client.ok()) << client.status().message();
  ASSERT_TRUE((*client)->send("alpha").ok());
  const auto blocked = (*client)->send("block");
  ASSERT_TRUE(blocked.ok());
  ASSERT_TRUE((*client)->send("beta").ok());
  ASSERT_TRUE((*client)->send("gamma").ok());
  // The blocked stream holds the reply head until cancelled; its
  // neighbors' replies must then flow through intact and in order.
  ASSERT_TRUE((*client)->cancel(*blocked).ok());

  std::vector<std::string> replies;
  for (int i = 0; i < 3; ++i) {
    auto reply = (*client)->next_reply();
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    replies.push_back(std::move(reply).value());
  }
  EXPECT_EQ(replies,
            (std::vector<std::string>{"ok:alpha", "ok:beta", "ok:gamma"}));

  // Drain cleanly: no fourth reply exists, and goodbye must complete
  // (the cancelled stream cannot wedge the connection).
  ASSERT_TRUE((*client)->goodbye().ok());
  const auto after = (*client)->next_reply();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kExhausted);
  loop.stop();
}

// Several threads may share one client: concurrent senders must reach
// the server in stream-id order (the dispatcher closes a connection
// whose ids go backwards), and each call() must get its own reply.
TEST(NetServe, ThreadsSharingOneClientEachGetTheirOwnReplies) {
  GateService service;
  auto server = net::uds::Server::listen(socket_path("net_serve_shared.sock"));
  ASSERT_TRUE(server.ok()) << server.status().message();
  net::ServeLoop loop(std::move(server).value(), service);
  loop.start();

  auto client = net::QueryClient::connect(loop.path());
  ASSERT_TRUE(client.ok()) << client.status().message();
  constexpr int kThreads = 8;
  constexpr int kCalls = 500;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::string> first_failure(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        const std::string line =
            "t" + std::to_string(t) + "." + std::to_string(i);
        const auto reply = (*client)->call(line);
        if (reply.ok() && *reply == "ok:" + line) continue;
        if (failures[t]++ == 0) {
          first_failure[t] = reply.ok() ? line + " got " + *reply
                                        : reply.status().message();
        }
        if (!reply.ok()) return;  // the connection is gone
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t << ": " << first_failure[t];
  }
  EXPECT_TRUE((*client)->goodbye().ok());
  loop.stop();
}

/// Everything a router test needs: a store on disk, one QueryService
/// ServeLoop per worker, and the manifest for the RouterService.
struct RouterRig {
  std::shared_ptr<const cpg::Graph> graph;
  shard::Manifest manifest;
  std::vector<net::WorkerEndpoint> endpoints;
  std::vector<std::unique_ptr<net::QueryService>> services;
  std::vector<std::unique_ptr<net::ServeLoop>> loops;

  /// Worker preferred for `node` under the rig's shard split.
  [[nodiscard]] std::size_t worker_of(cpg::NodeId node) const {
    const std::uint32_t shard = manifest.node_shard[node];
    for (std::size_t w = 0; w < endpoints.size(); ++w) {
      if (shard >= endpoints[w].shard_lo && shard < endpoints[w].shard_hi) {
        return w;
      }
    }
    return 0;
  }
};

RouterRig make_rig(const std::string& name, std::uint64_t seed,
                   std::uint32_t workers) {
  RouterRig rig;
  rig.graph = std::make_shared<const cpg::Graph>(fixtures::random_history(seed));
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  auto manifest = shard::write_store(*rig.graph, dir, shard::PlanOptions{3});
  EXPECT_TRUE(manifest.ok()) << manifest.status().message();
  rig.manifest = std::move(manifest).value();
  for (std::uint32_t w = 0; w < workers; ++w) {
    net::WorkerEndpoint ep;
    ep.socket_path = socket_path(name + ".w" + std::to_string(w) + ".sock");
    ep.shard_lo = rig.manifest.shard_count * w / workers;
    ep.shard_hi = rig.manifest.shard_count * (w + 1) / workers;
    auto store = shard::ShardStore::open(dir);
    EXPECT_TRUE(store.ok()) << store.status().message();
    rig.services.push_back(std::make_unique<net::QueryService>(
        std::make_shared<shard::ShardedQueryEngine>(std::move(store).value())));
    auto server = net::uds::Server::listen(ep.socket_path);
    EXPECT_TRUE(server.ok()) << server.status().message();
    rig.loops.push_back(std::make_unique<net::ServeLoop>(
        std::move(server).value(), *rig.services.back()));
    rig.loops.back()->start();
    rig.endpoints.push_back(std::move(ep));
  }
  return rig;
}

TEST(NetServe, RouterMatchesInProcessEngine) {
  RouterRig rig = make_rig("net_router_ok", 7, 2);
  const auto lines = request_lines();
  const auto expected = reference_replies(rig.graph, lines);

  net::RouterService router(rig.manifest, rig.endpoints);
  auto server = net::uds::Server::listen(socket_path("net_router_ok.sock"));
  ASSERT_TRUE(server.ok()) << server.status().message();
  net::ServeLoop front(std::move(server).value(), router);
  front.start();

  EXPECT_EQ(replay(front.path(), lines), expected);
  front.stop();
}

TEST(NetServe, ConcurrentClientsThroughRouter) {
  RouterRig rig = make_rig("net_router_multi", 7, 2);
  const auto lines = request_lines();
  const auto expected = reference_replies(rig.graph, lines);

  net::RouterService router(rig.manifest, rig.endpoints);
  auto server = net::uds::Server::listen(socket_path("net_router_multi.sock"));
  ASSERT_TRUE(server.ok()) << server.status().message();
  net::ServeLoop front(std::move(server).value(), router);
  front.start();

  constexpr int kClients = 3;
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(
        [&, c] { got[c] = replay(front.path(), lines); });
  }
  for (auto& t : clients) t.join();
  front.stop();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(got[c], expected) << "client " << c;
  }
}

// Regression: a client disconnect tears down its session's worker
// links, and the resulting channel EOF must NOT be mistaken for the
// worker dying -- the sticky service-wide ledger would answer every
// later session with kUnavailable.
TEST(NetServe, SequentialSessionsDoNotPoisonWorkers) {
  RouterRig rig = make_rig("net_router_seq", 7, 2);
  const auto lines = request_lines();
  const auto expected = reference_replies(rig.graph, lines);

  net::RouterService router(rig.manifest, rig.endpoints);
  auto server = net::uds::Server::listen(socket_path("net_router_seq.sock"));
  ASSERT_TRUE(server.ok()) << server.status().message();
  net::ServeLoop front(std::move(server).value(), router);
  front.start();

  EXPECT_EQ(replay(front.path(), lines), expected) << "first session";
  EXPECT_EQ(replay(front.path(), lines), expected) << "second session";
  front.stop();
}

TEST(NetServe, DeadWorkerYieldsTypedUnavailable) {
  RouterRig rig = make_rig("net_router_kill", 7, 2);

  // One node per worker, so one query must fail and one must succeed.
  cpg::NodeId on_w0 = 0, on_w1 = 0;
  bool found_w0 = false, found_w1 = false;
  for (cpg::NodeId n = 0; n < rig.manifest.node_shard.size(); ++n) {
    if (rig.worker_of(n) == 0 && !found_w0) { on_w0 = n; found_w0 = true; }
    if (rig.worker_of(n) == 1 && !found_w1) { on_w1 = n; found_w1 = true; }
  }
  ASSERT_TRUE(found_w0 && found_w1);

  net::RouterService router(rig.manifest, rig.endpoints);
  auto server = net::uds::Server::listen(socket_path("net_router_kill.sock"));
  ASSERT_TRUE(server.ok()) << server.status().message();
  net::ServeLoop front(std::move(server).value(), router);
  front.start();

  rig.loops[0]->abort();  // worker 0 "crashes" before serving anything

  auto client = net::QueryClient::connect(front.path());
  ASSERT_TRUE(client.ok()) << client.status().message();
  const std::string q0 = "{\"id\":1,\"op\":\"backward_slice\",\"node\":" +
                         std::to_string(on_w0) + "}";
  const std::string q1 = "{\"id\":2,\"op\":\"backward_slice\",\"node\":" +
                         std::to_string(on_w1) + "}";
  const auto r0 = (*client)->call(q0);
  ASSERT_TRUE(r0.ok()) << r0.status().message();
  EXPECT_NE(r0->find("\"status\":\"unavailable\""), std::string::npos) << *r0;
  EXPECT_NE(r0->find("worker 0"), std::string::npos) << *r0;
  const auto r1 = (*client)->call(q1);
  ASSERT_TRUE(r1.ok()) << r1.status().message();
  EXPECT_EQ(*r1, reference_replies(rig.graph, {q1})[0]);
  ASSERT_TRUE((*client)->goodbye().ok());
  front.stop();
}

// A page query goes to the worker owning the first shard that holds
// the page. Shard 0's lowest and highest pages bracket pages only later
// shards hold, so a route by page range would send those to worker 0;
// with worker 0 down, the holder route still answers them.
TEST(NetServe, PageQueriesRouteToAWorkerHoldingThePage) {
  RouterRig rig = make_rig("net_router_page", 9, 2);
  PageSet first;  // the pages shard 0's nodes touch
  for (cpg::NodeId n = 0; n < rig.graph->nodes().size(); ++n) {
    if (rig.manifest.node_shard[n] != 0) continue;
    const cpg::SubComputation& node = rig.graph->node(n);
    first.insert(first.end(), node.read_set.begin(), node.read_set.end());
    first.insert(first.end(), node.write_set.begin(), node.write_set.end());
  }
  page_set_normalize(first);
  ASSERT_GE(first.size(), 2u);
  std::optional<std::uint64_t> page;
  for (const std::uint64_t p : rig.manifest.pages) {
    if (p > first.front() && p < first.back() &&
        !page_set_contains(first, p)) {
      page = p;
      break;
    }
  }
  ASSERT_TRUE(page.has_value()) << "no page inside shard 0's range it lacks";

  net::RouterService router(rig.manifest, rig.endpoints);
  auto server = net::uds::Server::listen(socket_path("net_router_page.sock"));
  ASSERT_TRUE(server.ok()) << server.status().message();
  net::ServeLoop front(std::move(server).value(), router);
  front.start();

  rig.loops[0]->abort();

  auto client = net::QueryClient::connect(front.path());
  ASSERT_TRUE(client.ok()) << client.status().message();
  const std::string q = "{\"id\":1,\"op\":\"page_accessors\",\"page\":" +
                        std::to_string(*page) + "}";
  const auto reply = (*client)->call(q);
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  EXPECT_NE(reply->find("\"status\":\"ok\""), std::string::npos) << *reply;
  EXPECT_EQ(*reply, reference_replies(rig.graph, {q})[0]);
  ASSERT_TRUE((*client)->goodbye().ok());
  front.stop();
}

TEST(NetServe, KillMidSessionInvalidatesTheWorkersCursors) {
  RouterRig rig = make_rig("net_router_cursor", 7, 2);

  net::RouterService router(rig.manifest, rig.endpoints);
  auto server = net::uds::Server::listen(socket_path("net_router_cur.sock"));
  ASSERT_TRUE(server.ok()) << server.status().message();
  net::ServeLoop front(std::move(server).value(), router);
  front.start();

  auto client = net::QueryClient::connect(front.path());
  ASSERT_TRUE(client.ok()) << client.status().message();

  // Walk worker-0 nodes until a page-1 slice actually paginates, so a
  // live cursor exists inside worker 0. Replies stay reference-equal
  // along the way (including the virtualized cursor ids).
  std::vector<std::string> issued;
  std::string cursor;
  for (cpg::NodeId n = 0;
       n < rig.manifest.node_shard.size() && cursor.empty(); ++n) {
    if (rig.worker_of(n) != 0) continue;
    issued.push_back("{\"id\":" + std::to_string(issued.size() + 1) +
                     ",\"op\":\"forward_slice\",\"node\":" +
                     std::to_string(n) + ",\"page_size\":1}");
    const auto reply = (*client)->call(issued.back());
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    EXPECT_EQ(*reply, reference_replies(rig.graph, issued).back());
    const std::string_view marker = "\"has_more\":true,\"cursor\":";
    const auto at = reply->find(marker);
    if (at == std::string::npos) continue;
    for (std::size_t i = at + marker.size(); i < reply->size() &&
                                  std::isdigit(static_cast<unsigned char>(
                                      (*reply)[i]));
         ++i) {
      cursor.push_back((*reply)[i]);
    }
  }
  ASSERT_FALSE(cursor.empty()) << "no worker-0 slice paginated";

  // The paginated result lives in worker 0; killing it mid-session
  // must turn "next" into a typed error, not a hang or a wrong page.
  rig.loops[0]->abort();
  const auto next = (*client)->call(
      R"({"id":99,"op":"next","cursor":)" + cursor + "}");
  ASSERT_TRUE(next.ok()) << next.status().message();
  EXPECT_NE(next->find("\"status\":\"unavailable\""), std::string::npos)
      << *next;
  ASSERT_TRUE((*client)->goodbye().ok());
  front.stop();
}

TEST(NetServe, DeadWorkerFailsOverWhenDegraded) {
  RouterRig rig = make_rig("net_router_deg", 7, 2);
  const auto lines = request_lines();
  const auto expected = reference_replies(rig.graph, lines);

  net::RouterService router(rig.manifest, rig.endpoints,
                            {.allow_degraded = true});
  auto server = net::uds::Server::listen(socket_path("net_router_deg.sock"));
  ASSERT_TRUE(server.ok()) << server.status().message();
  net::ServeLoop front(std::move(server).value(), router);
  front.start();

  rig.loops[0]->abort();

  // Every worker opens the full store, so failover re-runs each of the
  // dead worker's queries on the survivor -- and because replies are
  // complete-or-nothing, the output is still byte-identical.
  EXPECT_EQ(replay(front.path(), lines), expected);
  front.stop();
}

// A Cancel forwarded to a worker means the worker never replies, so the
// router's waiting call must complete at once instead of holding one of
// the connection's exec threads until the session ends -- otherwise as
// many cancels as the dispatcher has exec threads wedge the connection.
// A cancelled call must not mark the worker dead either.
TEST(NetServe, CancelledRoutedRequestsFreeTheirExecThreads) {
  GateService worker("races");
  auto worker_server =
      net::uds::Server::listen(socket_path("net_router_cancel.w0.sock"));
  ASSERT_TRUE(worker_server.ok()) << worker_server.status().message();
  net::ServeLoop worker_loop(std::move(worker_server).value(), worker);
  worker_loop.start();

  net::WorkerEndpoint endpoint;
  endpoint.socket_path = worker_loop.path();
  endpoint.shard_hi = 1;
  net::RouterService router(shard::Manifest{}, {endpoint});
  auto server = net::uds::Server::listen(socket_path("net_router_cancel.sock"));
  ASSERT_TRUE(server.ok()) << server.status().message();
  net::ServeLoop front(std::move(server).value(), router);
  front.start();

  auto client = net::QueryClient::connect(front.path());
  ASSERT_TRUE(client.ok()) << client.status().message();
  const std::size_t exec_threads = net::DispatcherOptions{}.worker_threads;
  std::vector<std::uint64_t> streams;
  for (std::size_t k = 1; k <= exec_threads; ++k) {
    const auto id = (*client)->send(
        "{\"id\":" + std::to_string(k) + ",\"op\":\"races\"}");
    ASSERT_TRUE(id.ok()) << id.status().message();
    streams.push_back(*id);
  }
  // Once every request parked in the worker, every router exec thread
  // is inside a forwarded call.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (worker.parked.load() < static_cast<int>(exec_threads) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(worker.parked.load(), static_cast<int>(exec_threads));
  for (const std::uint64_t id : streams) {
    ASSERT_TRUE((*client)->cancel(id).ok());
  }

  const std::string stats = R"({"id":9,"op":"stats"})";
  ASSERT_TRUE((*client)->send(stats).ok());
  auto reply = std::async(std::launch::async,
                          [&] { return (*client)->next_reply(); });
  const bool answered =
      reply.wait_for(std::chrono::seconds(3)) == std::future_status::ready;
  EXPECT_TRUE(answered) << "cancelled routed requests still hold the "
                           "router's exec threads";
  // Stopping the worker releases any call still waiting on it, so the
  // test ends either way.
  worker_loop.stop();
  const auto got = reply.get();
  if (answered) {
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(*got, "ok:" + stats);
  }
  EXPECT_TRUE((*client)->goodbye().ok());
  front.stop();
}

}  // namespace
