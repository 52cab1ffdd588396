// Tracing contract (src/obs/trace.h): a client span's context rides
// kTrace frames across the UDS boundary, so a routed query produces
// ONE span tree -- client span -> router rpc span -> route span /
// worker rpc span -> worker-side phases -- in the JSON-lines sink.
// And the inverse guarantee, the one the whole layer is built around:
// turning tracing on must not change a single reply byte, at any
// analysis worker count.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "cpg/graph.h"
#include "history_fixtures.h"
#include "net/client.h"
#include "net/dispatcher.h"
#include "net/query_service.h"
#include "net/router.h"
#include "net/uds.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "query/wire.h"
#include "shard/engine.h"
#include "shard/planner.h"
#include "shard/store.h"
#include "util/parallel.h"

namespace {

using namespace inspector;

std::string socket_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Value of a `"key":"value"` string field in one JSON span line;
/// empty if absent. The emitter writes flat one-line objects, so a
/// substring scan is an adequate parser for test assertions.
std::string json_string_field(const std::string& line,
                              const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto at = line.find(needle);
  if (at == std::string::npos) return {};
  const auto start = at + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return {};
  return line.substr(start, end - start);
}

struct ParsedSpan {
  std::string trace;
  std::string span;
  std::string parent;
  std::string name;
};

std::vector<ParsedSpan> read_spans(const std::string& path) {
  std::vector<ParsedSpan> spans;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (json_string_field(line, "type") != "span") continue;
    ParsedSpan s;
    s.trace = json_string_field(line, "trace");
    s.span = json_string_field(line, "span");
    s.parent = json_string_field(line, "parent");
    s.name = json_string_field(line, "name");
    spans.push_back(std::move(s));
  }
  return spans;
}

TEST(ObsTrace, ContextPropagatesAcrossRouterIntoOneTree) {
  const std::string trace_path = ::testing::TempDir() + "obs_trace_tree.jsonl";
  std::remove(trace_path.c_str());
  obs::Tracer::configure(trace_path);

  // In-process router rig: a sharded store, two workers, one router
  // front -- all sharing this process's trace sink, so the whole tree
  // lands in one file.
  const auto graph =
      std::make_shared<const cpg::Graph>(fixtures::random_history(7));
  const std::string dir = ::testing::TempDir() + "obs_trace_store";
  std::filesystem::remove_all(dir);
  auto manifest = shard::write_store(*graph, dir, shard::PlanOptions{3});
  ASSERT_TRUE(manifest.ok()) << manifest.status().message();

  std::vector<net::WorkerEndpoint> endpoints;
  std::vector<std::unique_ptr<net::QueryService>> services;
  std::vector<std::unique_ptr<net::ServeLoop>> loops;
  for (unsigned w = 0; w < 2; ++w) {
    net::WorkerEndpoint ep;
    ep.socket_path = socket_path("obs_trace.w" + std::to_string(w) + ".sock");
    ep.shard_lo = manifest->shard_count * w / 2;
    ep.shard_hi = manifest->shard_count * (w + 1) / 2;
    auto store = shard::ShardStore::open(dir);
    ASSERT_TRUE(store.ok()) << store.status().message();
    services.push_back(std::make_unique<net::QueryService>(
        std::make_shared<shard::ShardedQueryEngine>(std::move(store).value())));
    auto server = net::uds::Server::listen(ep.socket_path);
    ASSERT_TRUE(server.ok()) << server.status().message();
    loops.push_back(std::make_unique<net::ServeLoop>(std::move(server).value(),
                                                     *services.back()));
    loops.back()->start();
    endpoints.push_back(std::move(ep));
  }
  net::RouterService router(manifest.value(), endpoints);
  auto front_server = net::uds::Server::listen(socket_path("obs_trace.sock"));
  ASSERT_TRUE(front_server.ok()) << front_server.status().message();
  net::ServeLoop front(std::move(front_server).value(), router);
  front.start();

  std::string client_trace;
  std::string client_span;
  {
    auto client = net::QueryClient::connect(front.path());
    ASSERT_TRUE(client.ok()) << client.status().message();
    // The client-side span: its context rides a kTrace frame ahead of
    // the request, so every server-side span below joins its trace.
    obs::Span span("client");
    ASSERT_TRUE(span.active());
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(span.context().trace_id));
    client_trace = buf;
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(span.context().span_id));
    client_span = buf;
    obs::ContextScope scope(span.context());
    const auto reply =
        (*client)->call(R"({"id":1,"op":"backward_slice","node":0})");
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    ASSERT_TRUE((*client)->goodbye().ok());
    span.finish();
  }

  // Joining the serve loops flushes every server-side span (spans are
  // emitted after replies hit the wire, on the dispatcher threads).
  front.stop();
  for (auto& loop : loops) loop->stop();
  obs::Tracer::configure("");

  const auto spans = read_spans(trace_path);
  ASSERT_FALSE(spans.empty());
  std::map<std::string, ParsedSpan> by_id;
  for (const auto& s : spans) by_id[s.span] = s;

  // Every span in the file belongs to the client's trace: the context
  // crossed client -> router and router -> worker without forking.
  for (const auto& s : spans) {
    EXPECT_EQ(s.trace, client_trace) << s.name;
  }

  // The router's rpc span is the client span's child; the worker's
  // rpc span and the route span hang off the router's rpc span.
  std::string router_rpc;
  for (const auto& s : spans) {
    if (s.name == "rpc" && s.parent == client_span) router_rpc = s.span;
  }
  ASSERT_FALSE(router_rpc.empty()) << "no rpc span parented to the client";
  bool saw_worker_rpc = false;
  bool saw_route = false;
  for (const auto& s : spans) {
    if (s.name == "rpc" && s.parent == router_rpc) saw_worker_rpc = true;
    if (s.name == "route" && s.parent == router_rpc) saw_route = true;
  }
  EXPECT_TRUE(saw_worker_rpc) << "worker rpc span did not join the trace";
  EXPECT_TRUE(saw_route) << "route span did not join the trace";

  // The client span itself was emitted, as the tree's root.
  ASSERT_TRUE(by_id.contains(client_span));
  EXPECT_EQ(by_id[client_span].name, "client");
  EXPECT_TRUE(by_id[client_span].parent.empty());
}

/// One mixed session's serialized replies from a fresh engine.
std::vector<std::string> session_replies(
    const std::shared_ptr<const cpg::Graph>& graph) {
  const std::vector<std::string> lines = {
      R"({"id":1,"op":"stats"})",
      R"({"id":2,"op":"critical_path","page_size":3})",
      R"({"id":3,"op":"next","cursor":1})",
      R"({"id":4,"op":"backward_slice","node":0})",
      R"({"id":5,"op":"races","limit":5})",
      R"({"id":6,"op":"forward_slice","node":1,"page_size":4})",
      R"({"id":7,"op":"next","cursor":2})",
      R"({"id":8,"op":"taint","seed_pages":[0]})",
  };
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

TEST(ObsTrace, TracingDoesNotPerturbReplyBytes) {
  const auto graph =
      std::make_shared<const cpg::Graph>(fixtures::random_history(11));

  for (const unsigned workers : {1u, 8u}) {
    util::set_analysis_threads(workers);

    obs::Tracer::configure("");
    obs::Tracer::set_slow_query_threshold_ms(0);
    const auto off = session_replies(graph);

    // Full instrumentation: trace sink on, aggressive slow-query log.
    // Metrics are always recording; the only byte-visible surface the
    // obs layer could have is this one, and it must stay silent.
    const std::string trace_path =
        ::testing::TempDir() + "obs_trace_determinism.jsonl";
    obs::Tracer::configure(trace_path);
    obs::Tracer::set_slow_query_threshold_ms(1);
    const auto on = session_replies(graph);

    obs::Tracer::configure("");
    obs::Tracer::set_slow_query_threshold_ms(0);

    EXPECT_EQ(on, off) << "workers=" << workers;
    // The trace sink did observe the traced session, so "identical"
    // above is not vacuous.
    std::error_code ec;
    EXPECT_GT(std::filesystem::file_size(trace_path, ec), 0u);
  }
  util::set_analysis_threads(0);
}

}  // namespace
