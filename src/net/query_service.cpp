#include "net/query_service.h"

#include <utility>
#include <variant>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/overloaded.h"
#include "query/wire.h"

namespace inspector::net {

namespace {

using query::QueryEngine;
using query::Reply;
using query::wire::MetricsRequest;
using query::wire::NextRequest;

class EngineSession final : public rpc::Session {
 public:
  EngineSession(std::shared_ptr<QueryEngine> engine,
                QueryEngine::SessionId id)
      : engine_(std::move(engine)), id_(id) {}

  ~EngineSession() override { (void)engine_->close_session(id_); }

  [[nodiscard]] QueryEngine& engine() const noexcept { return *engine_; }
  [[nodiscard]] QueryEngine::SessionId id() const noexcept { return id_; }

 private:
  std::shared_ptr<QueryEngine> engine_;
  QueryEngine::SessionId id_;
};

}  // namespace

std::unique_ptr<rpc::Session> QueryService::open_session() {
  return std::make_unique<EngineSession>(engine_, engine_->open_session());
}

rpc::Finalizer QueryService::handle(rpc::Session& session,
                                    const rpc::Context&,
                                    std::string_view line) {
  auto& s = static_cast<EngineSession&>(session);
  std::uint64_t echo = 0;
  obs::Span parse_span("parse", obs::Span::Root::kDeny);
  auto request = query::wire::parse_request(line, &echo);
  parse_span.finish();
  if (!request.ok()) {
    // A malformed line still gets a normal error reply on its own
    // stream -- a bad request never poisons the connection.
    return [echo, status = request.status()] {
      return query::wire::serialize_reply(echo, Result<Reply>(status));
    };
  }
  return std::visit(
      query::detail::Overloaded{
          [&](const query::Query& q) -> rpc::Finalizer {
            query::QueryOptions options;
            options.page_size = request->page_size != 0
                                    ? request->page_size
                                    : options_.default_page_size;
            // Phase 1 (concurrent): the analysis. Phase 2 (serial, in
            // request order): pagination + cursor registration.
            auto prepared = s.engine().prepare(q, options);
            return [&s, echo, prepared = std::move(prepared)]() mutable {
              return query::wire::serialize_reply(
                  echo, s.engine().finish(s.id(), std::move(prepared)));
            };
          },
          [&](const NextRequest& next) -> rpc::Finalizer {
            // Entirely in the finalizer: a cursor fetch must observe
            // every earlier request's cursor registration.
            return [&s, echo, cursor = next.cursor] {
              return query::wire::serialize_reply(
                  echo, s.engine().next(s.id(), cursor));
            };
          },
          [&](const MetricsRequest&) -> rpc::Finalizer {
            // Introspection: a snapshot of this process's registry,
            // taken in phase 1 so the serial path only serializes.
            std::string json = obs::to_json(obs::Registry::global().snapshot());
            return [echo, json = std::move(json)] {
              return query::wire::serialize_metrics_reply(echo, json);
            };
          },
      },
      request->op);
}

}  // namespace inspector::net
