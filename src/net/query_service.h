// The query engine behind the RPC seam: one rpc::Service whose request
// and reply lines are exactly the line-delimited JSON of src/query/wire.*
// -- the same bytes inspector_query speaks on stdin/stdout, and the
// tool's in-process modes run this very service -- so a served session
// is byte-identical to an in-process one, cursor boundaries included.
//
// Each connection gets its own engine session (cursor namespace),
// closed when the connection ends. Query requests run their analysis
// in phase 1 (concurrent); pagination + cursor registration happen in
// the serial finalizer via QueryEngine::prepare/finish. "next" is a
// natural barrier: it runs entirely in the finalizer, after every
// earlier request's cursor has been registered.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "net/rpc.h"
#include "query/engine.h"

namespace inspector::net {

class QueryService final : public rpc::Service {
 public:
  struct Options {
    /// Applied when a request carries no page_size (0 keeps replies
    /// unpaginated, matching the stdin front-end's default).
    std::uint64_t default_page_size = 0;
  };

  explicit QueryService(std::shared_ptr<query::QueryEngine> engine)
      : QueryService(std::move(engine), Options()) {}
  QueryService(std::shared_ptr<query::QueryEngine> engine, Options options)
      : engine_(std::move(engine)), options_(options) {}

  [[nodiscard]] std::unique_ptr<rpc::Session> open_session() override;
  [[nodiscard]] rpc::Finalizer handle(rpc::Session& session,
                                      const rpc::Context& ctx,
                                      std::string_view line) override;

 private:
  std::shared_ptr<query::QueryEngine> engine_;
  Options options_;
};

}  // namespace inspector::net
