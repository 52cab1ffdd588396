// Line-delimited JSON wire format for the provenance query API.
//
// One request per line in, one reply per line out -- the protocol the
// inspector_query serving front-end speaks over stdin/stdout, and the
// canonical textual form the engine uses as its cache key. The parser
// is strict: unknown operations, unknown fields, missing required
// fields, and non-integer numbers all come back as kInvalidArgument
// (never an exception), so a malformed client request is just another
// typed error on the wire.
//
// Requests:
//   {"id":1,"op":"backward_slice","node":5,"page_size":100}
//   {"id":2,"op":"page_accessors","page":12}
//   {"id":3,"op":"happens_before","first":1,"second":2}
//   {"id":4,"op":"races","limit":20,"ignored_pages":[7]}
//   {"id":5,"op":"taint","seed_pages":[1,2],"carryover":true,"sink_kind":10}
//   {"id":6,"op":"invalidate","changed_pages":[3]}
//   {"id":7,"op":"critical_path"}
//   {"id":8,"op":"stats"}
//   {"id":9,"op":"next","cursor":1}
//
// Replies (field order is fixed; integers only, so replies are
// byte-stable across platforms):
//   {"id":1,"status":"ok","total_items":40,"has_more":true,"cursor":1,
//    "nodes":[...]}
//   {"id":9,"status":"exhausted","error":"cursor 1 is exhausted"}
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "query/query.h"
#include "util/status.h"

namespace inspector::query::wire {

/// Cursor fetch ("op":"next").
struct NextRequest {
  std::uint64_t cursor = 0;
};

/// Introspection ("op":"metrics"): a snapshot of the serving process's
/// metrics registry. Answered locally by whichever process receives it
/// (a router answers with its own registry, not its workers').
struct MetricsRequest {};

/// A parsed request line.
struct Request {
  std::uint64_t id = 0;  ///< client-chosen, echoed in the reply
  std::uint64_t page_size = 0;  ///< 0 = unpaginated
  std::variant<Query, NextRequest, MetricsRequest> op;
};

/// Parse one request line. kInvalidArgument with a precise message on
/// anything malformed. When `echo_id` is non-null it receives the
/// request's "id" whenever one could be read -- even for requests that
/// fail later checks -- so error replies still reach the right caller.
[[nodiscard]] Result<Request> parse_request(std::string_view line,
                                            std::uint64_t* echo_id = nullptr);

/// Canonical single-line JSON encoding of a query: stable field order,
/// every field present. Doubles as the engine's cache key.
[[nodiscard]] std::string serialize_query(const Query& q);
[[nodiscard]] inline std::string cache_key(const Query& q) {
  return serialize_query(q);
}

/// One reply line (no trailing newline). Errors serialize the status
/// name and message; successes serialize the paginated payload.
[[nodiscard]] std::string serialize_reply(std::uint64_t id,
                                          const Result<Reply>& reply);

/// Reply line for a MetricsRequest: `metrics_json` (one JSON object,
/// e.g. obs::to_json of a registry snapshot) embedded verbatim.
[[nodiscard]] std::string serialize_metrics_reply(
    std::uint64_t id, std::string_view metrics_json);

}  // namespace inspector::query::wire
