// ShardedQueryEngine: the unsharded Query surface served out-of-core.
//
// ShardedQueryEngine is a query::QueryEngine whose backend serves a
// ShardStore -- sessions, cursors, caching, pagination, and batched
// fan-out are all inherited. The backend holds no analysis of its own:
// it presents the store as a
// provenance view (analysis/kernels.h) and runs the same per-kind
// dispatch as the in-memory backend (query/dispatch.h), so a reply
// stream (cursor page boundaries included) is bit-identical to the
// unsharded engine on the same history at every shard count and every
// worker count. The view resolves nodes through the manifest's node ->
// shard map, answers a page's writers and readers by chaining the
// buckets of the shards the manifest's page table names as holders,
// crosses shards through the stored edge frontier, and walks levels
// and whole-store passes shard by shard. Stats answer straight from
// the manifest.
#pragma once

#include <memory>

#include "query/engine.h"
#include "shard/store.h"

namespace inspector::shard {

class ShardedQueryEngine : public query::QueryEngine {
 public:
  /// With allow_degraded, queries that touch a quarantined shard skip
  /// it and return partial results carrying Execution::degraded (the
  /// wire marks them "degraded":true) instead of failing kUnavailable.
  /// Queries whose anchor node lives on the quarantined shard still
  /// fail -- there is no partial answer to give. Replies that never
  /// touch a quarantined shard are byte-identical either way.
  explicit ShardedQueryEngine(std::shared_ptr<ShardStore> store,
                              bool allow_degraded = false);

  [[nodiscard]] const ShardStore& store() const noexcept { return *store_; }

 private:
  std::shared_ptr<ShardStore> store_;
};

}  // namespace inspector::shard
