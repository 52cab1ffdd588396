// Partitioning a captured history into shards.
//
// write_store() cuts the node set into K contiguous happens-before-rank
// ranges (Graph::rank() embeds the hb partial order in a total order,
// so equal-width rank windows are balanced topological sections: every
// recorded edge points from its shard to the same or a later shard),
// then materializes one self-contained file per shard -- local graph,
// global-id/rank/level sidecars, cross-shard frontier -- plus the
// routing manifest, fanning the per-shard builds out over the shared
// util::TaskPool. Payloads optionally run through the LZ block
// codec (ShardCodec::kLz).
//
// append() re-shards incrementally when a new capture extends a
// stored history: only shards whose rank range overlaps the appended
// suffix (new nodes, plus the endpoints of new edges) are rewritten;
// every shard strictly below that cut keeps its file untouched, and
// the manifest is updated in place.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cpg/graph.h"
#include "shard/format.h"
#include "util/status.h"

namespace inspector::shard {

struct PlanOptions {
  /// Number of shards to cut the history into (1..255; the manifest's
  /// node -> shard map is one byte per node).
  std::uint32_t shard_count = 4;
};

/// Cut `graph` into `options.shard_count` contiguous hb-rank ranges and
/// write one self-contained file per shard plus MANIFEST.bin into
/// `dir` (created if missing), encoding every shard body with `codec`.
/// Per-shard payload builds run on the shared analysis pool. Fails with
/// kInvalidArgument for a shard count outside [1, 255] and
/// kFailedPrecondition for histories the rank partition cannot serve:
/// a cyclic graph, or clock-inconsistent edges that do not advance the
/// hb rank.
[[nodiscard]] Result<Manifest> write_store(const cpg::Graph& graph,
                                           const std::string& dir,
                                           PlanOptions options = {},
                                           ShardCodec codec = ShardCodec::kRaw);

// --- incremental append -----------------------------------------------

struct AppendOptions {
  /// Codec for the rewritten shards. Unset = inherit from the store:
  /// the last kept shard's codec, or the store's first shard when the
  /// whole store is being rewritten -- so appending never silently
  /// changes a store's compression choice.
  std::optional<ShardCodec> codec;
};

struct AppendResult {
  Manifest manifest;
  std::uint32_t shards_kept = 0;       ///< files left untouched on disk
  std::uint32_t shards_rewritten = 0;  ///< rewritten + newly created
};

/// Incrementally re-shard the store at `dir` for `graph`, a capture
/// that extends the stored history: the stored nodes must be a prefix
/// of graph's node list and the stored edges a prefix of its edge
/// list (kInvalidArgument otherwise -- appending an unrelated history
/// is an error, never a silent rewrite). Shards whose rank range sits
/// strictly below every appended node and every endpoint of an
/// appended edge are provably byte-identical and keep their files;
/// the rank suffix is re-cut and rewritten under generation-suffixed
/// file names, MANIFEST.bin is updated in place, and only then are
/// the superseded files removed -- a crash anywhere mid-append leaves
/// the old manifest over its old, complete file set (plus some
/// unreferenced new-generation files a re-run overwrites).
///
/// Single writer, reopen to read the new data: the post-commit sweep
/// deletes the superseded generation's files, so a ShardStore still
/// open on the previous manifest will fail lazy loads of rewritten
/// shards with kNotFound after an append lands. Serving processes
/// should reopen the store (the manifest read is cheap) to pick up an
/// appended generation.
[[nodiscard]] Result<AppendResult> append(const std::string& dir,
                                          const cpg::Graph& graph,
                                          AppendOptions options = {});

/// The largest clean rank-prefix of `graph` with at most `max_nodes`
/// nodes: a cut c where ids {0..c-1} are exactly ranks {0..c-1} and
/// the edges among them are a prefix of the edge list -- i.e. a point
/// the capture could have stopped at. The returned graph's ranks,
/// levels, and edge indices all match the full graph's, so a store
/// written from it is appendable (shard::append) with the full
/// capture. kFailedPrecondition when no cut <= max_nodes exists.
[[nodiscard]] Result<cpg::Graph> rank_prefix(const cpg::Graph& graph,
                                             std::uint32_t max_nodes);

}  // namespace inspector::shard
