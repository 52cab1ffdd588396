// CPG serialization: the format the snapshot ring stores and the
// perf-script-style text dump the paper's extended perf interface
// exposes (§V, "exports the CPG as an extended interface in the perf
// utility").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cpg/graph.h"
#include "util/status.h"

namespace inspector::cpg {

/// "CPG1" magic opening every whole-graph file.
inline constexpr std::uint32_t kCpgMagic = 0x31475043;
/// Current format generation. Version 1 was the headerless pre-shard
/// layout (magic only); version 2 added this explicit version field,
/// so stale files fail with a clear error instead of a misparsed node
/// count; version 3 packs the monotone/small-integer node payload
/// (page sets, clocks, alpha, seqs) as delta+varints (util/varint.h).
/// A build reads exactly this generation. Bump on any layout change.
inline constexpr std::uint32_t kCpgFormatVersion = 3;

/// Compact binary encoding (little-endian). Layout: magic "CPG1",
/// format version, node count, nodes, edge count, edges, schedule.
[[nodiscard]] std::vector<std::uint8_t> serialize(const Graph& graph);

/// A CPG file's records decoded, before the graph's query index is
/// built: what deserialize_checked() hands to the Graph constructor.
/// The sharded store decodes through this so a load can time the
/// decode and the index build apart.
struct GraphParts {
  std::vector<SubComputation> nodes;
  std::vector<Edge> edges;
  std::vector<sync::SyncEvent> schedule;
  ThunkColumn thunks;
};

/// deserialize_checked() without the index build: the same checks and
/// messages for everything the bytes themselves can get wrong.
[[nodiscard]] Result<GraphParts> deserialize_graph_parts(
    std::span<const std::uint8_t> bytes);

/// The rest of deserialize_checked(): the Graph over decoded parts,
/// its index built. Endpoints the constructor rejects come back as the
/// same kInvalidArgument.
[[nodiscard]] Result<Graph> deserialize_build_graph(GraphParts parts);

/// Inverse of serialize(). A malformed, truncated, or wrong-version
/// buffer comes back as kInvalidArgument with a precise message; this
/// is the one decode path (tools, the sharded store and the snapshot
/// ring all load through it). Accepts a view so nested sections (a
/// shard file's embedded graph) decode in place without copying the
/// payload.
[[nodiscard]] Result<Graph> deserialize_checked(
    std::span<const std::uint8_t> bytes);

/// Human-readable dump, one node per line plus edges; the shape a
/// `perf script` post-processor would print.
[[nodiscard]] std::string to_text(const Graph& graph);

/// Graphviz dot, for the examples' visual output.
[[nodiscard]] std::string to_dot(const Graph& graph);

}  // namespace inspector::cpg
