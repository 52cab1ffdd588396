// Critical-path and graph-shape analysis of a CPG.
//
// The longest chain of dependent sub-computations bounds how much an
// incremental or replicated re-execution (the paper's §I workflows:
// incremental computation, state machine replication) can parallelize:
// everything on the critical path must re-run sequentially.
#pragma once

#include <cstdint>
#include <vector>

#include "cpg/graph.h"

namespace inspector::analysis {

struct CriticalPath {
  /// Node ids along one longest dependency chain, in execution order.
  std::vector<cpg::NodeId> nodes;
  /// Chain length (== nodes.size()).
  std::size_t length = 0;
  /// Total nodes in the graph, for the parallelism ratio.
  std::size_t total_nodes = 0;

  /// Average available parallelism: total / critical-path length.
  [[nodiscard]] double parallelism() const {
    return length == 0 ? 0.0
                       : static_cast<double>(total_nodes) /
                             static_cast<double>(length);
  }
};

/// Longest path through the recorded control+sync edges (DAG dynamic
/// programming over a topological order).
[[nodiscard]] CriticalPath critical_path(const cpg::Graph& graph);

}  // namespace inspector::analysis
