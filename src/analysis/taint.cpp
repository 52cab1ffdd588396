#include "analysis/taint.h"

#include <algorithm>

#include "analysis/kernels.h"
#include "analysis/propagation.h"

namespace inspector::analysis {

bool TaintResult::node_tainted(cpg::NodeId id) const {
  return std::binary_search(tainted_nodes.begin(), tainted_nodes.end(), id);
}

TaintResult propagate_taint(const cpg::Graph& graph,
                            const PageSet& seed_pages,
                            const TaintOptions& options) {
  Propagation p =
      propagate_pages(graph, seed_pages, options.track_register_carryover);
  TaintResult result;
  result.tainted_pages = std::move(p.pages);
  result.tainted_nodes = std::move(p.nodes);
  return result;
}

std::vector<cpg::NodeId> tainted_sinks(const cpg::Graph& graph,
                                       const TaintResult& taint,
                                       sync::SyncEventKind sink_kind) {
  return kernels::tainted_sinks(GraphView(graph), taint.tainted_nodes,
                                sink_kind);
}

}  // namespace inspector::analysis
