#include "analysis/critical_path.h"

#include "analysis/kernels.h"

namespace inspector::analysis {

CriticalPath critical_path(const cpg::Graph& graph) {
  return kernels::critical_path(GraphView(graph));
}

std::vector<ThreadSummary> per_thread_summary(const cpg::Graph& graph) {
  std::vector<ThreadSummary> summaries(graph.thread_count());
  for (std::size_t t = 0; t < summaries.size(); ++t) {
    summaries[t].thread = static_cast<cpg::ThreadId>(t);
    for (cpg::NodeId id :
         graph.thread_nodes(static_cast<cpg::ThreadId>(t))) {
      const auto& n = graph.node(id);
      ++summaries[t].subcomputations;
      summaries[t].thunks += n.thunks.size();
      summaries[t].pages_read += n.read_set.size();
      summaries[t].pages_written += n.write_set.size();
    }
  }
  return summaries;
}

}  // namespace inspector::analysis
