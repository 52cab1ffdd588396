#include "analysis/critical_path.h"

#include "analysis/kernels.h"

namespace inspector::analysis {

CriticalPath critical_path(const cpg::Graph& graph) {
  return kernels::critical_path(GraphView(graph));
}

}  // namespace inspector::analysis
