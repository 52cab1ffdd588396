#include "analysis/propagation.h"

#include "analysis/kernels.h"

namespace inspector::analysis {

Propagation propagate_pages(const cpg::Graph& graph,
                            const PageSet& seed_pages,
                            bool thread_carryover) {
  return kernels::propagate_pages(GraphView(graph), seed_pages,
                                  thread_carryover);
}

}  // namespace inspector::analysis
