// Shared forward page-flow propagation over the CPG.
//
// Taint tracking (analysis/taint.h) and incremental invalidation
// (analysis/incremental.h) are the same fixpoint: seed a set of pages,
// walk the topological levels in order, mark every node that reads a
// marked page (optionally carrying the mark along its thread, for
// register survival across pthreads calls), and mark the pages it
// writes. Both call the one level-synchronous kernel in
// analysis/kernels.h, so the analyses -- and the sharded store --
// cannot drift apart; the result is bit-identical at every worker
// count.
#pragma once

#include <cstdint>
#include <vector>

#include "cpg/graph.h"
#include "util/page_set.h"

namespace inspector::analysis {

struct Propagation {
  /// Marked sub-computations, ascending id order.
  std::vector<cpg::NodeId> nodes;
  /// Marked pages: the seeds plus everything marked nodes wrote.
  /// Sorted and duplicate-free, like every page set in the system.
  PageSet pages;
};

/// Level-synchronous pass over the topological levels.
/// `thread_carryover` also marks every later same-thread node once a
/// thread consumed marked data. Seeds need not be normalized (and may
/// name pages no node ever touched; they simply cannot propagate).
[[nodiscard]] Propagation propagate_pages(const cpg::Graph& graph,
                                          const PageSet& seed_pages,
                                          bool thread_carryover);

}  // namespace inspector::analysis
