// Offline CPG reconstruction: journal + decoded PT branches -> Graph.
//
// This is the paper's actual pipeline shape (§V-B): the run produces a
// perf.data (PT byte streams) and the threading library's side-band
// journal; afterwards, a post-processing step decodes the trace against
// the binary image and merges it with the journal to build the same
// Concurrent Provenance Graph the online recorder would have built.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cpg/graph.h"
#include "cpg/journal.h"
#include "cpg/node.h"
#include "util/status.h"

namespace inspector::cpg {

/// Rebuild the CPG by replaying `journal` through a fresh recorder,
/// attaching each sub-computation's branches from the per-thread branch
/// streams (`branches[tid]`, in retirement order -- the flow decoder's
/// output; a thread without an entry has an empty stream). A thread's
/// stream shorter than the journal demands (trace gap or wrong trace)
/// and a journal the recorder refuses (a thread used before its start
/// op, started twice, or never exiting) are kInvalidArgument naming
/// the journal op.
[[nodiscard]] Result<Graph> rebuild_from_journal(
    const Journal& journal,
    const std::map<ThreadId, std::vector<BranchRecord>>& branches);

}  // namespace inspector::cpg
