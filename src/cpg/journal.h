// The threading-library journal: the side-band record INSPECTOR's
// pthreads replacement persists next to the PT trace so the CPG can be
// rebuilt *offline* (the paper's pipeline decodes perf.data after the
// run, §V-B).
//
// A journal is the exact sequence of provenance-relevant calls the
// library made -- thread lifecycle, sub-computation boundaries with
// their page sets, acquire/release halves, schedule events -- with the
// per-node branch count linking each sub-computation to its span of
// the decoded PT branch stream.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cpg/node.h"
#include "sync/sync_event.h"
#include "util/status.h"

namespace inspector::cpg {

struct JournalOp {
  enum class Kind : std::uint8_t {
    kThreadStart,  ///< tid, aux = parent
    kEndSub,       ///< tid, sets, end reason, branch_count
    kRelease,      ///< tid, object
    kAcquire,      ///< tid, object
    kEvent,        ///< tid, object, event kind
    kThreadExit,   ///< tid, sets (of the final sub-computation)
  };

  Kind kind = Kind::kThreadStart;
  ThreadId tid = 0;
  std::uint64_t aux = 0;         ///< parent tid / sync object id
  sync::SyncEventKind event = sync::SyncEventKind::kMutexLock;
  std::vector<std::uint64_t> read_set;   ///< sorted page ids (kEndSub/kThreadExit)
  std::vector<std::uint64_t> write_set;
  std::uint32_t branch_count = 0;  ///< PT branches inside the closing node

  bool operator==(const JournalOp&) const = default;
};

struct Journal {
  std::vector<JournalOp> ops;

  bool operator==(const Journal&) const = default;
};

/// Binary encoding ("JRN1" magic).
[[nodiscard]] std::vector<std::uint8_t> serialize(const Journal& journal);
/// Inverse. Malformed input -- truncation, a bad magic, an op kind or
/// event outside its enum, a thread id or parent at or above the op
/// count (every thread has a start op, so no valid id is that large),
/// an implausible count, trailing bytes -- is kInvalidArgument with a
/// message starting "journal: ".
[[nodiscard]] Result<Journal> deserialize_journal(
    std::span<const std::uint8_t> bytes);

}  // namespace inspector::cpg
