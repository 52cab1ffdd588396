// Concurrent Provenance Graph node types (INSPECTOR §IV-A).
//
// A sub-computation L_t[alpha] is the code thread t executed between two
// pthreads synchronization calls; it subdivides into thunks L_t[alpha].D[beta]
// at branch boundaries. Each node carries its vector clock (position in
// the happens-before partial order) and page-granular read/write sets.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sync/sync_event.h"
#include "util/page_set.h"
#include "vclock/vector_clock.h"

namespace inspector::cpg {

using ThreadId = sync::ThreadId;
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// One recorded control transfer inside a thunk (decoded from the PT
/// trace: TNT bit or TIP target mapped onto the image).
struct BranchRecord {
  std::uint64_t ip = 0;      ///< branch instruction address
  std::uint64_t target = 0;  ///< destination
  bool taken = false;
  bool indirect = false;

  bool operator==(const BranchRecord&) const = default;
};

/// A thunk: straight-line code ended by one branch. `beta` is the index
/// within the owning sub-computation (Algorithm 2's thunk counter).
struct Thunk {
  std::uint32_t beta = 0;
  BranchRecord branch;  ///< the branch that terminated this thunk

  bool operator==(const Thunk&) const = default;
};

/// Why a sub-computation ended (which synchronization call).
struct EndReason {
  sync::SyncEventKind kind = sync::SyncEventKind::kThreadExit;
  sync::ObjectId object = 0;
};

/// A vertex of the CPG.
struct SubComputation {
  NodeId id = kInvalidNode;
  ThreadId thread = 0;
  std::uint64_t alpha = 0;  ///< index in the thread's execution sequence L_t
  vclock::VectorClock clock;

  PageSet read_set;   ///< sorted, duplicate-free page ids
  PageSet write_set;  ///< sorted, duplicate-free page ids
  std::vector<Thunk> thunks;

  EndReason end;
  std::uint64_t start_seq = 0;  ///< global sequence numbers bracketing the
  std::uint64_t end_seq = 0;    ///< node (for schedule reconstruction)

  /// True when `page` is in the (sorted) read set.
  [[nodiscard]] bool reads_page(std::uint64_t page) const;
  /// True when `page` is in the (sorted) write set.
  [[nodiscard]] bool writes_page(std::uint64_t page) const;
};

/// One node as a storage view hands it out: everything a
/// happens-before check, a bucket walk and a page-set test need,
/// without going back through storage.
struct NodeRef {
  NodeId id = kInvalidNode;
  std::uint32_t rank = 0;  ///< global happens-before-compatible rank
  const SubComputation* node = nullptr;
};

/// a happens-before b (§IV-B). The rank fast-reject comes first: rank
/// embeds happens-before, so rank(a) >= rank(b) rules it out without
/// touching either node. Then same-thread alpha order, then the clocks.
[[nodiscard]] inline bool happens_before(const NodeRef& a, const NodeRef& b) {
  if (a.rank >= b.rank) return false;
  if (a.node->thread == b.node->thread) return a.node->alpha < b.node->alpha;
  return a.node->clock.happens_before(b.node->clock);
}

/// Directed edge kinds of the CPG (§IV-A I/II/III).
enum class EdgeKind : std::uint8_t {
  kControl,  ///< L_t[a] -> L_t[a+1], same thread
  kSync,     ///< release -> matching acquire
  kData,     ///< write-set/read-set intersection under happens-before
};

/// Number of EdgeKind values: a decoded kind byte must be below it.
inline constexpr std::uint8_t kEdgeKinds =
    static_cast<std::uint8_t>(EdgeKind::kData) + 1;

struct Edge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  EdgeKind kind = EdgeKind::kControl;
  sync::ObjectId object = 0;    ///< sync object (kSync) or page id (kData)

  bool operator==(const Edge&) const = default;
};

std::ostream& operator<<(std::ostream& os, const SubComputation& node);
std::ostream& operator<<(std::ostream& os, const Edge& edge);

}  // namespace inspector::cpg
