// Concurrent Provenance Graph node types (INSPECTOR §IV-A).
//
// A sub-computation L_t[alpha] is the code thread t executed between two
// pthreads synchronization calls; it subdivides into thunks L_t[alpha].D[beta]
// at branch boundaries. Each node carries its vector clock (position in
// the happens-before partial order) and page-granular read/write sets;
// the graph keeps every node's thunks in one packed column (ThunkColumn).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
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

/// Bytes of one packed thunk: the CPG format's thunk record -- beta
/// (u32), branch ip and target (u64 each), flags (u8: bit 0 taken,
/// bit 1 indirect), little-endian.
inline constexpr std::size_t kThunkRecordBytes = 21;

/// One node's thunks as a view of packed records; each decodes to a
/// Thunk on access. Valid while the column it views is alive and
/// unchanged.
class ThunkSpan {
 public:
  ThunkSpan() = default;
  ThunkSpan(const std::uint8_t* records, std::size_t count) noexcept
      : records_(records), count_(count) {}

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// The i-th thunk (unchecked, like std::span).
  [[nodiscard]] Thunk operator[](std::size_t i) const noexcept;
  /// The packed records, kThunkRecordBytes each.
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {records_, count_ * kThunkRecordBytes};
  }

  /// The same thunks in the same order.
  [[nodiscard]] bool operator==(const ThunkSpan& other) const noexcept;

 private:
  const std::uint8_t* records_ = nullptr;
  std::size_t count_ = 0;
};

/// Every node's thunks in one packed array, in node-id order: node v's
/// records run from ends[v - 1] (0 for v = 0) up to ends[v]. One
/// allocation for a whole graph instead of a vector per node, at 21
/// bytes a thunk rather than sizeof(Thunk). The recorder and the CPG
/// decoder append node by node; Graph owns the result. Empty `ends`
/// means no node has thunks.
struct ThunkColumn {
  std::vector<std::uint32_t> ends;
  std::vector<std::uint8_t> records;

  /// Append one thunk to the node being built.
  void push(const Thunk& thunk);
  /// Close the node being built (with however many thunks it got).
  void end_node();
  /// Thunks of node `v`; empty when the column has no row for it.
  [[nodiscard]] ThunkSpan of(std::size_t v) const noexcept;
};

/// Why a sub-computation ended (which synchronization call).
struct EndReason {
  sync::SyncEventKind kind = sync::SyncEventKind::kThreadExit;
  sync::ObjectId object = 0;
};

/// A vertex of the CPG. Its thunks live in the graph's ThunkColumn
/// (Graph::thunks()).
struct SubComputation {
  NodeId id = kInvalidNode;
  ThreadId thread = 0;
  std::uint64_t alpha = 0;  ///< index in the thread's execution sequence L_t
  vclock::VectorClock clock;

  PageSet read_set;   ///< sorted, duplicate-free page ids
  PageSet write_set;  ///< sorted, duplicate-free page ids

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
