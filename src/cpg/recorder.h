// The provenance recorder: INSPECTOR's Algorithms 1 and 2.
//
// The runtime drives one recorder per execution. Calls arrive in the
// order the paper's library observes them:
//
//   thread_started(t, parent)       -- pthread_create / main entry
//   on_branch(t, rec)               -- every branch the PT trace yields
//   on_release(t, S) / on_acquire(t, S)
//                                   -- the acquire/release halves of each
//                                      pthreads call (§IV-A II)
//   end_subcomputation(t, R, W, why)-- at each synchronization point,
//                                      with the page read/write sets the
//                                      MMU tracking collected
//   thread_exiting(t)
//
// The recorder maintains thread clocks C_t, sync-object clocks C_S and
// sub-computation clocks L_t[alpha].C exactly as Algorithm 2 specifies,
// and finalize() emits the completed Concurrent Provenance Graph.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cpg/graph.h"
#include "cpg/journal.h"
#include "cpg/node.h"
#include "sync/sync_event.h"
#include "vclock/vector_clock.h"

namespace inspector::cpg {

/// Counters for the provenance layer itself.
struct RecorderStats {
  std::uint64_t branches = 0;
  std::uint64_t releases = 0;
  std::uint64_t acquires = 0;
  std::uint64_t subcomputations = 0;
};

class Recorder {
 public:
  Recorder() = default;

  /// Begin thread `tid`. For the main thread pass parent == tid; for
  /// spawned threads the parent's create is the release half and this
  /// performs the matching acquire on the lifecycle object, ordering
  /// everything the parent did before create() before everything the
  /// child does (Algorithm 2 initThread + acquire).
  void thread_started(ThreadId tid, ThreadId parent);

  /// Record a branch into the current thunk sequence of `tid`
  /// (Algorithm 2 onBranchAccess: increments beta).
  void on_branch(ThreadId tid, const BranchRecord& branch);

  /// Release half of a synchronization call: C_S = max(C_S, C_t).
  void on_release(ThreadId tid, sync::ObjectId object);

  /// Acquire half: C_t = max(C_S, C_t); records the release->acquire
  /// sync edge(s) into the node that begins at the next
  /// end_subcomputation boundary.
  void on_acquire(ThreadId tid, sync::ObjectId object);

  /// Close the current sub-computation of `tid` with the given
  /// read/write page sets, recording why it ended; starts the next one
  /// (Algorithm 1: alpha <- alpha + 1, startSub-computation). The sets
  /// are sorted page-id vectors, the exact representation the node
  /// stores -- callers that collected them sorted (memtrack does) pay
  /// no conversion, and the vectors are moved into the node.
  void end_subcomputation(ThreadId tid, PageSet read_set, PageSet write_set,
                          EndReason reason);

  /// Final release on the lifecycle object + close the last
  /// sub-computation.
  void thread_exiting(ThreadId tid, PageSet read_set, PageSet write_set);

  /// Record a schedule event (pthreads-API granularity).
  void record_schedule_event(ThreadId tid, sync::ObjectId object,
                             sync::SyncEventKind kind);

  /// Capture the call journal alongside the graph (the side-band the
  /// real library writes next to perf.data; see cpg/journal.h). Must be
  /// enabled before the first thread starts.
  void enable_journal() { journal_enabled_ = true; }
  [[nodiscard]] const Journal& journal() const noexcept { return journal_; }

  /// Number of nodes recorded so far (live view for the snapshot
  /// facility).
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const RecorderStats& stats() const noexcept { return stats_; }

  /// Current global sequence number (monotone event counter).
  [[nodiscard]] std::uint64_t sequence() const noexcept { return seq_; }

  /// Consume the recorder and produce the graph. All threads must have
  /// exited.
  [[nodiscard]] Graph finalize() &&;

  /// Copy out a consistent prefix of the graph for live analysis: nodes
  /// with end_seq <= cut_seq plus the edges among them (§VI uses this
  /// with a consistent-cut sequence point).
  [[nodiscard]] Graph snapshot_prefix(std::uint64_t cut_seq) const;

 private:
  struct ThreadState {
    std::uint64_t alpha = 0;
    vclock::VectorClock clock;
    // In-flight sub-computation.
    std::vector<Thunk> thunks;
    std::uint32_t beta = 0;
    std::uint64_t start_seq = 0;
    // Sync edges that must point at the node currently being built.
    std::vector<Edge> pending_in_edges;
    std::optional<NodeId> last_node;  ///< most recent completed node
    bool exited = false;
  };

  struct ObjectState {
    vclock::VectorClock clock;  ///< C_S
    // Nodes that released this object in the current release window
    // (cleared when a release follows an acquire); sources of the sync
    // edges for the next acquires. Captures barrier all-to-all.
    std::vector<NodeId> release_window;
    bool last_op_was_acquire = false;
  };

  ThreadState& state(ThreadId tid);
  void log_journal(JournalOp op);

  /// RAII depth guard: public calls nest (thread_exiting calls
  /// end_subcomputation); only the outermost is journaled so offline
  /// replay regenerates the nested ones.
  struct JournalScope {
    explicit JournalScope(Recorder& r) : recorder(r) { ++recorder.journal_depth_; }
    ~JournalScope() { --recorder.journal_depth_; }
    Recorder& recorder;
  };

  std::vector<SubComputation> nodes_;
  ThunkColumn thunks_;  ///< a row per completed node, in id order
  std::vector<Edge> edges_;
  std::vector<sync::SyncEvent> schedule_;
  std::unordered_map<ThreadId, ThreadState> threads_;
  std::unordered_map<sync::ObjectId, ObjectState> objects_;
  RecorderStats stats_;
  std::uint64_t seq_ = 0;
  Journal journal_;
  bool journal_enabled_ = false;
  int journal_depth_ = 0;
};

}  // namespace inspector::cpg
