#include "cpg/recorder.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace inspector::cpg {

void Recorder::log_journal(JournalOp op) {
  // Only outermost public calls are journaled (depth 1): nested calls
  // (thread_exiting -> end_subcomputation etc.) are regenerated when
  // the journal is replayed offline.
  if (journal_enabled_ && journal_depth_ == 1) {
    journal_.ops.push_back(std::move(op));
  }
}

Recorder::ThreadState& Recorder::state(ThreadId tid) {
  auto it = threads_.find(tid);
  if (it == threads_.end()) {
    throw std::logic_error("thread " + std::to_string(tid) +
                           " used before thread_started()");
  }
  return it->second;
}

void Recorder::thread_started(ThreadId tid, ThreadId parent) {
  JournalScope scope(*this);
  log_journal({JournalOp::Kind::kThreadStart, tid, parent,
               sync::SyncEventKind::kThreadStart, {}, {}, 0});
  if (threads_.contains(tid)) {
    throw std::logic_error("thread " + std::to_string(tid) +
                           " started twice");
  }
  ThreadState ts;
  ts.alpha = 0;
  ts.start_seq = ++seq_;
  // initThread(t): C_t = 0 everywhere, then C_t[t] = alpha at the start
  // of the first sub-computation.
  ts.clock.set(tid, 0);
  threads_.emplace(tid, std::move(ts));
  record_schedule_event(tid, sync::thread_lifecycle_object(tid),
                        sync::SyncEventKind::kThreadStart);
  if (parent != tid) {
    // The matching acquire of the parent's create-release: the child's
    // first sub-computation happens-after everything the parent did
    // before pthread_create.
    on_acquire(tid, sync::thread_lifecycle_object(tid));
  }
}

void Recorder::on_branch(ThreadId tid, const BranchRecord& branch) {
  ThreadState& ts = state(tid);
  // onBranchAccess: beta <- beta + 1; a new thunk begins at the branch.
  ts.thunks.push_back(Thunk{ts.beta, branch});
  ++ts.beta;
  ++stats_.branches;
}

void Recorder::on_release(ThreadId tid, sync::ObjectId object) {
  JournalScope scope(*this);
  log_journal({JournalOp::Kind::kRelease, tid, object,
               sync::SyncEventKind::kMutexUnlock, {}, {}, 0});
  ThreadState& ts = state(tid);
  ObjectState& os = objects_[object];
  // C_S = max(C_S, C_t)
  os.clock.merge(ts.clock);
  if (os.last_op_was_acquire) {
    os.release_window.clear();
    os.last_op_was_acquire = false;
  }
  if (ts.last_node.has_value()) {
    os.release_window.push_back(*ts.last_node);
  }
  ++stats_.releases;
  ++seq_;
}

void Recorder::on_acquire(ThreadId tid, sync::ObjectId object) {
  JournalScope scope(*this);
  log_journal({JournalOp::Kind::kAcquire, tid, object,
               sync::SyncEventKind::kMutexLock, {}, {}, 0});
  ThreadState& ts = state(tid);
  ObjectState& os = objects_[object];
  // C_t = max(C_S, C_t)
  ts.clock.merge(os.clock);
  os.last_op_was_acquire = true;
  // Sync edges from every release in the current window into the node
  // the acquiring thread is about to run (its next completed node).
  for (NodeId from : os.release_window) {
    if (nodes_[from].thread == tid) continue;  // intra-thread: control edge
    ts.pending_in_edges.push_back(
        Edge{from, kInvalidNode, EdgeKind::kSync, object});
  }
  ++stats_.acquires;
  ++seq_;
}

void Recorder::end_subcomputation(ThreadId tid, PageSet read_set,
                                  PageSet write_set, EndReason reason) {
  ThreadState& ts = state(tid);
  page_set_normalize(read_set);
  page_set_normalize(write_set);
  {
    JournalScope scope(*this);
    log_journal({JournalOp::Kind::kEndSub, tid, reason.object, reason.kind,
                 read_set, write_set,
                 static_cast<std::uint32_t>(ts.thunks.size())});
  }

  SubComputation node;
  node.id = static_cast<NodeId>(nodes_.size());
  node.thread = tid;
  node.alpha = ts.alpha;
  // startSub-computation() sets C_t[t] from alpha when this
  // sub-computation began; the clock may have merged acquires since,
  // which is exactly what L_t[alpha].C must reflect -- the clock value
  // of the thread while executing the sub-computation. We store
  // alpha + 1 so that "no knowledge of thread t" (component 0) is
  // strictly below "saw t's first sub-computation": Algorithm 2's
  // zero-based counter would make a child's first node compare *equal*
  // to its parent's spawn node instead of strictly after it.
  ts.clock.set(tid, ts.alpha + 1);
  node.clock = ts.clock;
  node.read_set = std::move(read_set);
  node.write_set = std::move(write_set);
  for (const Thunk& t : ts.thunks) thunks_.push(t);
  thunks_.end_node();
  node.end = reason;
  node.start_seq = ts.start_seq;
  node.end_seq = ++seq_;

  // Control edge from the previous sub-computation of this thread.
  if (ts.last_node.has_value()) {
    edges_.push_back(Edge{*ts.last_node, node.id, EdgeKind::kControl, 0});
  }
  // Sync edges whose acquire happened while this node was being built.
  for (Edge e : ts.pending_in_edges) {
    e.to = node.id;
    edges_.push_back(e);
  }
  ts.pending_in_edges.clear();

  ts.last_node = node.id;
  nodes_.push_back(std::move(node));
  ++stats_.subcomputations;

  // Algorithm 1: alpha <- alpha + 1; the next sub-computation starts.
  ++ts.alpha;
  ts.thunks.clear();
  ts.beta = 0;
  ts.start_seq = seq_;
}

void Recorder::thread_exiting(ThreadId tid, PageSet read_set,
                              PageSet write_set) {
  JournalScope scope(*this);
  page_set_normalize(read_set);
  page_set_normalize(write_set);
  log_journal({JournalOp::Kind::kThreadExit, tid, 0,
               sync::SyncEventKind::kThreadExit, read_set, write_set,
               static_cast<std::uint32_t>(state(tid).thunks.size())});
  end_subcomputation(tid, std::move(read_set), std::move(write_set),
                     EndReason{sync::SyncEventKind::kThreadExit,
                               sync::thread_lifecycle_object(tid)});
  // Release on the lifecycle object so a joining thread acquires
  // everything this thread did.
  on_release(tid, sync::thread_lifecycle_object(tid));
  record_schedule_event(tid, sync::thread_lifecycle_object(tid),
                        sync::SyncEventKind::kThreadExit);
  state(tid).exited = true;
}

void Recorder::record_schedule_event(ThreadId tid, sync::ObjectId object,
                                     sync::SyncEventKind kind) {
  JournalScope scope(*this);
  log_journal({JournalOp::Kind::kEvent, tid, object, kind, {}, {}, 0});
  schedule_.push_back(sync::SyncEvent{++seq_, tid, object, kind});
}

Graph Recorder::finalize() && {
  for (const auto& [tid, ts] : threads_) {
    if (!ts.exited) {
      throw std::logic_error("finalize() with live thread " +
                             std::to_string(tid));
    }
  }
  return Graph(std::move(nodes_), std::move(edges_), std::move(schedule_),
               std::move(thunks_));
}

Graph Recorder::snapshot_prefix(std::uint64_t cut_seq) const {
  // Nodes fully recorded at or before the cut.
  std::vector<SubComputation> nodes;
  ThunkColumn thunks;
  std::vector<NodeId> remap(nodes_.size(), kInvalidNode);
  for (const auto& n : nodes_) {
    if (n.end_seq <= cut_seq) {
      remap[n.id] = static_cast<NodeId>(nodes.size());
      SubComputation copy = n;
      copy.id = remap[n.id];
      nodes.push_back(std::move(copy));
      const auto records = thunks_.of(n.id).bytes();
      thunks.records.insert(thunks.records.end(), records.begin(),
                            records.end());
      thunks.end_node();
    }
  }
  std::vector<Edge> edges;
  for (const auto& e : edges_) {
    if (remap[e.from] != kInvalidNode && remap[e.to] != kInvalidNode) {
      edges.push_back(Edge{remap[e.from], remap[e.to], e.kind, e.object});
    }
  }
  std::vector<sync::SyncEvent> schedule;
  for (const auto& s : schedule_) {
    if (s.seq <= cut_seq) schedule.push_back(s);
  }
  return Graph(std::move(nodes), std::move(edges), std::move(schedule),
               std::move(thunks));
}

}  // namespace inspector::cpg
