#include "cpg/offline.h"

#include <stdexcept>
#include <string>
#include <unordered_map>

#include "cpg/recorder.h"

namespace inspector::cpg {

Result<Graph> rebuild_from_journal(
    const Journal& journal,
    const std::map<ThreadId, std::vector<BranchRecord>>& branches) {
  Recorder recorder;
  std::unordered_map<ThreadId, std::size_t> cursor;  // into branches[tid]

  // A thread with no stream has an empty one: a run traced without PT
  // journals 0 branches per sub-computation and rebuilds from that.
  const std::vector<BranchRecord> no_stream;
  auto feed_branches = [&](ThreadId tid, std::uint32_t count) {
    const auto it = branches.find(tid);
    const auto& stream = it == branches.end() ? no_stream : it->second;
    std::size_t& pos = cursor[tid];
    if (pos + count > stream.size()) {
      throw std::length_error(
          "PT stream of thread " + std::to_string(tid) +
          " is shorter than the journal requires (gap or wrong trace)");
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      recorder.on_branch(tid, stream[pos++]);
    }
  };

  // feed_branches and the recorder's misuse checks (a thread used
  // before thread_started(), started twice, alive at finalize) throw
  // std::logic_error; it comes back typed, naming the op.
  std::size_t index = 0;
  try {
    for (; index < journal.ops.size(); ++index) {
      const JournalOp& op = journal.ops[index];
      switch (op.kind) {
        case JournalOp::Kind::kThreadStart:
          recorder.thread_started(op.tid, static_cast<ThreadId>(op.aux));
          break;
        case JournalOp::Kind::kEndSub:
          // The journal already stores the sorted page-set vectors the
          // recorder consumes; no conversion needed.
          feed_branches(op.tid, op.branch_count);
          recorder.end_subcomputation(op.tid, op.read_set, op.write_set,
                                      EndReason{op.event, op.aux});
          break;
        case JournalOp::Kind::kRelease:
          recorder.on_release(op.tid, op.aux);
          break;
        case JournalOp::Kind::kAcquire:
          recorder.on_acquire(op.tid, op.aux);
          break;
        case JournalOp::Kind::kEvent:
          recorder.record_schedule_event(op.tid, op.aux, op.event);
          break;
        case JournalOp::Kind::kThreadExit:
          feed_branches(op.tid, op.branch_count);
          recorder.thread_exiting(op.tid, op.read_set, op.write_set);
          break;
      }
    }
    return std::move(recorder).finalize();
  } catch (const std::logic_error& e) {
    const std::string where = index < journal.ops.size()
                                  ? "journal op " + std::to_string(index)
                                  : std::string("journal end");
    return Status(StatusCode::kInvalidArgument, where + ": " + e.what());
  }
}

}  // namespace inspector::cpg
