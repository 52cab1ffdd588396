#include "runtime/executor.h"

#include <algorithm>
#include <functional>
#include <random>
#include <stdexcept>

#include "snapshot/consistent_cut.h"

namespace inspector::runtime {

namespace {

using cpg::ThreadId;
using sync::ObjectId;
using sync::SyncEventKind;

/// An acquire the thread must perform when it resumes (the acquire half
/// of the blocking call that put it to sleep).
struct PendingAcquire {
  ObjectId object = 0;
  SyncEventKind kind = SyncEventKind::kMutexLock;
};

struct Thread {
  ThreadId tid = 0;
  ThreadId parent = 0;
  std::size_t script = 0;
  std::size_t pc = 0;
  std::uint64_t clock = 0;  ///< local simulated time (ns)
  std::uint64_t busy = 0;   ///< time spent executing (work metric)

  enum class Status : std::uint8_t { kRunnable, kBlocked, kFinished };
  Status status = Status::kRunnable;

  bool started = false;
  std::unique_ptr<memtrack::ThreadMemory> mem;  // INSPECTOR mode
  std::vector<ThreadId> children;               // spawn order
  std::vector<PendingAcquire> pending;          // applied on resume
  ObjectId cond_mutex = 0;                      // mutex to retake after cond
  std::uint64_t last_pt_bytes = 0;              // encoder byte watermark
};

/// Ops per scheduling slice before re-evaluating which thread runs.
constexpr std::uint32_t kQuantumOps = 64;

class Engine {
 public:
  Engine(const Program& program, Mode mode, const CaptureOptions& options)
      : prog_(program),
        mode_(mode),
        opts_(options),
        image_(std::make_shared<BuiltImage>(build_image(program))),
        shared_(std::make_shared<memtrack::SharedMemory>()),
        rng_(options.schedule_seed) {
    if (inspector()) {
      if (opts_.capture_journal) recorder_.enable_journal();
      perf_ = std::make_shared<perf::PerfSession>(
          "inspector",
          perf::SessionOptions{opts_.aux_buffer_bytes, opts_.aux_mode});
      if (opts_.snapshot_every_syncs != 0) {
        ring_ = std::make_shared<snapshot::SnapshotRing>(
            opts_.snapshot_ring_slots);
      }
    }
  }

  ExecutionResult run();

 private:
  [[nodiscard]] bool inspector() const noexcept {
    return mode_ == Mode::kInspector;
  }
  [[nodiscard]] bool track_memory() const noexcept {
    return inspector() && opts_.enable_memtrack;
  }
  [[nodiscard]] bool trace_pt() const noexcept {
    return inspector() && opts_.enable_pt;
  }

  Thread& thread(ThreadId tid) { return *threads_.at(tid); }

  /// Advance a thread's clock by busy time.
  void charge(Thread& t, std::uint64_t ns) {
    t.clock += ns;
    t.busy += ns;
  }
  void charge_threading_lib(Thread& t, std::uint64_t ns) {
    charge(t, ns);
    stats_.breakdown.threading_lib_ns += ns;
  }
  void charge_pt(Thread& t, std::uint64_t ns) {
    charge(t, ns);
    stats_.breakdown.pt_ns += ns;
  }

  void make_runnable(Thread& t, std::uint64_t at) {
    t.clock = std::max(t.clock, at);
    t.status = Thread::Status::kRunnable;
    ready_.push({t.clock, t.tid});
  }

  ThreadId spawn(std::size_t script, Thread* parent);
  void start_thread(Thread& t);
  void finish_thread(Thread& t);
  void process_pending(Thread& t);

  /// Record a branch into the provenance layer and PT stream.
  void emit_branch(Thread& t, const cpg::BranchRecord& rec);

  /// Close the current sub-computation at a sync boundary.
  void end_subcomputation(Thread& t, SyncEventKind kind, ObjectId object);

  void record_event(Thread& t, ObjectId object, SyncEventKind kind);
  void note_release(Thread& t, ObjectId object) {
    if (inspector()) recorder_.on_release(t.tid, object);
  }
  void note_acquire(Thread& t, ObjectId object) {
    if (inspector()) recorder_.on_acquire(t.tid, object);
  }

  /// Execute ops until the quantum expires or the thread blocks or
  /// finishes. Returns false when the thread should leave the ready set.
  bool run_quantum(Thread& t);

  /// Execute one op; returns false when the thread blocked or finished.
  bool step(Thread& t);

  void maybe_snapshot();

  const Program& prog_;
  Mode mode_;
  CaptureOptions opts_;
  std::shared_ptr<BuiltImage> image_;
  std::shared_ptr<memtrack::SharedMemory> shared_;
  sync::SyncManager sm_;
  cpg::Recorder recorder_;
  std::shared_ptr<perf::PerfSession> perf_;
  std::shared_ptr<snapshot::SnapshotRing> ring_;

  std::vector<std::unique_ptr<Thread>> threads_;
  std::unordered_map<ThreadId, std::vector<ThreadId>> joiners_;

  // Min-heap of (clock, tid): run the least-advanced thread first.
  using HeapItem = std::pair<std::uint64_t, ThreadId>;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> ready_;

  ExecutionStats stats_;
  std::mt19937_64 rng_;
  std::uint64_t sync_events_ = 0;
  std::uint64_t quanta_ = 0;
};

ThreadId Engine::spawn(std::size_t script, Thread* parent) {
  auto t = std::make_unique<Thread>();
  t->tid = static_cast<ThreadId>(threads_.size());
  t->script = script;
  t->parent = parent != nullptr ? parent->tid : t->tid;
  t->clock = parent != nullptr ? parent->clock : 0;
  const ThreadId tid = t->tid;
  threads_.push_back(std::move(t));
  if (parent != nullptr) {
    parent->children.push_back(tid);
    ++stats_.threads_spawned;
    if (trace_pt()) perf_->on_fork(parent->tid, tid, parent->clock);
  }
  make_runnable(thread(tid), thread(tid).clock);
  return tid;
}

void Engine::start_thread(Thread& t) {
  t.started = true;
  if (inspector()) {
    if (t.parent != t.tid) {
      // The child half of clone(): address-space setup before user code
      // runs. Overlaps with other threads' execution.
      charge_threading_lib(t, opts_.costs.process_child_startup_ns);
    }
    recorder_.thread_started(t.tid, t.parent);
    if (track_memory()) {
      t.mem = std::make_unique<memtrack::ThreadMemory>(*shared_);
    }
    if (trace_pt()) {
      if (auto* enc = perf_->encoder_for(t.tid)) {
        // Stamp the enable-time PSB+ with the thread's start time (the
        // TSC is never zero on real hardware).
        enc->set_timestamp(std::max<std::uint64_t>(1, t.clock));
        enc->on_enable(image_->entries[t.script]);
      }
    }
  }
}

void Engine::record_event(Thread& t, ObjectId object, SyncEventKind kind) {
  if (inspector()) {
    recorder_.record_schedule_event(t.tid, object, kind);
  }
  ++sync_events_;
  maybe_snapshot();
}

void Engine::maybe_snapshot() {
  if (ring_ == nullptr || opts_.snapshot_every_syncs == 0) return;
  if (sync_events_ % opts_.snapshot_every_syncs != 0) return;
  const auto cut = snapshot::latest_cut(recorder_);
  if (ring_->store(recorder_.snapshot_prefix(cut.seq))) {
    ++stats_.snapshots_taken;
  }
}

void Engine::emit_branch(Thread& t, const cpg::BranchRecord& rec) {
  ++stats_.branches;
  ++stats_.instructions;
  charge(t, opts_.costs.branch_ns);
  if (!inspector()) return;
  if (trace_pt()) {
    if (auto* enc = perf_->encoder_for(t.tid)) {
      enc->set_timestamp(t.clock);
      if (rec.indirect) {
        enc->on_indirect(rec.target);
      } else {
        enc->on_conditional(rec.taken);
      }
      // If the AUX ring dropped the write (perf not draining fast
      // enough), perf eventually catches up (drain), and the stream
      // carries an OVF packet marking the gap, re-syncing at the next
      // IP (§V-B).
      if (perf_->take_stream_overflow(t.tid)) {
        perf_->drain(t.clock);
        enc->on_overflow(rec.target);
      }
      // Charge the perf/PT path: per-branch cost plus the bytes the
      // encoder just produced.
      const std::uint64_t bytes = enc->stats().bytes;
      const std::uint64_t delta = bytes - t.last_pt_bytes;
      t.last_pt_bytes = bytes;
      charge_pt(t, opts_.costs.pt_branch_ns +
                       static_cast<std::uint64_t>(
                           static_cast<double>(delta) * opts_.costs.pt_byte_ns));
    }
    // Control-flow provenance comes from the decoded PT stream.
    recorder_.on_branch(t.tid, rec);
  }
}

void Engine::end_subcomputation(Thread& t, SyncEventKind kind,
                                ObjectId object) {
  if (!inspector()) return;
  // Move the sorted sets straight out of the MMU tracking and into the
  // recorder; begin_subcomputation() below would clear them anyway.
  PageSet reads = t.mem != nullptr ? t.mem->take_read_set() : PageSet{};
  PageSet writes = t.mem != nullptr ? t.mem->take_write_set() : PageSet{};
  recorder_.end_subcomputation(t.tid, std::move(reads), std::move(writes),
                               cpg::EndReason{kind, object});
  if (t.mem != nullptr) {
    const memtrack::CommitResult commit = t.mem->commit();
    ++stats_.commits;
    charge_threading_lib(
        t, opts_.costs.commit_base_ns +
               commit.dirty_pages * opts_.costs.commit_page_ns);
    t.mem->begin_subcomputation();
  }
  charge_threading_lib(t, opts_.costs.sync_extra_ns);
}

void Engine::process_pending(Thread& t) {
  for (const PendingAcquire& p : t.pending) {
    note_acquire(t, p.object);
    record_event(t, p.object, p.kind);
  }
  t.pending.clear();
}

void Engine::finish_thread(Thread& t) {
  if (inspector()) {
    PageSet reads = t.mem != nullptr ? t.mem->take_read_set() : PageSet{};
    PageSet writes =
        t.mem != nullptr ? t.mem->take_write_set() : PageSet{};
    if (t.mem != nullptr) {
      const memtrack::CommitResult commit = t.mem->commit();
      ++stats_.commits;
      charge_threading_lib(
          t, opts_.costs.commit_base_ns +
                 commit.dirty_pages * opts_.costs.commit_page_ns);
    }
    recorder_.thread_exiting(t.tid, std::move(reads), std::move(writes));
    if (trace_pt()) {
      if (auto* enc = perf_->encoder_for(t.tid)) enc->on_disable();
      perf_->on_exit(t.tid, t.clock);
    }
  }
  t.status = Thread::Status::kFinished;
  // Wake joiners: they acquire the lifecycle object released at exit.
  auto it = joiners_.find(t.tid);
  if (it != joiners_.end()) {
    for (ThreadId j : it->second) {
      Thread& joiner = thread(j);
      joiner.pending.push_back(
          {sync::thread_lifecycle_object(t.tid), SyncEventKind::kThreadJoin});
      make_runnable(joiner, t.clock);
    }
    joiners_.erase(it);
  }
}

bool Engine::step(Thread& t) {
  const ThreadScript& script = prog_.scripts[t.script];
  if (t.pc >= script.ops.size()) {
    finish_thread(t);
    return false;
  }
  const Op& op = script.ops[t.pc];
  const OpSite& site = image_->sites[t.script][t.pc];
  const CostModel& c = opts_.costs;

  switch (op.code) {
    case OpCode::kLoad:
    case OpCode::kStore: {
      ++stats_.instructions;
      charge(t, c.memory_op_ns);
      if (op.code == OpCode::kLoad) {
        ++stats_.loads;
      } else {
        ++stats_.stores;
      }
      if (t.mem != nullptr) {
        const std::uint64_t faults_before = t.mem->stats().page_faults();
        if (op.code == OpCode::kLoad) {
          (void)t.mem->read_word(op.a);
        } else {
          t.mem->write_word(op.a, op.b);
        }
        const std::uint64_t new_faults =
            t.mem->stats().page_faults() - faults_before;
        if (new_faults != 0) {
          charge_threading_lib(t, new_faults * c.page_fault_ns);
        }
      } else {
        if (op.code == OpCode::kLoad) {
          (void)shared_->read_word(op.a);
        } else {
          shared_->write_word(op.a, op.b);
          // Native threads share cache lines; INSPECTOR's process-private
          // pages avoid the false-sharing penalty (§VII-A / Sheriff).
          charge(t, prog_.native_store_penalty_ns);
        }
      }
      ++t.pc;
      return true;
    }

    case OpCode::kCompute:
      stats_.instructions += op.a;
      charge(t, op.a * c.compute_unit_ns);
      ++t.pc;
      return true;

    case OpCode::kCondBranch: {
      const std::uint64_t dest = op.flag ? site.taken_target : site.fall_target;
      emit_branch(t, {site.branch_ip, dest, op.flag, false});
      ++t.pc;
      return true;
    }

    case OpCode::kIndirectBranch:
      emit_branch(t, {site.branch_ip, site.taken_target, true, true});
      ++t.pc;
      return true;

    case OpCode::kMmapInput: {
      ++stats_.instructions;
      charge(t, c.sync_base_ns);
      if (trace_pt()) {
        perf_->on_mmap(t.tid, op.a, op.b, prog_.name + ".input", t.clock);
      }
      ++t.pc;
      return true;
    }

    default:
      break;  // sync ops handled below
  }

  // --- synchronization ops: sub-computation boundary -------------------
  ++stats_.sync_ops;
  ++stats_.instructions;
  charge(t, c.sync_base_ns);
  // The call into the threading library ends the closing
  // sub-computation's last thunk: a real indirect transfer (TIP) for
  // spawn/join, a RET-compressed return (one taken TNT bit) otherwise.
  const bool real_indirect =
      op.code == OpCode::kSpawn || op.code == OpCode::kJoin;
  emit_branch(t, {site.branch_ip, site.taken_target, true, real_indirect});
  ++t.pc;  // the op completes (or resumes) past this point

  switch (op.code) {
    case OpCode::kMutexLock: {
      end_subcomputation(t, SyncEventKind::kMutexLock, op.a);
      const auto res = sm_.mutex_lock(t.tid, op.a);
      if (res.acquired) {
        note_acquire(t, op.a);
        record_event(t, op.a, SyncEventKind::kMutexLock);
        return true;
      }
      t.status = Thread::Status::kBlocked;
      return false;
    }

    case OpCode::kMutexUnlock: {
      end_subcomputation(t, SyncEventKind::kMutexUnlock, op.a);
      note_release(t, op.a);
      record_event(t, op.a, SyncEventKind::kMutexUnlock);
      const auto wake = sm_.mutex_unlock(t.tid, op.a);
      for (ThreadId w : wake.woken) {
        Thread& waiter = thread(w);
        waiter.pending.push_back({op.a, SyncEventKind::kMutexLock});
        make_runnable(waiter, t.clock);
      }
      return true;
    }

    case OpCode::kSemWait: {
      end_subcomputation(t, SyncEventKind::kSemWait, op.a);
      const auto res = sm_.sem_wait(t.tid, op.a);
      if (res.acquired) {
        note_acquire(t, op.a);
        record_event(t, op.a, SyncEventKind::kSemWait);
        return true;
      }
      t.status = Thread::Status::kBlocked;
      return false;
    }

    case OpCode::kSemPost: {
      end_subcomputation(t, SyncEventKind::kSemPost, op.a);
      note_release(t, op.a);
      record_event(t, op.a, SyncEventKind::kSemPost);
      const auto wake = sm_.sem_post(t.tid, op.a);
      for (ThreadId w : wake.woken) {
        Thread& waiter = thread(w);
        waiter.pending.push_back({op.a, SyncEventKind::kSemWait});
        make_runnable(waiter, t.clock);
      }
      return true;
    }

    case OpCode::kBarrierWait: {
      end_subcomputation(t, SyncEventKind::kBarrierWait, op.a);
      // Barrier = release by every arriving thread, acquire by every
      // leaving thread: all-to-all ordering (§IV-B).
      note_release(t, op.a);
      const auto res = sm_.barrier_wait(t.tid, op.a);
      if (!res.released) {
        t.status = Thread::Status::kBlocked;
        return false;
      }
      note_acquire(t, op.a);
      record_event(t, op.a, SyncEventKind::kBarrierWait);
      for (ThreadId w : res.participants) {
        if (w == t.tid) continue;
        Thread& waiter = thread(w);
        waiter.pending.push_back({op.a, SyncEventKind::kBarrierWait});
        make_runnable(waiter, t.clock);
      }
      return true;
    }

    case OpCode::kCondWait: {
      end_subcomputation(t, SyncEventKind::kCondWait, op.a);
      // Atomically release the mutex and block on the condvar.
      note_release(t, op.b);
      record_event(t, op.b, SyncEventKind::kMutexUnlock);
      const auto wake = sm_.cond_wait(t.tid, op.a, op.b);
      for (ThreadId w : wake.woken) {
        Thread& waiter = thread(w);
        waiter.pending.push_back({op.b, SyncEventKind::kMutexLock});
        make_runnable(waiter, t.clock);
      }
      t.cond_mutex = op.b;
      t.status = Thread::Status::kBlocked;
      return false;
    }

    case OpCode::kCondSignal:
    case OpCode::kCondBroadcast: {
      const auto kind = op.code == OpCode::kCondSignal
                            ? SyncEventKind::kCondSignal
                            : SyncEventKind::kCondBroadcast;
      end_subcomputation(t, kind, op.a);
      note_release(t, op.a);
      record_event(t, op.a, kind);
      const auto wake = op.code == OpCode::kCondSignal
                            ? sm_.cond_signal(op.a)
                            : sm_.cond_broadcast(op.a);
      for (ThreadId w : wake.woken) {
        Thread& waiter = thread(w);
        waiter.pending.push_back({op.a, SyncEventKind::kCondWait});
        // The waiter must retake its mutex before running.
        const auto lock = sm_.mutex_lock(w, waiter.cond_mutex);
        if (lock.acquired) {
          waiter.pending.push_back(
              {waiter.cond_mutex, SyncEventKind::kMutexLock});
          make_runnable(waiter, t.clock);
        }
        // else: the waiter sits in the mutex queue; the eventual unlock
        // wakes it with the pending mutex acquire.
      }
      return true;
    }

    case OpCode::kSpawn: {
      if (op.a >= prog_.scripts.size()) {
        throw std::logic_error("spawn references unknown script");
      }
      end_subcomputation(t, SyncEventKind::kThreadCreate, 0);
      charge(t, c.thread_create_ns);
      if (inspector()) {
        // clone() of a whole process instead of a thread (§V-A).
        charge_threading_lib(t, c.process_create_extra_ns);
      }
      const ThreadId child = spawn(op.a, &t);
      note_release(t, sync::thread_lifecycle_object(child));
      record_event(t, sync::thread_lifecycle_object(child),
                   SyncEventKind::kThreadCreate);
      return true;
    }

    case OpCode::kJoin: {
      if (op.a >= t.children.size()) {
        throw std::logic_error("join ordinal out of range");
      }
      const ThreadId child = t.children[op.a];
      end_subcomputation(t, SyncEventKind::kThreadJoin,
                         sync::thread_lifecycle_object(child));
      if (thread(child).status == Thread::Status::kFinished) {
        note_acquire(t, sync::thread_lifecycle_object(child));
        record_event(t, sync::thread_lifecycle_object(child),
                     SyncEventKind::kThreadJoin);
        t.clock = std::max(t.clock, thread(child).clock);
        return true;
      }
      joiners_[child].push_back(t.tid);
      t.status = Thread::Status::kBlocked;
      return false;
    }

    default:
      throw std::logic_error("unhandled opcode");
  }
}

bool Engine::run_quantum(Thread& t) {
  if (!t.started) start_thread(t);
  process_pending(t);
  if (opts_.schedule_seed != 0 && opts_.schedule_jitter_ns != 0) {
    // Seeded jitter perturbs interleavings across seeds (§II's OS
    // scheduling non-determinism).
    t.clock += rng_() % opts_.schedule_jitter_ns;
  }
  for (std::uint32_t i = 0; i < kQuantumOps; ++i) {
    if (!step(t)) return false;
    // Discrete-event fairness: once this thread's clock passes the next
    // runnable thread's, yield so simulated time advances in order
    // (otherwise a long quantum would let one thread race arbitrarily
    // far ahead and serialize contended sections unrealistically).
    if (!ready_.empty() && t.clock > ready_.top().first) return true;
  }
  return true;
}

ExecutionResult Engine::run() {
  // Initialize shared memory with the program input (the mmap'ed file).
  for (const InputWord& w : prog_.input) {
    shared_->write_word(w.addr, w.value);
  }
  for (const auto& s : prog_.semaphores) sm_.sem_init(s.object, s.value);
  for (const auto& b : prog_.barriers) sm_.barrier_init(b.object, b.parties);

  if (trace_pt()) perf_->attach_root(0, 0);
  spawn(prog_.main_script, nullptr);

  while (!ready_.empty()) {
    const auto [when, tid] = ready_.top();
    ready_.pop();
    Thread& t = thread(tid);
    if (t.status != Thread::Status::kRunnable || when != t.clock) {
      // Stale heap entry (thread re-queued with a newer clock).
      if (t.status == Thread::Status::kRunnable && when < t.clock) {
        ready_.push({t.clock, t.tid});
      }
      continue;
    }
    if (run_quantum(t)) {
      ready_.push({t.clock, t.tid});
    }
    if (trace_pt() && ++quanta_ % opts_.aux_drain_interval_quanta == 0) {
      perf_->drain(t.clock);
    }
  }

  for (const auto& t : threads_) {
    if (t->status != Thread::Status::kFinished) {
      throw std::runtime_error("deadlock: thread " + std::to_string(t->tid) +
                               " never finished in " + prog_.name);
    }
  }

  // Aggregate statistics.
  ExecutionResult result;
  result.workload = prog_.name;
  result.mode = mode_;
  for (const auto& t : threads_) {
    stats_.sim_time_ns = std::max(stats_.sim_time_ns, t->clock);
    stats_.work_ns += t->busy;
    if (t->mem != nullptr) {
      stats_.read_faults += t->mem->stats().read_faults;
      stats_.write_faults += t->mem->stats().write_faults;
      stats_.pages_committed += t->mem->stats().pages_committed;
      stats_.bytes_committed += t->mem->stats().bytes_changed;
    }
  }
  stats_.page_faults = stats_.read_faults + stats_.write_faults;
  if (trace_pt()) {
    perf_->drain(stats_.sim_time_ns);
    for (perf::Pid pid : perf_->traced_pids()) {
      if (auto* enc = perf_->encoder_for(pid)) {
        enc->flush();
        stats_.pt_bytes += enc->stats().bytes;
        stats_.pt_tnt_bits += enc->stats().tnt_bits;
        stats_.pt_tip_packets += enc->stats().tip_packets;
        stats_.pt_overflows += enc->stats().overflows;
      }
    }
    perf_->drain(stats_.sim_time_ns);
  }
  result.stats = stats_;
  if (inspector()) {
    if (opts_.capture_journal) {
      result.journal = std::make_shared<cpg::Journal>(recorder_.journal());
    }
    result.graph = std::move(recorder_).finalize();
  }
  result.memory = shared_;
  result.perf_session = perf_;
  result.image = image_;
  result.snapshots = ring_;
  return result;
}

}  // namespace

ExecutionResult execute(const Program& program, Mode mode,
                        const CaptureOptions& options) {
  Engine engine(program, mode, options);
  return engine.run();
}

}  // namespace inspector::runtime
