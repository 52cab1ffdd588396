// The execution engine: runs a Program under either native-pthreads
// semantics or the INSPECTOR library (threads-as-processes + MMU
// tracking + Intel PT), using a deterministic discrete-event scheduler.
//
// Scheduling model: every thread carries a local simulated-nanosecond
// clock; the scheduler always runs the runnable thread with the
// smallest clock (FIFO wait queues, ties by thread id), which yields a
// parallel execution whose end-to-end time is the max thread clock and
// whose *work* is the sum of busy time -- the two metrics §VII reports.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "cpg/graph.h"
#include "cpg/recorder.h"
#include "memtrack/shared_memory.h"
#include "memtrack/thread_memory.h"
#include "perf/session.h"
#include "runtime/cost_model.h"
#include "runtime/image_builder.h"
#include "runtime/program.h"
#include "snapshot/ring.h"
#include "sync/sync_manager.h"

namespace inspector::runtime {

enum class Mode : std::uint8_t { kNative, kInspector };

/// The capture settings of one run: what INSPECTOR traces and how the
/// simulated machine schedules it. core::Options names this struct.
struct CaptureOptions {
  /// Trace control flow via the simulated Intel PT PMU (§V-B).
  bool enable_pt = true;
  /// Track data/schedule dependencies via MMU page protection (§V-A).
  bool enable_memtrack = true;
  /// Take a consistent CPG snapshot every N sync events (0 = off, §VI).
  std::uint32_t snapshot_every_syncs = 0;
  std::uint32_t snapshot_ring_slots = 4;
  /// Capture the threading-library journal so the CPG can be rebuilt
  /// offline from journal + perf.data (core::rebuild_offline).
  bool capture_journal = false;
  /// Scheduling seed. Non-zero adds seeded per-slice timing jitter,
  /// perturbing lock acquisition order across seeds -- the OS
  /// scheduling non-determinism of §II.
  std::uint64_t schedule_seed = 0;
  /// Maximum jitter per scheduling slice when schedule_seed != 0.
  /// Real preemption/IRQ noise is on the order of microseconds.
  std::uint64_t schedule_jitter_ns = 2'000;
  /// Cost model for simulated time (defaults approximate the paper's
  /// Xeon D-1540 testbed).
  CostModel costs;
  /// AUX ring capacity per traced process.
  std::size_t aux_buffer_bytes = 8 * 1024 * 1024;
  /// AUX mode: full trace (gaps under overflow) or snapshot
  /// (continuous overwrite).
  ptsim::RingMode aux_mode = ptsim::RingMode::kFullTrace;
  /// The perf tool drains the AUX rings every N scheduling quanta; an
  /// undersized ring overflows between drains, producing trace gaps.
  std::uint32_t aux_drain_interval_quanta = 16;
};

struct ExecutionStats {
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t sync_ops = 0;
  std::uint64_t threads_spawned = 1;  // main
  std::uint64_t sim_time_ns = 0;      ///< end-to-end (max thread clock)
  std::uint64_t work_ns = 0;          ///< sum of busy time (cgroup cpuacct)

  // INSPECTOR counters.
  std::uint64_t page_faults = 0;
  std::uint64_t read_faults = 0;
  std::uint64_t write_faults = 0;
  std::uint64_t commits = 0;
  std::uint64_t pages_committed = 0;
  std::uint64_t bytes_committed = 0;
  std::uint64_t pt_bytes = 0;
  std::uint64_t pt_tnt_bits = 0;
  std::uint64_t pt_tip_packets = 0;
  std::uint64_t pt_overflows = 0;
  std::uint64_t snapshots_taken = 0;
  OverheadBreakdown breakdown;
};

struct ExecutionResult {
  std::string workload;
  Mode mode = Mode::kNative;
  ExecutionStats stats;
  /// The CPG (INSPECTOR mode only).
  std::optional<cpg::Graph> graph;
  /// Final shared-memory state (output verification: both modes must
  /// agree for race-free programs).
  std::shared_ptr<memtrack::SharedMemory> memory;
  /// perf session with per-process PT traces (INSPECTOR mode with PT).
  std::shared_ptr<perf::PerfSession> perf_session;
  /// The binary image (for post-run PT decode).
  std::shared_ptr<BuiltImage> image;
  /// Snapshot ring (when snapshots were enabled).
  std::shared_ptr<snapshot::SnapshotRing> snapshots;
  /// Threading-library journal (when capture_journal was set).
  std::shared_ptr<cpg::Journal> journal;
};

/// Run `program` to completion in `mode` (native runs ignore the
/// tracing settings). Throws on deadlock (no runnable thread while
/// unfinished threads remain) and on sync-API misuse.
[[nodiscard]] ExecutionResult execute(const Program& program, Mode mode,
                                      const CaptureOptions& options = {});

}  // namespace inspector::runtime
