// A perf-record session: per-process PT streams behind a cgroup filter.
//
// Mirrors `perf record -e intel_pt// -G inspector_cgroup`: every process
// in the cgroup gets its own AUX ring buffer and PT encoder; processes
// outside the filter are not traced at all. The session also collects
// the side-band records (FORK/MMAP/ITRACE_START/AUX).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "perf/cgroup.h"
#include "perf/events.h"
#include "ptsim/encoder.h"
#include "ptsim/ring_buffer.h"

namespace inspector::perf {

struct SessionOptions {
  std::size_t aux_bytes = 8 * 1024 * 1024;  ///< AUX area per process
  ptsim::RingMode mode = ptsim::RingMode::kFullTrace;
};

/// One traced process's PT stream.
struct TraceStream {
  explicit TraceStream(const SessionOptions& options)
      : ring(options.aux_bytes, options.mode), encoder(ring) {}

  ptsim::AuxRingBuffer ring;
  ptsim::PacketEncoder encoder;
  std::vector<std::uint8_t> collected;  ///< drained trace data
};

class PerfSession {
 public:
  explicit PerfSession(std::string cgroup_name, SessionOptions options = {});

  /// Place the root process in the traced cgroup and start tracing it.
  void attach_root(Pid pid, std::uint64_t now);

  /// Fork notification. The child inherits cgroup membership; if it
  /// joins, a PT stream is created for it.
  void on_fork(Pid parent, Pid child, std::uint64_t now);
  void on_exit(Pid pid, std::uint64_t now);

  /// mmap notification (input files and loadables; §V-A input support
  /// tracks these to map traces onto binaries).
  void on_mmap(Pid pid, std::uint64_t addr, std::uint64_t len,
               const std::string& name, std::uint64_t now);

  /// Encoder for `pid`, or nullptr when the pid is not traced (outside
  /// the cgroup). Callers feed branch events through this.
  [[nodiscard]] ptsim::PacketEncoder* encoder_for(Pid pid);

  /// True when `pid`'s AUX ring dropped data since the last check
  /// (resets the flag). The trace source reacts by emitting an OVF
  /// packet so decoders see the gap.
  [[nodiscard]] bool take_stream_overflow(Pid pid);

  /// Move available AUX data of every stream into its `collected`
  /// buffer, emitting kAux records; emits kAuxTruncated when a ring
  /// overflowed since the last drain (and an OVF packet into the
  /// stream so decoders see the gap).
  void drain(std::uint64_t now);

  /// Total trace bytes collected across all processes (fig-9 log size).
  [[nodiscard]] std::uint64_t total_trace_bytes() const;

  /// Collected trace for one pid (drains implicitly first).
  [[nodiscard]] const std::vector<std::uint8_t>& trace_for(Pid pid);

  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::uint64_t overflow_count() const noexcept {
    return overflows_;
  }

  /// All traced pids (stable order: attach order).
  [[nodiscard]] const std::vector<Pid>& traced_pids() const noexcept {
    return pids_;
  }

 private:
  void start_stream(Pid pid, std::uint64_t now);

  Cgroup cgroup_;
  SessionOptions options_;
  std::unordered_map<Pid, std::unique_ptr<TraceStream>> streams_;
  std::vector<Pid> pids_;
  std::vector<Record> records_;
  std::uint64_t overflows_ = 0;
};

}  // namespace inspector::perf
