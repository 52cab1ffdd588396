// perf_event-style records (INSPECTOR §V-B).
//
// The library exports provenance through the perf interface; these are
// the side-band records a perf.data stream carries alongside the AUX
// (PT) data: process lifecycle (FORK/EXIT -- remember threads run as
// processes), mmap events used to map the trace onto binaries, and AUX
// records describing trace data chunks.
#pragma once

#include <cstdint>
#include <string>

namespace inspector::perf {

using Pid = std::uint32_t;

enum class RecordType : std::uint8_t {
  kComm,         ///< process name
  kFork,         ///< new thread-as-process
  kExit,
  kMmap,         ///< loadable or input file mapping
  kItraceStart,  ///< PT tracing begins for a pid
  kAux,          ///< a chunk of AUX (PT) data was produced
  kAuxTruncated, ///< AUX data lost (gap) -- perf sets TRUNCATED flag
};

struct Record {
  RecordType type = RecordType::kComm;
  Pid pid = 0;
  Pid parent = 0;           ///< for kFork
  std::uint64_t time = 0;   ///< simulated nanoseconds
  std::uint64_t addr = 0;   ///< kMmap: base; kAux: offset
  std::uint64_t len = 0;    ///< kMmap: length; kAux: size
  std::string name;         ///< kComm/kMmap: file or comm name

  bool operator==(const Record&) const = default;
};

}  // namespace inspector::perf
