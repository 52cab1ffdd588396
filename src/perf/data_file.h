// perf.data-style container for a recorded session.
//
// `perf record` persists the side-band records and the AUX (PT) data to
// perf.data for later decoding (§V-B: "After execution the result can
// be further processed by using a set of tools"). This is that
// container: side-band records plus one AUX blob per traced process,
// encoded to bytes for the offline rebuild (core::rebuild_offline).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "perf/events.h"
#include "perf/session.h"
#include "util/status.h"

namespace inspector::perf {

struct DataFile {
  std::vector<Record> records;
  struct AuxStream {
    Pid pid = 0;
    std::vector<std::uint8_t> data;
  };
  std::vector<AuxStream> aux;  ///< one per traced pid, in attach order
};

/// Capture everything a session recorded (drains the rings first).
[[nodiscard]] DataFile capture(PerfSession& session);

/// Binary encoding ("IPF1" magic, then the records and the streams).
[[nodiscard]] std::vector<std::uint8_t> serialize(const DataFile& file);

/// Inverse of serialize(). Malformed input -- truncation, a bad magic,
/// an unknown record type, an implausible count, two streams for one
/// pid, trailing bytes -- is kInvalidArgument with a message starting
/// "perf data: ".
[[nodiscard]] Result<DataFile> deserialize(std::span<const std::uint8_t> bytes);

}  // namespace inspector::perf
