// Snapshot ring: the configurable slot buffer of §VI.
//
// "We implemented a simple ring buffer with a configurable number of
// slots (each slot size is set to 4MB). As the user finishes the live
// analysis on the recorded snapshots of the CPG, we reuse those slots
// for storing the new incoming snapshots."
//
// Slots hold compressed serialized CPG snapshots. When all slots are
// occupied, storing a new snapshot evicts the oldest un-consumed one
// (matching the overwrite semantics of PT snapshot mode).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "cpg/graph.h"
#include "util/status.h"

namespace inspector::snapshot {

inline constexpr std::size_t kDefaultSlotBytes = 4 * 1024 * 1024;

struct RingStats {
  std::uint64_t stored = 0;
  std::uint64_t evicted = 0;        ///< overwritten before consumption
  std::uint64_t rejected = 0;       ///< snapshot larger than a slot
  std::uint64_t bytes_uncompressed = 0;
  std::uint64_t bytes_compressed = 0;
};

class SnapshotRing {
 public:
  explicit SnapshotRing(std::size_t slots,
                        std::size_t slot_bytes = kDefaultSlotBytes);

  /// Serialize + compress `graph` into the next slot. Returns false when
  /// the compressed snapshot exceeds the slot size (rejected, counted).
  bool store(const cpg::Graph& graph);

  /// Pop the oldest stored snapshot and decompress+deserialize it.
  /// kExhausted when the ring is empty; a damaged slot comes back as
  /// the decoder's typed status (kDataLoss for a checksum mismatch,
  /// kInvalidArgument for structural damage) and is dropped.
  [[nodiscard]] Result<cpg::Graph> consume();

  [[nodiscard]] std::size_t occupied() const noexcept {
    return queue_.size();
  }
  [[nodiscard]] std::size_t slots() const noexcept { return slots_; }
  [[nodiscard]] const RingStats& stats() const noexcept { return stats_; }

 private:
  std::size_t slots_;
  std::size_t slot_bytes_;
  std::deque<std::vector<std::uint8_t>> queue_;  // compressed snapshots
  RingStats stats_;
};

}  // namespace inspector::snapshot
