// The perf AUX area: a ring buffer receiving the PT byte stream.
//
// Two modes, matching §V-B/§VI of the paper:
//  * kFullTrace -- the kernel never overwrites data user space has not
//    collected; if the producer outruns the consumer the new bytes are
//    dropped and the trace has a gap (the encoder then emits OVF).
//  * kSnapshot -- old data is constantly overwritten so tracing can run
//    indefinitely; a snapshot grabs the current window (the decoder
//    re-syncs at the first PSB inside it).
//
// The capacity is the logical size of the area. Like the kernel, which
// commits AUX pages only as the trace first reaches them, the backing
// store grows (doubling, capped at the capacity) while the write
// position first reaches new bytes, and is full size from the first
// wrap on, so a short trace costs only its own bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ptsim/sink.h"

namespace inspector::ptsim {

enum class RingMode : std::uint8_t { kFullTrace, kSnapshot };

class AuxRingBuffer final : public ByteSink {
 public:
  /// `capacity` bytes of AUX space (perf default order: a few MB).
  explicit AuxRingBuffer(std::size_t capacity,
                         RingMode mode = RingMode::kFullTrace);

  /// ByteSink: append trace bytes.
  ///  * full-trace mode: drops the whole write (and records an overflow)
  ///    when it does not fit in the free space;
  ///  * snapshot mode: always succeeds, overwriting the oldest bytes.
  void write(std::span<const std::uint8_t> bytes) override;

  /// Consume everything currently readable (full-trace mode: what the
  /// perf tool would copy out to perf.data). Clears the readable window.
  [[nodiscard]] std::vector<std::uint8_t> drain();

  /// Copy the current window without consuming it (snapshot mode: what
  /// the SIGUSR2 handler captures).
  [[nodiscard]] std::vector<std::uint8_t> snapshot() const;

  /// True when at least one write was dropped since the last call, and
  /// reset the flag. The trace source uses this to emit an OVF packet.
  [[nodiscard]] bool take_overflow() noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t readable() const noexcept {
    return static_cast<std::size_t>(head_ - tail_);
  }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }
  [[nodiscard]] std::uint64_t bytes_lost() const noexcept {
    return bytes_lost_;
  }
  [[nodiscard]] std::uint64_t overflow_count() const noexcept {
    return overflow_count_;
  }
  [[nodiscard]] RingMode mode() const noexcept { return mode_; }

 private:
  void copy_in(std::span<const std::uint8_t> bytes);
  void copy_out(std::uint64_t from, std::span<std::uint8_t> out) const;

  std::size_t capacity_;
  /// Physical bytes: a prefix of the area until the first wrap, all
  /// `capacity_` bytes after it.
  std::vector<std::uint8_t> buf_;
  RingMode mode_;
  std::uint64_t head_ = 0;  // monotone write position
  std::uint64_t tail_ = 0;  // monotone read position (head - tail <= capacity)
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_lost_ = 0;
  std::uint64_t overflow_count_ = 0;
  bool overflow_pending_ = false;
};

}  // namespace inspector::ptsim
