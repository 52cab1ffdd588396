#include "ptsim/ring_buffer.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace inspector::ptsim {

namespace {

/// The first physical size the backing store takes.
constexpr std::size_t kInitialBytes = 4096;

}  // namespace

AuxRingBuffer::AuxRingBuffer(std::size_t capacity, RingMode mode)
    : capacity_(capacity), mode_(mode) {
  if (capacity == 0) {
    throw std::invalid_argument("AUX ring buffer capacity must be non-zero");
  }
}

void AuxRingBuffer::copy_in(std::span<const std::uint8_t> bytes) {
  // Until the first wrap a position's physical offset is the position
  // itself, so growing keeps every byte where it is.
  const std::uint64_t reach = head_ + bytes.size();
  if (reach > buf_.size() && buf_.size() < capacity_) {
    std::size_t size = std::max(buf_.size(), kInitialBytes);
    while (size < reach && size < capacity_) size *= 2;
    size = std::min(size, capacity_);
    buf_.reserve(size);
    buf_.resize(size);
  }
  std::size_t offset = static_cast<std::size_t>(head_ % capacity_);
  std::size_t remaining = bytes.size();
  const std::uint8_t* src = bytes.data();
  while (remaining > 0) {
    const std::size_t chunk = std::min(remaining, capacity_ - offset);
    std::memcpy(buf_.data() + offset, src, chunk);
    offset = (offset + chunk) % capacity_;
    src += chunk;
    remaining -= chunk;
  }
  head_ += bytes.size();
}

void AuxRingBuffer::copy_out(std::uint64_t from,
                             std::span<std::uint8_t> out) const {
  std::size_t offset = static_cast<std::size_t>(from % capacity_);
  std::size_t remaining = out.size();
  std::uint8_t* dst = out.data();
  while (remaining > 0) {
    const std::size_t chunk = std::min(remaining, capacity_ - offset);
    std::memcpy(dst, buf_.data() + offset, chunk);
    offset = (offset + chunk) % capacity_;
    dst += chunk;
    remaining -= chunk;
  }
}

void AuxRingBuffer::write(std::span<const std::uint8_t> bytes) {
  if (bytes.size() > capacity_) {
    // A single packet larger than the AUX area can never fit.
    bytes_lost_ += bytes.size();
    ++overflow_count_;
    overflow_pending_ = true;
    return;
  }
  if (mode_ == RingMode::kFullTrace) {
    const std::size_t free = capacity_ - readable();
    if (bytes.size() > free) {
      bytes_lost_ += bytes.size();
      ++overflow_count_;
      overflow_pending_ = true;
      return;
    }
  } else {
    // Snapshot mode: advance the tail past the bytes being overwritten.
    const std::size_t free = capacity_ - readable();
    if (bytes.size() > free) {
      tail_ += bytes.size() - free;
    }
  }
  copy_in(bytes);
  bytes_written_ += bytes.size();
}

std::vector<std::uint8_t> AuxRingBuffer::drain() {
  std::vector<std::uint8_t> out(readable());
  copy_out(tail_, out);
  tail_ = head_;
  return out;
}

std::vector<std::uint8_t> AuxRingBuffer::snapshot() const {
  std::vector<std::uint8_t> out(readable());
  copy_out(tail_, out);
  return out;
}

bool AuxRingBuffer::take_overflow() noexcept {
  const bool pending = overflow_pending_;
  overflow_pending_ = false;
  return pending;
}

}  // namespace inspector::ptsim
