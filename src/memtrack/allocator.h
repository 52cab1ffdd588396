// malloc shim accounting (INSPECTOR §V-A "Input support" wraps malloc).
//
// A bump allocator over the shared heap region. The paper attributes
// reverse_index's high overhead to "a lot of small memory allocations
// across threads leading to a large number of segmentation faults";
// workloads allocate through this shim so that allocation patterns show
// up as page-touch patterns exactly as they would under the real
// library.
#pragma once

#include <cstdint>
#include <new>
#include <stdexcept>

namespace inspector::memtrack {

/// Address-space layout used by the simulated programs. The ranges are
/// not disjoint: the code windows run back to back from kCodeBase, at
/// least 8 MiB each (kCodeWindow, runtime/image_builder.h), so
/// kGlobalsBase lies inside script 0's. Code addresses only appear as
/// branch addresses in the PT image and globals only as data pages, so
/// the two never meet, but an address alone does not tell code from
/// globals.
struct AddressLayout {
  static constexpr std::uint64_t kCodeBase = 0x0000'0000'0040'0000;
  static constexpr std::uint64_t kGlobalsBase = 0x0000'0000'0060'0000;
  static constexpr std::uint64_t kInputBase = 0x0000'7F00'0000'0000;
  static constexpr std::uint64_t kHeapBase = 0x0000'5600'0000'0000;
  static constexpr std::uint64_t kHeapSize = 1ull << 40;
};

/// Bump allocator handing out 8-byte-aligned chunks from the heap range.
class BumpAllocator {
 public:
  explicit BumpAllocator(std::uint64_t base = AddressLayout::kHeapBase,
                         std::uint64_t size = AddressLayout::kHeapSize)
      : base_(base), end_(base + size), next_(base) {}

  /// Allocate `size` bytes; rounds up to 8-byte alignment.
  [[nodiscard]] std::uint64_t allocate(std::uint64_t size) {
    if (size == 0) size = 1;
    const std::uint64_t aligned = (size + 7) & ~7ull;
    if (next_ + aligned > end_) throw std::bad_alloc();
    const std::uint64_t addr = next_;
    next_ += aligned;
    ++allocations_;
    bytes_allocated_ += aligned;
    return addr;
  }

  /// Align the next allocation to a fresh page (models allocators that
  /// round small objects into new arenas, inflating page footprints).
  void align_to_page() {
    next_ = (next_ + 4095) & ~4095ull;
  }

  [[nodiscard]] std::uint64_t allocations() const noexcept {
    return allocations_;
  }
  [[nodiscard]] std::uint64_t bytes_allocated() const noexcept {
    return bytes_allocated_;
  }
  [[nodiscard]] std::uint64_t high_water() const noexcept { return next_; }

 private:
  std::uint64_t base_;
  std::uint64_t end_;
  std::uint64_t next_;
  std::uint64_t allocations_ = 0;
  std::uint64_t bytes_allocated_ = 0;
};

}  // namespace inspector::memtrack
