// Binary image model: the control-flow graph the PT decoder walks.
//
// perf maps decoded PT packets onto the traced binary by tracking mmap
// events for every loadable (§V-B, "To map the trace onto binaries, it
// needs access to executables and linked libraries"). This module plays
// that role: it holds the basic blocks of a (synthetic) program so the
// flow decoder can reconstruct the exact path from TNT/TIP packets.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace inspector::ptsim {

/// How a basic block ends.
enum class TermKind : std::uint8_t {
  kCondBranch,    ///< conditional: consumes one TNT bit
  kJump,          ///< direct unconditional jump: no packet
  kCall,          ///< direct call: no packet (RET compression off -> ret is indirect)
  kIndirect,      ///< indirect jump/call or return: consumes a TIP packet
  kFallThrough,   ///< falls into the next block: no packet
  kExit,          ///< thread exit: trace disables (TIP.PGD)
};

/// A straight-line run of instructions ending in a control transfer.
struct BasicBlock {
  std::uint64_t start = 0;        ///< address of the first instruction
  std::uint32_t size_bytes = 0;   ///< byte size (start + size = end)
  std::uint32_t instr_count = 0;  ///< retired instructions in the block
  TermKind term = TermKind::kFallThrough;
  std::uint64_t taken_target = 0;  ///< target for kCondBranch (taken) / kJump / kCall
  std::uint64_t fall_target = 0;   ///< fall-through successor address

  /// Address of the terminating branch instruction (last in block).
  [[nodiscard]] std::uint64_t branch_ip() const noexcept {
    return start + size_bytes - 1;
  }
  [[nodiscard]] std::uint64_t end() const noexcept {
    return start + size_bytes;
  }
};

/// A loaded segment, mirroring a PERF_RECORD_MMAP event.
struct Segment {
  std::string name;
  std::uint64_t base = 0;
  std::uint64_t size = 0;
};

/// An immutable set of basic blocks, held flat and ascending by start
/// address.
///
/// Invariant: block address ranges do not overlap.
class Image {
 public:
  /// Register a loadable segment (mirrors tracking mmap events).
  void add_segment(Segment segment);

  /// Room for `blocks` blocks in all.
  void reserve(std::size_t blocks) { blocks_.reserve(blocks); }

  /// Add a basic block. Throws std::invalid_argument when the block
  /// overlaps an existing one or has zero size. A block that starts at
  /// or after the last block's end -- the order the image builder and
  /// deserialize_image produce -- is appended; any other is inserted in
  /// place.
  void add_block(const BasicBlock& block);

  /// Look up the block starting at `ip`. Control transfers always land
  /// on block starts in a well-formed image.
  [[nodiscard]] const BasicBlock* block_at(std::uint64_t ip) const noexcept;

  /// Look up the block whose range contains `ip` (for FUP re-sync after
  /// an overflow, where the resume IP may be mid-block).
  [[nodiscard]] const BasicBlock* block_containing(
      std::uint64_t ip) const noexcept;

  [[nodiscard]] std::size_t block_count() const noexcept {
    return blocks_.size();
  }
  [[nodiscard]] const std::vector<Segment>& segments() const noexcept {
    return segments_;
  }

  /// All blocks, ascending by start address.
  [[nodiscard]] const std::vector<BasicBlock>& blocks() const noexcept {
    return blocks_;
  }

 private:
  std::vector<BasicBlock> blocks_;  // ascending by start address
  std::vector<Segment> segments_;
};

/// Persist the image ("the decoder needs access to executables and
/// linked libraries", §V-B -- this is the executable side-car).
[[nodiscard]] std::vector<std::uint8_t> serialize_image(const Image& image);
/// Inverse. Malformed input -- truncation, a bad magic, a block kind
/// outside TermKind, an empty or overlapping block, a block starting
/// below its predecessor, an implausible count, trailing bytes -- is
/// kInvalidArgument with a message starting "image: ".
[[nodiscard]] Result<Image> deserialize_image(
    std::span<const std::uint8_t> bytes);

}  // namespace inspector::ptsim
