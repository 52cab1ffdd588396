#include "ptsim/image.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "cpg/binary_io.h"

namespace inspector::ptsim {

void Image::add_segment(Segment segment) {
  segments_.push_back(std::move(segment));
}

namespace {

/// Orders blocks by start address for the binary searches below.
bool starts_before(const BasicBlock& block, std::uint64_t ip) noexcept {
  return block.start < ip;
}

}  // namespace

void Image::add_block(const BasicBlock& block) {
  if (block.size_bytes == 0) {
    throw std::invalid_argument("basic block must have non-zero size");
  }
  if (blocks_.empty() || blocks_.back().end() <= block.start) {
    blocks_.push_back(block);
    return;
  }
  // Reject overlap with the predecessor and successor by start address.
  const auto next = std::lower_bound(blocks_.begin(), blocks_.end(),
                                     block.start, starts_before);
  if (next != blocks_.end() && next->start < block.end()) {
    throw std::invalid_argument("basic block overlaps successor");
  }
  if (next != blocks_.begin() && std::prev(next)->end() > block.start) {
    throw std::invalid_argument("basic block overlaps predecessor");
  }
  blocks_.insert(next, block);
}

const BasicBlock* Image::block_at(std::uint64_t ip) const noexcept {
  const auto it =
      std::lower_bound(blocks_.begin(), blocks_.end(), ip, starts_before);
  return it != blocks_.end() && it->start == ip ? &*it : nullptr;
}

const BasicBlock* Image::block_containing(std::uint64_t ip) const noexcept {
  // The first block starting after `ip`; its predecessor may hold `ip`.
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), ip,
      [](std::uint64_t a, const BasicBlock& b) { return a < b.start; });
  if (it == blocks_.begin()) return nullptr;
  --it;
  return ip < it->end() ? &*it : nullptr;
}

namespace {

using cpg::detail::ByteReader;
using cpg::detail::ByteWriter;

constexpr std::uint32_t kImageMagic = 0x31474D49;  // "IMG1"
constexpr std::uint8_t kTermKinds =
    static_cast<std::uint8_t>(TermKind::kExit) + 1;

}  // namespace

std::vector<std::uint8_t> serialize_image(const Image& image) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(kImageMagic);
  w.u64(image.segments().size());
  for (const auto& s : image.segments()) {
    w.str(s.name);
    w.u64(s.base);
    w.u64(s.size);
  }
  w.u64(image.blocks().size());
  for (const auto& b : image.blocks()) {
    w.u64(b.start);
    w.u32(b.size_bytes);
    w.u32(b.instr_count);
    w.u8(static_cast<std::uint8_t>(b.term));
    w.u64(b.taken_target);
    w.u64(b.fall_target);
  }
  return out;
}

Result<Image> deserialize_image(std::span<const std::uint8_t> bytes) {
  try {
    ByteReader r(bytes);
    cpg::detail::check_magic(r, kImageMagic, "binary image");
    Image image;
    // Minimum encoded segment: empty name 8 + base 8 + size 8.
    const std::uint64_t segment_count = r.counted(24, "segment");
    for (std::uint64_t i = 0; i < segment_count; ++i) {
      Segment s;
      s.name = r.str();
      s.base = r.u64();
      s.size = r.u64();
      image.add_segment(std::move(s));
    }
    // Encoded block: start 8 + size 4 + instrs 4 + kind 1 + targets 16.
    const std::uint64_t block_count = r.counted(33, "block");
    for (std::uint64_t i = 0; i < block_count; ++i) {
      BasicBlock b;
      b.start = r.u64();
      b.size_bytes = r.u32();
      b.instr_count = r.u32();
      b.term = static_cast<TermKind>(r.u8_enum(kTermKinds, "block kind"));
      b.taken_target = r.u64();
      b.fall_target = r.u64();
      // serialize_image writes blocks ascending, so each one appends;
      // taking any other order would make decoding quadratic.
      if (!image.blocks().empty() && b.start < image.blocks().back().start) {
        throw std::invalid_argument("block " + std::to_string(i) +
                                    " starts below its predecessor");
      }
      image.add_block(b);
    }
    r.expect_end("blocks");
    return image;
  } catch (const std::exception& e) {  // SerializeError, or add_block's
    return Status(StatusCode::kInvalidArgument,
                  std::string("image: ") + e.what());
  }
}

}  // namespace inspector::ptsim
