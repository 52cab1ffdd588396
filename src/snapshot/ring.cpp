#include "snapshot/ring.h"

#include <stdexcept>

#include "cpg/serialize.h"
#include "snapshot/compress.h"

namespace inspector::snapshot {

SnapshotRing::SnapshotRing(std::size_t slots, std::size_t slot_bytes)
    : slots_(slots), slot_bytes_(slot_bytes) {
  if (slots == 0) throw std::invalid_argument("snapshot ring needs >= 1 slot");
}

bool SnapshotRing::store(const cpg::Graph& graph) {
  const std::vector<std::uint8_t> raw = cpg::serialize(graph);
  std::vector<std::uint8_t> packed = compress(raw);
  if (packed.size() > slot_bytes_) {
    ++stats_.rejected;
    return false;
  }
  if (queue_.size() == slots_) {
    queue_.pop_front();
    ++stats_.evicted;
  }
  stats_.bytes_uncompressed += raw.size();
  stats_.bytes_compressed += packed.size();
  queue_.push_back(std::move(packed));
  ++stats_.stored;
  return true;
}

Result<cpg::Graph> SnapshotRing::consume() {
  if (queue_.empty()) {
    return Status(StatusCode::kExhausted, "snapshot ring is empty");
  }
  const std::vector<std::uint8_t> packed = std::move(queue_.front());
  queue_.pop_front();
  const auto raw = decompress_checked(packed);
  if (!raw.ok()) return raw.status();
  return cpg::deserialize_checked(raw.value());
}

}  // namespace inspector::snapshot
