#include "cpg/journal.h"

#include "cpg/binary_io.h"

namespace inspector::cpg {

namespace {

constexpr std::uint32_t kMagic = 0x314E524A;  // "JRN1"
constexpr std::uint8_t kOpKinds =
    static_cast<std::uint8_t>(JournalOp::Kind::kThreadExit) + 1;

}  // namespace

std::vector<std::uint8_t> serialize(const Journal& journal) {
  // Same primitives (binary_io) and varint sequence codecs
  // (util/varint.h) as the CPG and shard formats: the page sets ride
  // the monotone delta codec, the counters plain varints.
  std::vector<std::uint8_t> out;
  detail::ByteWriter w(out);
  w.u32(kMagic);
  w.uvarint(journal.ops.size());
  for (const auto& op : journal.ops) {
    w.u8(static_cast<std::uint8_t>(op.kind));
    w.u32(op.tid);
    w.uvarint(op.aux);
    w.u8(static_cast<std::uint8_t>(op.event));
    w.monotone_u64(op.read_set);
    w.monotone_u64(op.write_set);
    w.uvarint(op.branch_count);
  }
  return out;
}

Result<Journal> deserialize_journal(std::span<const std::uint8_t> bytes) {
  try {
    detail::ByteReader r(bytes);
    detail::check_magic(r, kMagic, "journal");
    Journal journal;
    // Minimum encoded op: kind 1 + tid 4 + aux 1 + event 1 + two
    // empty sets 2 + branch count 1.
    const std::uint64_t count = r.counted_varint(10, "journal op");
    journal.ops.reserve(count);
    // Thread ids size dense per-thread tables (vector clocks, the
    // graph's thread index), so an id no valid journal can hold must
    // die here, not as a gigabyte-scale allocation in the rebuild.
    auto check_thread = [&](std::uint64_t id, std::uint64_t op,
                            const char* what) {
      if (id >= count) {
        throw detail::SerializeError(
            "op " + std::to_string(op) + ": " + what + " " +
            std::to_string(id) + " is not below the op count " +
            std::to_string(count));
      }
    };
    for (std::uint64_t i = 0; i < count; ++i) {
      JournalOp op;
      op.kind = static_cast<JournalOp::Kind>(r.u8_enum(kOpKinds, "op kind"));
      op.tid = r.u32();
      check_thread(op.tid, i, "thread");
      op.aux = r.uvarint();
      if (op.kind == JournalOp::Kind::kThreadStart) {
        check_thread(op.aux, i, "parent thread");
      }
      op.event = static_cast<sync::SyncEventKind>(
          r.u8_enum(sync::kSyncEventKinds, "event"));
      op.read_set = r.monotone_u64();
      op.write_set = r.monotone_u64();
      op.branch_count = static_cast<std::uint32_t>(r.uvarint());
      journal.ops.push_back(std::move(op));
    }
    r.expect_end("journal ops");
    return journal;
  } catch (const std::exception& e) {
    return Status(StatusCode::kInvalidArgument,
                  std::string("journal: ") + e.what());
  }
}

}  // namespace inspector::cpg
