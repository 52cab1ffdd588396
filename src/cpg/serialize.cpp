#include "cpg/serialize.h"

#include <exception>
#include <sstream>
#include <utility>

#include "cpg/binary_io.h"

namespace inspector::cpg {

using detail::ByteReader;
using detail::ByteWriter;

std::vector<std::uint8_t> serialize(const Graph& graph) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  detail::write_header(w, kCpgMagic, kCpgFormatVersion);
  w.u64(graph.nodes().size());
  for (const auto& n : graph.nodes()) {
    w.u32(n.id);
    w.u32(n.thread);
    // The node's heavy payload is all small or monotone integers:
    // alpha/seqs are counters, clock components per-thread ticks,
    // and the page sets sorted-unique -- delta+varint shrinks them
    // ~4-8x and hands the LZ pass a lower-entropy stream.
    w.uvarint(n.alpha);
    const auto& clock = n.clock.components();
    w.uvarint(clock.size());
    for (std::uint64_t c : clock) w.uvarint(c);
    w.monotone_u64(n.read_set);
    w.monotone_u64(n.write_set);
    // The column already holds the thunks as the format's records.
    // lint: allow(format-version-discipline) the encoded bytes are unchanged; the thunk column stores the format's 21-byte records, flags 0-3
    const std::span<const std::uint8_t> thunks = graph.thunks(n.id).bytes();
    w.uvarint(thunks.size() / kThunkRecordBytes);
    out.insert(out.end(), thunks.begin(), thunks.end());
    w.u8(static_cast<std::uint8_t>(n.end.kind));
    w.u64(n.end.object);
    w.uvarint(n.start_seq);
    w.uvarint(n.end_seq);
  }
  w.u64(graph.edges().size());
  for (const auto& e : graph.edges()) {
    w.u32(e.from);
    w.u32(e.to);
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u64(e.object);
  }
  w.u64(graph.schedule().size());
  for (const auto& s : graph.schedule()) {
    w.u64(s.seq);
    w.u32(s.thread);
    w.u64(s.object);
    w.u8(static_cast<std::uint8_t>(s.kind));
  }
  return out;
}

// lint: allow(format-version-discipline) the encoded bytes are unchanged; the records decode one bounds check per fixed-width record
Result<GraphParts> deserialize_graph_parts(std::span<const std::uint8_t> bytes) {
  try {
    ByteReader r(bytes);
    detail::check_header(r, kCpgMagic, kCpgFormatVersion, "CPG");
    GraphParts parts;
    // Minimum encoded node: 24 bytes.
    const std::uint64_t node_count = r.counted(24, "node");
    parts.nodes.resize(node_count);
    parts.thunks.ends.reserve(node_count);
    // Every node takes 24 bytes besides its thunk records, so the rest
    // bounds them and one reservation holds them all (pages it never
    // writes stay untouched).
    parts.thunks.records.reserve(r.remaining() - 24 * node_count);
    for (std::uint64_t i = 0; i < node_count; ++i) {
      SubComputation& n = parts.nodes[i];
      // Fixed-width fields come in records, one bounds check each.
      const std::uint8_t* head = r.record(8, "node header");
      n.id = detail::load_u32(head);
      n.thread = detail::load_u32(head + 4);
      // Node ids are dense in index order -- Graph indexes nodes_ by
      // id, so a corrupt id must die here, not as an out-of-bounds
      // read in the index build. Thread ids are only plausibility-
      // bounded (a shard-local graph keeps global thread ids over a
      // node subset, so no tight structural bound exists); the cap
      // stops a flipped high bit from sizing a gigabyte-scale
      // per-thread table before any deeper check can object.
      if (n.id != i) {
        throw detail::SerializeError("node id " + std::to_string(n.id) +
                                     " out of order at index " +
                                     std::to_string(i));
      }
      constexpr std::uint32_t kImplausibleThreads = 1u << 20;
      if (n.thread >= kImplausibleThreads) {
        throw detail::SerializeError("implausible node thread " +
                                     std::to_string(n.thread));
      }
      n.alpha = r.uvarint();
      // Sized once, then filled slot by slot.
      const std::uint64_t clock_size = r.counted_varint(1, "clock");
      n.clock = vclock::VectorClock(clock_size);
      for (std::uint64_t j = 0; j < clock_size; ++j) {
        n.clock.set(j, r.uvarint());
      }
      r.monotone_into(n.read_set, "read set");
      r.monotone_into(n.write_set, "write set");
      // counted_varint() bounds the count by the bytes left, so the
      // whole run of thunk records is one check, and it lands in the
      // column as it is stored -- but for the flag bits no reader
      // looks at, cleared as decoding them field by field would.
      const std::uint64_t thunk_count =
          r.counted_varint(kThunkRecordBytes, "thunk");
      const std::size_t run = thunk_count * kThunkRecordBytes;
      const std::uint8_t* t = r.record(run, "thunk records");
      std::vector<std::uint8_t>& records = parts.thunks.records;
      const std::size_t first = records.size();
      records.insert(records.end(), t, t + run);
      for (std::size_t f = first + kThunkRecordBytes - 1; f < records.size();
           f += kThunkRecordBytes) {
        records[f] &= 3;
      }
      parts.thunks.end_node();
      const std::uint8_t* end = r.record(9, "end reason");
      n.end.kind = static_cast<sync::SyncEventKind>(
          r.enum_at(end, sync::kSyncEventKinds, "end-reason kind"));
      n.end.object = detail::load_u64(end + 1);
      n.start_seq = r.uvarint();
      n.end_seq = r.uvarint();
    }
    const std::uint64_t edge_count = r.counted(17, "edge");
    parts.edges.resize(edge_count);
    for (Edge& e : parts.edges) {
      const std::uint8_t* p = r.record(17, "edge");
      e.from = detail::load_u32(p);
      e.to = detail::load_u32(p + 4);
      e.kind = static_cast<EdgeKind>(r.enum_at(p + 8, kEdgeKinds, "edge kind"));
      e.object = detail::load_u64(p + 9);
    }
    const std::uint64_t sched_count = r.counted(21, "schedule event");
    parts.schedule.resize(sched_count);
    for (sync::SyncEvent& s : parts.schedule) {
      const std::uint8_t* p = r.record(21, "schedule event");
      s.seq = detail::load_u64(p);
      s.thread = detail::load_u32(p + 8);
      s.object = detail::load_u64(p + 12);
      s.kind = static_cast<sync::SyncEventKind>(
          r.enum_at(p + 20, sync::kSyncEventKinds, "schedule event kind"));
    }
    return parts;
  } catch (const std::exception& e) {
    return Status(StatusCode::kInvalidArgument,
                  std::string("CPG deserialize: ") + e.what());
  }
}

Result<Graph> deserialize_build_graph(GraphParts parts) {
  try {
    // Graph construction validates edge endpoints and may throw; fold
    // that into the same typed error path as the decode itself.
    return Graph(std::move(parts.nodes), std::move(parts.edges),
                 std::move(parts.schedule), std::move(parts.thunks));
  } catch (const std::exception& e) {
    return Status(StatusCode::kInvalidArgument,
                  std::string("CPG deserialize: ") + e.what());
  }
}

Result<Graph> deserialize_checked(std::span<const std::uint8_t> bytes) {
  auto parts = deserialize_graph_parts(bytes);
  if (!parts.ok()) return parts.status();
  return deserialize_build_graph(std::move(parts).value());
}

std::string to_text(const Graph& graph) {
  std::ostringstream os;
  os << "# CPG: " << graph.nodes().size() << " sub-computations, "
     << graph.edges().size() << " recorded edges, "
     << graph.thread_count() << " threads\n";
  for (const auto& n : graph.nodes()) {
    os << n << " thunks=" << graph.thunks(n.id).size() << '\n';
  }
  for (const auto& e : graph.edges()) {
    os << e << '\n';
  }
  return os.str();
}

std::string to_dot(const Graph& graph) {
  std::ostringstream os;
  os << "digraph cpg {\n  rankdir=TB;\n";
  for (const auto& n : graph.nodes()) {
    os << "  n" << n.id << " [label=\"L" << n.thread << "[" << n.alpha
       << "]\\nR:" << n.read_set.size() << " W:" << n.write_set.size()
       << "\"];\n";
  }
  for (const auto& e : graph.edges()) {
    const char* style = e.kind == EdgeKind::kControl ? "solid"
                        : e.kind == EdgeKind::kSync  ? "dashed"
                                                     : "dotted";
    os << "  n" << e.from << " -> n" << e.to << " [style=" << style
       << "];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace inspector::cpg
