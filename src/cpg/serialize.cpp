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
    w.uvarint(n.thunks.size());
    for (const auto& t : n.thunks) {
      w.u32(t.beta);
      w.u64(t.branch.ip);
      w.u64(t.branch.target);
      w.u8(static_cast<std::uint8_t>((t.branch.taken ? 1 : 0) |
                                     (t.branch.indirect ? 2 : 0)));
    }
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

Result<Graph> deserialize_checked(std::span<const std::uint8_t> bytes) {
  try {
    ByteReader r(bytes);
    detail::check_header(r, kCpgMagic, kCpgFormatVersion, "CPG");
    // Minimum encoded node: 24 bytes.
    const std::uint64_t node_count = r.counted(24, "node");
    std::vector<SubComputation> nodes;
    nodes.reserve(node_count);
    for (std::uint64_t i = 0; i < node_count; ++i) {
      SubComputation n;
      n.id = r.u32();
      n.thread = r.u32();
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
      const std::uint64_t clock_size = r.counted_varint(1, "clock");
      for (std::uint64_t j = 0; j < clock_size; ++j) {
        n.clock.set(j, r.uvarint());
      }
      n.read_set = r.monotone_u64();
      n.write_set = r.monotone_u64();
      const std::uint64_t thunk_count = r.counted_varint(21, "thunk");
      n.thunks.reserve(thunk_count);
      for (std::uint64_t j = 0; j < thunk_count; ++j) {
        Thunk t;
        t.beta = r.u32();
        t.branch.ip = r.u64();
        t.branch.target = r.u64();
        const std::uint8_t flags = r.u8();
        t.branch.taken = (flags & 1) != 0;
        t.branch.indirect = (flags & 2) != 0;
        n.thunks.push_back(t);
      }
      // lint: allow(format-version-discipline) the encoded bytes are unchanged; the decoder now rejects kind bytes that no writer emits for a valid graph
      n.end.kind = static_cast<sync::SyncEventKind>(
          r.u8_enum(sync::kSyncEventKinds, "end-reason kind"));
      n.end.object = r.u64();
      n.start_seq = r.uvarint();
      n.end_seq = r.uvarint();
      nodes.push_back(std::move(n));
    }
    const std::uint64_t edge_count = r.counted(17, "edge");
    std::vector<Edge> edges;
    edges.reserve(edge_count);
    for (std::uint64_t i = 0; i < edge_count; ++i) {
      Edge e;
      e.from = r.u32();
      e.to = r.u32();
      e.kind = static_cast<EdgeKind>(r.u8_enum(kEdgeKinds, "edge kind"));
      e.object = r.u64();
      edges.push_back(e);
    }
    const std::uint64_t sched_count = r.counted(21, "schedule event");
    std::vector<sync::SyncEvent> schedule;
    schedule.reserve(sched_count);
    for (std::uint64_t i = 0; i < sched_count; ++i) {
      sync::SyncEvent s;
      s.seq = r.u64();
      s.thread = r.u32();
      s.object = r.u64();
      s.kind = static_cast<sync::SyncEventKind>(
          r.u8_enum(sync::kSyncEventKinds, "schedule event kind"));
      schedule.push_back(s);
    }
    // Graph construction validates edge endpoints and may throw; fold
    // that into the same typed error path as the decode itself.
    return Graph(std::move(nodes), std::move(edges), std::move(schedule));
  } catch (const std::exception& e) {
    return Status(StatusCode::kInvalidArgument,
                  std::string("CPG deserialize: ") + e.what());
  }
}

std::string to_text(const Graph& graph) {
  std::ostringstream os;
  os << "# CPG: " << graph.nodes().size() << " sub-computations, "
     << graph.edges().size() << " recorded edges, "
     << graph.thread_count() << " threads\n";
  for (const auto& n : graph.nodes()) {
    os << n << '\n';
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
