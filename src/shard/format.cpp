#include "shard/format.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <exception>
#include <filesystem>
#include <fstream>
#include <utility>

#include "cpg/binary_io.h"
#include "cpg/serialize.h"
#include "snapshot/compress.h"
#include "util/failpoint.h"

namespace inspector::shard {

using cpg::detail::ByteReader;
using cpg::detail::ByteWriter;

namespace {

void write_stats(ByteWriter& w, const cpg::GraphStats& s) {
  w.u64(s.nodes);
  w.u64(s.control_edges);
  w.u64(s.sync_edges);
  w.u64(s.threads);
  w.u64(s.thunks);
  w.u64(s.read_pages);
  w.u64(s.write_pages);
}

cpg::GraphStats read_stats(ByteReader& r) {
  cpg::GraphStats s;
  s.nodes = r.u64();
  s.control_edges = r.u64();
  s.sync_edges = r.u64();
  s.threads = r.u64();
  s.thunks = r.u64();
  s.read_pages = r.u64();
  s.write_pages = r.u64();
  return s;
}

/// The frontier, column-wise: each column a self-framing varint
/// sequence. The edge indices are strictly ascending (monotone
/// codec); endpoints and objects cluster (zigzag delta); kinds are a
/// plain byte run.
void write_frontier(ByteWriter& w, const std::vector<FrontierEdge>& edges) {
  std::vector<std::uint64_t> scratch;
  scratch.reserve(edges.size());
  for (const FrontierEdge& e : edges) scratch.push_back(e.edge_index);
  w.monotone_u64(scratch);
  scratch.clear();
  for (const FrontierEdge& e : edges) scratch.push_back(e.from);
  w.zigzag_u64(scratch);
  scratch.clear();
  for (const FrontierEdge& e : edges) scratch.push_back(e.to);
  w.zigzag_u64(scratch);
  for (const FrontierEdge& e : edges) {
    w.u8(static_cast<std::uint8_t>(e.kind));
  }
  scratch.clear();
  for (const FrontierEdge& e : edges) scratch.push_back(e.object);
  w.zigzag_u64(scratch);
}

std::vector<FrontierEdge> read_frontier(ByteReader& r) {
  const std::vector<std::uint64_t> indices = r.monotone_u64();
  const std::vector<std::uint64_t> from = r.zigzag_u64();
  const std::vector<std::uint64_t> to = r.zigzag_u64();
  if (from.size() != indices.size() || to.size() != indices.size()) {
    // lint: allow(no-throw-across-boundary) SerializeError is internal; the deserialize_*_checked wrappers catch it into a typed Status
    throw cpg::detail::SerializeError(
        "frontier columns disagree on the edge count");
  }
  std::vector<FrontierEdge> edges(indices.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    edges[i].edge_index = indices[i];
    if (from[i] > 0xFFFFFFFFu || to[i] > 0xFFFFFFFFu) {
      // lint: allow(no-throw-across-boundary) SerializeError is internal; the deserialize_*_checked wrappers catch it into a typed Status
      throw cpg::detail::SerializeError(
          "frontier endpoint does not fit a node id");
    }
    edges[i].from = static_cast<cpg::NodeId>(from[i]);
    edges[i].to = static_cast<cpg::NodeId>(to[i]);
    edges[i].kind = static_cast<cpg::EdgeKind>(
        r.u8_enum(cpg::kEdgeKinds, "frontier edge kind"));
  }
  const std::vector<std::uint64_t> objects = r.zigzag_u64();
  if (objects.size() != edges.size()) {
    // lint: allow(no-throw-across-boundary) SerializeError is internal; the deserialize_*_checked wrappers catch it into a typed Status
    throw cpg::detail::SerializeError(
        "frontier columns disagree on the edge count");
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    edges[i].object = objects[i];
  }
  return edges;
}

/// Widen a u32 sidecar into the u64 scratch the sequence codecs take.
template <typename Vec>
std::vector<std::uint64_t> widen(const Vec& v) {
  return std::vector<std::uint64_t>(v.begin(), v.end());
}

/// The shards' page sets as one ascending k-way merge: the distinct
/// pages, and for each (through `offsets`) the shards holding it, in
/// shard order, with the page's local index. The step over the k heads
/// is branch-free -- page sets interleave finely, so a compare branch
/// would mispredict on most pages -- and each shard's cursor is its own
/// dependency chain, so the heads advance in parallel.
void merge_page_sets(const std::vector<ShardInfo>& shards, PageSet& pages,
                     std::vector<std::uint32_t>& offsets,
                     std::vector<PageTable::Holder>& holders) {
  constexpr std::uint64_t kDone = ~std::uint64_t{0};
  const std::size_t k = shards.size();
  std::size_t total = 0;
  for (const ShardInfo& s : shards) total += s.pages.size();
  // Every entry lands once; the slot past them absorbs the writes of
  // the heads that miss after the last hit.
  holders.resize(total + 1);
  offsets.assign(1, 0);
  pages.clear();
  struct Head {
    std::uint64_t page = kDone;
    std::uint32_t cursor = 0;
    std::uint32_t size = 0;
    const std::uint64_t* set = nullptr;
  };
  std::vector<Head> heads(k);
  for (std::size_t s = 0; s < k; ++s) {
    const PageSet& set = shards[s].pages;
    heads[s].size = static_cast<std::uint32_t>(set.size());
    heads[s].set = set.data();
    if (!set.empty()) heads[s].page = set.front();
  }
  std::size_t n = 0;
  while (n < total) {
    std::uint64_t low = kDone;
    for (const Head& h : heads) low = std::min(low, h.page);
    for (std::uint32_t s = 0; s < k; ++s) {
      Head& h = heads[s];
      // An exhausted head reads kDone too; its cursor tells it apart
      // from a real page of that id.
      const std::uint32_t hit = static_cast<std::uint32_t>(h.cursor < h.size) &
                                static_cast<std::uint32_t>(h.page == low);
      holders[n] = {s, h.cursor};
      n += hit;
      h.cursor += hit;
      h.page = h.cursor < h.size ? h.set[h.cursor] : kDone;
    }
    pages.push_back(low);
    offsets.push_back(static_cast<std::uint32_t>(n));
  }
  holders.resize(total);
}

/// The sorted union of the shards' page sets: what Manifest::pages
/// holds.
PageSet page_universe(const std::vector<ShardInfo>& shards) {
  PageSet universe;
  std::vector<std::uint32_t> offsets;
  std::vector<PageTable::Holder> holders;
  merge_page_sets(shards, universe, offsets, holders);
  return universe;
}

}  // namespace

PageTable::PageTable(const Manifest& m) {
  PageSet universe;
  merge_page_sets(m.shards, universe, offsets_, holders_);
  // Indexed by Manifest::pages, which every manifest the library
  // returns holds as exactly this union. A hand-built manifest that
  // disagrees routes no page.
  if (universe != m.pages) {
    offsets_.assign(m.pages.size() + 1, 0);
    holders_.clear();
  }
}

std::vector<std::uint8_t> serialize_manifest(const Manifest& m) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  cpg::detail::write_header(w, kManifestMagic, kManifestFormatVersion);
  w.u32(m.shard_count);
  w.u64(m.generation);
  w.u64(m.total_nodes);
  w.u64(m.total_edges);
  w.u64(m.thread_count);
  w.u64(m.level_count);
  write_stats(w, m.stats);
  w.u8_vec(m.node_shard);
  w.u64(m.shards.size());
  for (const ShardInfo& s : m.shards) {
    w.str(s.file);
    w.u32(s.rank_lo);
    w.u32(s.rank_hi);
    w.u64(s.node_count);
    w.u64(s.edge_count);
    w.u64(s.frontier_count);
    w.u32(s.min_level);
    w.u32(s.max_level);
    w.u64(s.byte_size);
    w.u64(s.decoded_bytes);
    w.u8(static_cast<std::uint8_t>(s.codec));
    w.u64(s.file_checksum);
    w.monotone_u64(s.pages);
  }
  // Trailing self-checksum over everything above: any flipped bit in
  // the routing tables surfaces as kDataLoss at open, not as a
  // misrouted query.
  w.u64(snapshot::stripe_hash(out));
  return out;
}

Result<Manifest> deserialize_manifest(const std::vector<std::uint8_t>& bytes) {
  try {
    ByteReader r(bytes);
    cpg::detail::check_header(r, kManifestMagic, kManifestFormatVersion,
                              "CPG shard manifest");
    // Verify the trailing self-checksum before trusting any field. The
    // header already parsed, so damage from here on is content damage
    // (kDataLoss), not a foreign file.
    if (bytes.size() < 16) {
      return Status(StatusCode::kInvalidArgument,
                    "shard manifest: too short for its checksum trailer");
    }
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i) {
      stored |= static_cast<std::uint64_t>(
                    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)])
                << (8 * i);
    }
    const std::uint64_t actual = snapshot::stripe_hash(
        std::span<const std::uint8_t>(bytes.data(), bytes.size() - 8));
    if (stored != actual) {
      return Status(StatusCode::kDataLoss,
                    "shard manifest: self-checksum mismatch (the manifest "
                    "bytes are damaged)");
    }
    Manifest m;
    m.shard_count = r.u32();
    // The planner writes 1..255 shards (the node->shard map is one
    // byte); anything else is a corrupt or crafted file, and callers
    // (ShardStore, append's tail sizing) divide and index by it.
    if (m.shard_count == 0 || m.shard_count > 255) {
      return Status(StatusCode::kInvalidArgument,
                    "shard manifest: shard count " +
                        std::to_string(m.shard_count) +
                        " is outside [1, 255]");
    }
    m.generation = r.u64();
    m.total_nodes = r.u64();
    m.total_edges = r.u64();
    m.thread_count = r.u64();
    m.level_count = r.u64();
    m.stats = read_stats(r);
    m.node_shard = r.u8_vec();
    // 74 = minimum encoded ShardInfo (empty file name and page set).
    const std::uint64_t shard_count = r.counted(74, "shard info");
    m.shards.reserve(shard_count);
    for (std::uint64_t i = 0; i < shard_count; ++i) {
      ShardInfo s;
      s.file = r.str();
      s.rank_lo = r.u32();
      s.rank_hi = r.u32();
      s.node_count = r.u64();
      s.edge_count = r.u64();
      s.frontier_count = r.u64();
      s.min_level = r.u32();
      s.max_level = r.u32();
      s.byte_size = r.u64();
      s.decoded_bytes = r.u64();
      const std::uint8_t codec = r.u8();
      if (codec > static_cast<std::uint8_t>(ShardCodec::kLz)) {
        return Status(StatusCode::kInvalidArgument,
                      "shard manifest: unknown shard codec tag " +
                          std::to_string(codec));
      }
      s.codec = static_cast<ShardCodec>(codec);
      s.file_checksum = r.u64();
      // Strictly ascending by construction of the monotone codec; a
      // count past the file or a run past u64 is a typed error.
      s.pages = r.monotone_u64();
      m.shards.push_back(std::move(s));
    }
    if (m.shards.size() != m.shard_count) {
      return Status(StatusCode::kInvalidArgument,
                    "shard manifest: shard table holds " +
                        std::to_string(m.shards.size()) + " entries but " +
                        std::to_string(m.shard_count) + " were declared");
    }
    if (m.node_shard.size() != m.total_nodes) {
      return Status(StatusCode::kInvalidArgument,
                    "shard manifest: node->shard map covers " +
                        std::to_string(m.node_shard.size()) + " of " +
                        std::to_string(m.total_nodes) + " nodes");
    }
    for (const std::uint8_t s : m.node_shard) {
      if (s >= m.shard_count) {
        return Status(StatusCode::kInvalidArgument,
                      "shard manifest: node->shard map references shard " +
                          std::to_string(s) + " of " +
                          std::to_string(m.shard_count));
      }
    }
    m.pages = page_universe(m.shards);
    return m;
  } catch (const std::exception& e) {
    return Status(StatusCode::kInvalidArgument,
                  std::string("shard manifest: ") + e.what());
  }
}

namespace {

/// The shard body: every field behind the codec frame. Kept separate
/// from the frame so raw and compressed files share one encoding;
/// writes into the caller's writer so the raw path can serialize
/// straight into the framed output without a second full-body buffer.
/// Every sidecar is packed as a delta+varint sequence.
void write_shard_body(ByteWriter& w, const ShardData& s) {
  w.u32(s.shard_index);
  w.u32(s.rank_lo);
  w.u32(s.rank_hi);
  w.monotone_u64(widen(s.global_ids));
  w.zigzag_u64(widen(s.global_ranks));
  w.zigzag_u64(widen(s.global_levels));
  w.monotone_u64(s.edge_globals);
  write_frontier(w, s.frontier_in);
  write_frontier(w, s.frontier_out);
  // The shard's nodes and intra-shard edges reuse the whole-graph
  // encoding (with its own nested version header), so the two formats
  // cannot drift.
  w.u8_vec(cpg::serialize(s.graph));
}

Result<ShardData> deserialize_shard_body(std::span<const std::uint8_t> body,
                                         LoadCost* cost);

/// The codec frame behind the versioned header. Throws SerializeError
/// on truncation (callers sit inside a try like every other decode
/// path).
struct ShardFrame {
  ShardCodec codec = ShardCodec::kRaw;
  std::uint64_t decoded_size = 0;
};

Result<ShardFrame> parse_shard_frame(ByteReader& r) {
  ShardFrame frame;
  cpg::detail::check_header(r, kShardMagic, kShardFormatVersion, "CPG shard");
  const std::uint8_t codec_tag = r.u8();
  if (codec_tag > static_cast<std::uint8_t>(ShardCodec::kLz)) {
    return Status(StatusCode::kInvalidArgument,
                  "CPG shard: unknown codec tag " +
                      std::to_string(codec_tag));
  }
  frame.codec = static_cast<ShardCodec>(codec_tag);
  frame.decoded_size = r.u64();
  return frame;
}

}  // namespace

std::vector<std::uint8_t> serialize_shard(const ShardData& s,
                                          ShardCodec codec,
                                          std::uint64_t* decoded_bytes) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  cpg::detail::write_header(w, kShardMagic, kShardFormatVersion);
  w.u8(static_cast<std::uint8_t>(codec));
  // The payload is the file's final section: delimited by the file end
  // rather than a redundant length prefix (ByteReader::rest()).
  if (codec == ShardCodec::kLz) {
    std::vector<std::uint8_t> body;
    {
      ByteWriter body_writer(body);
      write_shard_body(body_writer, s);
    }
    if (decoded_bytes != nullptr) *decoded_bytes = body.size();
    w.u64(body.size());
    const std::vector<std::uint8_t> packed = snapshot::compress(body);
    out.insert(out.end(), packed.begin(), packed.end());
  } else {
    // Raw: serialize the body straight into the framed output (no
    // second full-body buffer) and patch the decoded-size field once
    // the length is known.
    w.u64(0);
    const std::size_t body_start = out.size();
    write_shard_body(w, s);
    const std::uint64_t body_size = out.size() - body_start;
    if (decoded_bytes != nullptr) *decoded_bytes = body_size;
    for (int i = 0; i < 8; ++i) {
      out[body_start - 8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(body_size >> (8 * i));
    }
  }
  return out;
}

namespace {

/// Decode + validate a frame's payload into the shard body, which
/// keeps the frame for check_shard (the one site that knows how each
/// codec stores the body).
Result<ShardData> decode_shard_payload(const ShardFrame& frame,
                                       std::span<const std::uint8_t> payload,
                                       LoadCost* cost) {
  const auto framed = [&](Result<ShardData> data) {
    if (data.ok()) {
      data.value().codec = frame.codec;
      data.value().decoded_bytes = frame.decoded_size;
    }
    return data;
  };
  if (cost != nullptr) cost->decoded_bytes = frame.decoded_size;
  if (frame.codec == ShardCodec::kRaw) {
    if (payload.size() != frame.decoded_size) {
      return Status(StatusCode::kInvalidArgument,
                    "CPG shard: raw body holds " +
                        std::to_string(payload.size()) +
                        " bytes but the frame declares " +
                        std::to_string(frame.decoded_size));
    }
    return framed(deserialize_shard_body(payload, cost));
  }
  LoadCost::Laps laps;
  auto body = snapshot::decompress_checked(payload);
  if (cost != nullptr) cost->decompress_us += laps.lap();
  if (!body.ok()) {
    // Preserve the integrity-vs-structure distinction: a checksum
    // mismatch inside the block stays kDataLoss.
    return Status(body.status().code() == StatusCode::kDataLoss
                      ? StatusCode::kDataLoss
                      : StatusCode::kInvalidArgument,
                  "CPG shard: corrupt compressed body: " +
                      body.status().message());
  }
  if (body->size() != frame.decoded_size) {
    return Status(StatusCode::kInvalidArgument,
                  "CPG shard: compressed body decodes to " +
                      std::to_string(body->size()) +
                      " bytes but the frame declares " +
                      std::to_string(frame.decoded_size));
  }
  return framed(deserialize_shard_body(body.value(), cost));
}

}  // namespace

Result<ShardData> deserialize_shard(const std::vector<std::uint8_t>& bytes,
                                    LoadCost* cost) {
  try {
    ByteReader r(bytes);
    const auto frame = parse_shard_frame(r);
    if (!frame.ok()) return frame.status();
    return decode_shard_payload(*frame, r.rest(), cost);
  } catch (const std::exception& e) {
    return Status(StatusCode::kInvalidArgument,
                  std::string("CPG shard: ") + e.what());
  }
}

Status check_shard(const Manifest& m, std::uint32_t index,
                   const ShardData& data) {
  const ShardInfo& info = m.shards[index];
  const auto differs = [](const char* what, std::uint64_t got,
                          std::uint64_t want) {
    return Status(StatusCode::kInvalidArgument,
                  std::string(what) + " is " + std::to_string(got) +
                      " but the manifest says " + std::to_string(want));
  };
  const auto out_of_bounds = [](const char* what) {
    return Status(StatusCode::kInvalidArgument,
                  std::string(what) + " exceeds the manifest's bounds");
  };
  // The store charges its memory budget with the manifest's decoded
  // size, so a frame that disagrees would corrupt the accounting, not
  // just the answer.
  if (data.codec != info.codec) {
    return differs("codec tag", static_cast<std::uint64_t>(data.codec),
                   static_cast<std::uint64_t>(info.codec));
  }
  if (data.decoded_bytes != info.decoded_bytes) {
    return differs("decoded size", data.decoded_bytes, info.decoded_bytes);
  }
  if (data.shard_index != index) {
    return differs("shard index", data.shard_index, index);
  }
  if (data.rank_lo != info.rank_lo || data.rank_hi != info.rank_hi) {
    return Status(StatusCode::kInvalidArgument,
                  "rank fence is [" + std::to_string(data.rank_lo) + ", " +
                      std::to_string(data.rank_hi) +
                      ") but the manifest says [" +
                      std::to_string(info.rank_lo) + ", " +
                      std::to_string(info.rank_hi) + ")");
  }
  // The store view concatenates the shards' page buckets unsorted, so
  // the global ranks must lie inside the fence and ascend in the order
  // of the shard graph's own ranks (a permutation of its local ids).
  std::vector<std::uint32_t> by_rank(data.global_ranks.size());
  for (cpg::NodeId local = 0; local < by_rank.size(); ++local) {
    by_rank[data.graph.rank(local)] = data.global_ranks[local];
  }
  for (std::size_t r = 0; r < by_rank.size(); ++r) {
    if (by_rank[r] < info.rank_lo || by_rank[r] >= info.rank_hi) {
      return Status(StatusCode::kInvalidArgument,
                    "global rank " + std::to_string(by_rank[r]) +
                        " lies outside the rank fence");
    }
    if (r > 0 && by_rank[r] <= by_rank[r - 1]) {
      return Status(StatusCode::kInvalidArgument,
                    "global ranks do not follow the shard's rank order");
    }
  }
  if (data.global_ids.size() != info.node_count) {
    return differs("node count", data.global_ids.size(), info.node_count);
  }
  if (data.edge_globals.size() != info.edge_count) {
    return differs("edge count", data.edge_globals.size(), info.edge_count);
  }
  if (data.frontier_in.size() + data.frontier_out.size() !=
      info.frontier_count) {
    return differs("frontier count",
                   data.frontier_in.size() + data.frontier_out.size(),
                   info.frontier_count);
  }
  // The page table addresses this shard's buckets by the page's
  // position in the manifest's set, so the sets must be identical.
  const auto pages = data.graph.pages();
  if (!std::equal(pages.begin(), pages.end(), info.pages.begin(),
                  info.pages.end())) {
    return Status(StatusCode::kInvalidArgument,
                  "page set differs from the manifest's");
  }
  for (const cpg::NodeId global : data.global_ids) {
    if (global >= m.total_nodes) return out_of_bounds("a global node id");
    if (global >= m.node_shard.size() || m.node_shard[global] != index) {
      return Status(StatusCode::kInvalidArgument,
                    "node " + std::to_string(global) +
                        " is in the file but the manifest routes it "
                        "elsewhere");
    }
  }
  for (const auto* frontier : {&data.frontier_in, &data.frontier_out}) {
    for (const FrontierEdge& e : *frontier) {
      if (e.from >= m.total_nodes || e.to >= m.total_nodes) {
        return out_of_bounds("a frontier edge endpoint");
      }
    }
  }
  for (const std::uint32_t level : data.global_levels) {
    if (level >= m.level_count) return out_of_bounds("a topological level");
  }
  for (const auto& node : data.graph.nodes()) {
    if (node.thread >= m.thread_count) return out_of_bounds("a thread id");
  }
  return Status::Ok();
}

namespace {

Result<ShardData> deserialize_shard_body(std::span<const std::uint8_t> body,
                                         LoadCost* cost) {
  try {
    LoadCost::Laps laps;
    ByteReader r(body);
    ShardData s;
    s.shard_index = r.u32();
    s.rank_lo = r.u32();
    s.rank_hi = r.u32();
    // Sidecars decode straight into their arrays (a value past 32 bits
    // cannot have come from the writer and is an error).
    r.monotone_into(s.global_ids, "global id");
    r.zigzag_into(s.global_ranks, "global rank");
    r.zigzag_into(s.global_levels, "global level");
    r.monotone_into(s.edge_globals, "edge index");
    s.frontier_in = read_frontier(r);
    s.frontier_out = read_frontier(r);
    // In-place view: the embedded graph is the dominant payload, and
    // every budget-driven cache miss decodes one -- no second copy.
    auto parts = cpg::deserialize_graph_parts(r.u8_view());
    if (!parts.ok()) return parts.status();
    if (cost != nullptr) cost->decode_us += laps.lap();
    auto graph = cpg::deserialize_build_graph(std::move(parts).value());
    if (!graph.ok()) return graph.status();
    s.graph = std::move(graph).value();
    if (cost != nullptr) cost->index_us += laps.lap();
    const std::size_t n = s.graph.nodes().size();
    if (s.global_ids.size() != n || s.global_ranks.size() != n ||
        s.global_levels.size() != n) {
      return Status(StatusCode::kInvalidArgument,
                    "CPG shard: sidecar arrays do not match the node count");
    }
    if (s.edge_globals.size() != s.graph.edges().size()) {
      return Status(StatusCode::kInvalidArgument,
                    "CPG shard: edge index sidecar does not match the edge "
                    "count");
    }
    // Structural invariants the lookup builders and the query layer
    // dereference without further checks -- a corrupt or foreign file
    // must die here as a typed error, not as UB downstream.
    for (std::size_t i = 1; i < s.global_ids.size(); ++i) {
      if (s.global_ids[i] <= s.global_ids[i - 1]) {
        return Status(StatusCode::kInvalidArgument,
                      "CPG shard: global id table is not strictly "
                      "ascending");
      }
    }
    const auto owns = [&](cpg::NodeId global) {
      return std::binary_search(s.global_ids.begin(), s.global_ids.end(),
                                global);
    };
    const auto check_frontier = [&](const std::vector<FrontierEdge>& edges,
                                    bool to_is_local,
                                    const char* what) -> Status {
      std::uint64_t prev_index = 0;
      bool first = true;
      for (const FrontierEdge& e : edges) {
        const cpg::NodeId local_end = to_is_local ? e.to : e.from;
        const cpg::NodeId remote_end = to_is_local ? e.from : e.to;
        if (!owns(local_end) || owns(remote_end)) {
          return Status(StatusCode::kInvalidArgument,
                        std::string("CPG shard: ") + what +
                            " edge endpoints do not match the shard's "
                            "node set");
        }
        if (!first && e.edge_index <= prev_index) {
          return Status(StatusCode::kInvalidArgument,
                        std::string("CPG shard: ") + what +
                            " edges are not in ascending edge-index order");
        }
        prev_index = e.edge_index;
        first = false;
      }
      return Status::Ok();
    };
    if (Status st = check_frontier(s.frontier_in, /*to_is_local=*/true,
                                   "frontier-in");
        !st.ok()) {
      return st;
    }
    if (Status st = check_frontier(s.frontier_out, /*to_is_local=*/false,
                                   "frontier-out");
        !st.ok()) {
      return st;
    }
    return s;
  } catch (const std::exception& e) {
    return Status(StatusCode::kInvalidArgument,
                  std::string("CPG shard: ") + e.what());
  }
}

}  // namespace

Result<std::vector<std::uint8_t>> read_file_bytes(const std::string& path) {
  if (util::failpoint_check("shard.read_file")) {
    return Status(StatusCode::kUnavailable,
                  "injected read failure: " + path);
  }
  // lint: allow(failpoint-seam) this is the read seam itself, guarded by the shard.read_file failpoint above
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status(StatusCode::kNotFound, "cannot open " + path);
  }
  const auto size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in) {
    // The file exists but the bytes did not arrive: a transient
    // condition (unlike kNotFound), so the store's retry policy may
    // try again.
    return Status(StatusCode::kUnavailable, "read failed: " + path);
  }
  return bytes;
}

Status write_file_bytes(const std::string& path,
                        const std::vector<std::uint8_t>& bytes) {
  std::size_t limit = bytes.size();
  bool torn = false;
  if (const auto action = util::failpoint_check("shard.write_file")) {
    if (*action == util::FailpointAction::kTornWrite) {
      // A crash mid-write: persist a prefix, skip the fsync, fail.
      torn = true;
      limit = bytes.size() / 2;
    } else {
      return Status(StatusCode::kInternal,
                    "injected write failure: " + path);
    }
  }
  // POSIX I/O rather than ofstream so the bytes can be fsynced: the
  // store's manifest-commit protocol orders shard data before the
  // manifest rename, which only holds if writes actually reach disk.
  // lint: allow(failpoint-seam) this is the write seam itself, guarded by the shard.write_file failpoint above
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status(StatusCode::kInternal, "cannot open " + path);
  }
  std::size_t off = 0;
  while (off < limit) {
    // lint: allow(failpoint-seam) the write seam itself (shard.write_file)
    const ssize_t n = ::write(fd, bytes.data() + off, limit - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status(StatusCode::kInternal, "write failed: " + path);
    }
    off += static_cast<std::size_t>(n);
  }
  if (torn) {
    ::close(fd);
    return Status(StatusCode::kInternal, "injected torn write: " + path);
  }
  // lint: allow(failpoint-seam) the write seam itself (shard.write_file)
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status(StatusCode::kInternal, "fsync failed: " + path);
  }
  if (::close(fd) != 0) {
    return Status(StatusCode::kInternal, "close failed: " + path);
  }
  return Status::Ok();
}

Status sync_directory(const std::string& dir) {
  if (util::failpoint_check("shard.sync_dir")) {
    return Status(StatusCode::kInternal,
                  "injected directory sync failure: " + dir);
  }
  // lint: allow(failpoint-seam) the directory-sync seam itself (shard.sync_dir)
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status(StatusCode::kInternal, "cannot open directory " + dir);
  }
  // lint: allow(failpoint-seam) the directory-sync seam itself (shard.sync_dir)
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status(StatusCode::kInternal, "fsync failed: " + dir);
  }
  return Status::Ok();
}

Status replace_file_bytes(const std::string& path,
                          const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  if (Status st = write_file_bytes(tmp, bytes); !st.ok()) {
    // Disk-full or fsync failure can leave a partial temp file; do
    // not strand it next to the store.
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return st;
  }
  if (util::failpoint_check("shard.replace_file")) {
    // A crash between the temp write and the rename: the temp file is
    // deliberately stranded (fsck knows how to sweep it) and the old
    // bytes stay committed.
    return Status(StatusCode::kInternal,
                  "injected replace failure: " + path);
  }
  std::error_code ec;
  // lint: allow(failpoint-seam) the atomic-replace seam itself, guarded by the shard.replace_file failpoint above
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    // Capture the rename failure before the cleanup can clear it.
    const std::string reason = ec.message();
    std::error_code remove_ec;
    std::filesystem::remove(tmp, remove_ec);
    return Status(StatusCode::kInternal,
                  "cannot replace " + path + ": " + reason);
  }
  // Make the rename itself durable; without this a power cut can
  // resurrect the old directory entry after the new bytes were
  // acknowledged.
  const auto parent = std::filesystem::path(path).parent_path();
  return sync_directory(parent.empty() ? "." : parent.string());
}

Result<Manifest> ShardReader::read_manifest(const std::string& dir) {
  auto bytes = read_file_bytes(dir + "/" + kManifestFileName);
  if (!bytes.ok()) return bytes.status();
  return deserialize_manifest(bytes.value());
}

Result<ShardData> ShardReader::read_shard(const std::string& dir,
                                          const ShardInfo& info,
                                          LoadCost* cost) {
  LoadCost::Laps laps;
  auto bytes = read_file_bytes(dir + "/" + info.file);
  if (!bytes.ok()) return bytes.status();
  if (cost != nullptr) {
    cost->encoded_bytes = bytes->size();
    cost->read_us += laps.lap();
  }
  if (bytes->size() != info.byte_size) {
    return Status(StatusCode::kInvalidArgument,
                  dir + "/" + info.file +
                      " does not match the manifest (file holds " +
                      std::to_string(bytes->size()) +
                      " bytes, manifest records " +
                      std::to_string(info.byte_size) + ")");
  }
  // Whole-file integrity: the one check that covers raw-codec bodies,
  // whose frames carry no checksum of their own.
  if (snapshot::stripe_hash(bytes.value()) != info.file_checksum) {
    return Status(StatusCode::kDataLoss,
                  dir + "/" + info.file +
                      ": file checksum does not match the manifest (the "
                      "shard bytes are damaged)");
  }
  if (cost != nullptr) cost->verify_us += laps.lap();
  return deserialize_shard(bytes.value(), cost);
}

}  // namespace inspector::shard
