// On-disk layout of a sharded CPG store.
//
// A store is a directory: one self-contained file per shard plus a
// MANIFEST.bin that routes queries. The planner (planner.h) cuts the
// captured history into contiguous happens-before-rank ranges, which
// makes the shard sequence a topological partition: every recorded
// edge either stays inside a shard or crosses from a lower-ranked
// shard to a higher-ranked one, never backward. Each shard file holds
//
//   - the shard's sub-computations as a local cpg::Graph (local node
//     ids 0..m-1, intra-shard edges only, own CSR + page inverted
//     index built at load), serialized with the versioned CPG format,
//   - sidecar arrays mapping local ids back to the global graph:
//     global node ids (ascending, so local id = position), global
//     hb-ranks, global topological levels, and the global edge index
//     of every intra-shard edge (analysis tie-breaks depend on it),
//   - the explicit cross-shard edge frontier: every edge entering
//     (frontier_in) or leaving (frontier_out) the shard, with global
//     endpoints and its global edge index.
//
// A shard file's body sits behind a small codec frame (codec tag +
// decoded size): stored raw or run through the checksummed LZ block
// codec (snapshot/compress.h) -- the paper compresses its provenance
// logs the same way and reports 6-37x (§VII-D, Fig. 9). Readers
// decompress transparently; a corrupt payload is a typed error.
//
// The manifest carries the routing tables -- per-shard rank and
// topological-level fences and each shard's exact page set (the page
// universe is their union) -- plus a node -> shard map, per-shard
// encoded/decoded sizes and codec tags, and precomputed whole-graph
// statistics, so page-local queries touch only the shards holding the
// page and a stats query touches none.
// Both file kinds open with the shared magic+version header
// (cpg/binary_io.h), and a build reads exactly its own generation of
// each: a stale, foreign or future file fails with a typed
// kInvalidArgument naming the version seen, never a misparsed length.
// After a format bump, re-export the store (`inspector_cli
// --shard-out`).
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cpg/graph.h"
#include "util/aligned.h"
#include "util/page_set.h"
#include "util/status.h"

namespace inspector::shard {

/// "CPGM" -- the manifest file. Version 1 was the uncompressed PR-4
/// layout; version 2 added the per-shard codec tag and decoded size;
/// version 3 added a whole-file FNV-1a checksum per shard entry (so
/// raw-codec bodies are integrity-checked, not just LZ ones) and a
/// trailing checksum over the manifest bytes themselves; version 4
/// replaces the stored page universe and the per-shard page fences
/// with each shard's exact page set; version 5 computes both checksums
/// with the word-wise snapshot::stripe_hash instead of FNV-1a.
inline constexpr std::uint32_t kManifestMagic = 0x4D475043;
inline constexpr std::uint32_t kManifestFormatVersion = 5;
/// "CPGS" -- one shard file. Version 1 stored the body raw; version 2
/// frames the body behind a codec tag + decoded size; version 3 packs
/// the sidecars and frontier as delta+varint sequences
/// (util/varint.h) before the codec frame, so the file shrinks twice:
/// once from the packing itself and again because the LZ codec sees a
/// lower-entropy stream; version 4 is an LZ block whose decoded-bytes
/// checksum is snapshot::stripe_hash instead of FNV-1a.
inline constexpr std::uint32_t kShardMagic = 0x53475043;
inline constexpr std::uint32_t kShardFormatVersion = 4;

inline constexpr const char* kManifestFileName = "MANIFEST.bin";

/// How a shard file's body (everything after the versioned header and
/// the codec frame) is stored on disk. The store decompresses
/// transparently at load; codecs may be mixed within one store (an
/// append can inherit or override the codec of the shards it rewrites).
enum class ShardCodec : std::uint8_t {
  kRaw = 0,  ///< body stored verbatim
  kLz = 1,   ///< body behind snapshot::compress (checksummed LZ block)
};

/// One recorded edge whose endpoints live in different shards.
struct FrontierEdge {
  std::uint64_t edge_index = 0;  ///< position in the global edge list
  cpg::NodeId from = cpg::kInvalidNode;  ///< global ids
  cpg::NodeId to = cpg::kInvalidNode;
  cpg::EdgeKind kind = cpg::EdgeKind::kControl;
  std::uint64_t object = 0;

  bool operator==(const FrontierEdge&) const = default;
};

/// Manifest entry for one shard: everything routing needs without
/// opening the file.
struct ShardInfo {
  std::string file;            ///< relative to the store directory
  std::uint32_t rank_lo = 0;   ///< hb-rank fence [rank_lo, rank_hi)
  std::uint32_t rank_hi = 0;
  std::uint64_t node_count = 0;
  std::uint64_t edge_count = 0;      ///< intra-shard edges
  std::uint64_t frontier_count = 0;  ///< in + out frontier edges
  std::uint32_t min_level = 0;  ///< global topological-level fence
  std::uint32_t max_level = 0;
  std::uint64_t byte_size = 0;     ///< encoded file size on disk
  std::uint64_t decoded_bytes = 0;  ///< body size once decoded (the
                                    ///< store's memory-budget unit)
  ShardCodec codec = ShardCodec::kRaw;
  /// snapshot::stripe_hash over the whole encoded file; readers verify
  /// it before decoding.
  std::uint64_t file_checksum = 0;
  /// Every page the shard's nodes touch, sorted: exactly its graph's
  /// pages(), so a page's position here is its local page index.
  PageSet pages;

  bool operator==(const ShardInfo&) const = default;
};

struct Manifest {
  std::uint32_t shard_count = 0;
  /// Bumped by every shard::append(). Rewritten shard files carry the
  /// generation in their names, so an append never overwrites a file
  /// the current manifest references -- a crash mid-append leaves the
  /// old manifest over the old, still-complete file set.
  std::uint64_t generation = 0;
  std::uint64_t total_nodes = 0;
  std::uint64_t total_edges = 0;
  std::uint64_t thread_count = 0;
  std::uint64_t level_count = 0;  ///< global topological levels
  cpg::GraphStats stats;          ///< whole-graph stats, precomputed
  /// The global page universe, sorted: the union of the shards' page
  /// sets. Not stored -- derived when the manifest is decoded or built.
  PageSet pages;
  std::vector<std::uint8_t> node_shard;  ///< global node id -> shard
  std::vector<ShardInfo> shards;

  bool operator==(const Manifest&) const = default;
};

/// Which shards hold each page, from the manifest alone: for a global
/// page index (a position in Manifest::pages), the holders in shard
/// order, each with the page's local index in that shard's page set --
/// the dense index of its graph's page buckets. A page query reaches
/// exactly these shards, with no fence test and no search.
class PageTable {
 public:
  struct Holder {
    std::uint32_t shard = 0;
    std::uint32_t local = 0;  ///< index in the shard's page set
  };

  explicit PageTable(const Manifest& m);

  [[nodiscard]] std::span<const Holder> holders(
      std::size_t page_index) const noexcept {
    return {holders_.data() + offsets_[page_index],
            holders_.data() + offsets_[page_index + 1]};
  }

 private:
  std::vector<std::uint32_t> offsets_;  ///< page index -> first holder
  std::vector<Holder> holders_;
};

/// Payload of one shard file, decoded.
///
/// The sidecars decode into cache-line-aligned structure-of-arrays
/// scratch (util/aligned.h): the hot query loops -- rank fences,
/// level-bucket walks, frontier expansion -- stride these arrays
/// linearly, so each lives contiguous and starts on its own line.
struct ShardData {
  std::uint32_t shard_index = 0;
  /// Store-wide shard count *at the time this file was written* --
  /// informational only. An incremental append can grow or shrink the
  /// store without rewriting kept files, so the manifest (not this
  /// field) is authoritative for the current count.
  std::uint32_t shard_count = 0;
  std::uint32_t rank_lo = 0;
  std::uint32_t rank_hi = 0;
  util::aligned_vector<cpg::NodeId> global_ids;  ///< local id -> global id,
                                                 ///< ascending
  util::aligned_vector<std::uint32_t> global_ranks;   ///< local id -> hb-rank
  util::aligned_vector<std::uint32_t> global_levels;  ///< local id -> level
  util::aligned_vector<std::uint64_t> edge_globals;  ///< local edge -> global
                                                     ///< index, ascending
  std::vector<FrontierEdge> frontier_in;   ///< ascending edge_index
  std::vector<FrontierEdge> frontier_out;  ///< ascending edge_index
  cpg::Graph graph;  ///< local nodes + intra-shard edges, indices built
  /// The codec frame the body was decoded from (set by
  /// deserialize_shard; serialize_shard takes the codec as an argument).
  ShardCodec codec = ShardCodec::kRaw;
  std::uint64_t decoded_bytes = 0;
};

/// Where one shard load's time went, with its sizes: what the store
/// annotates its shard_load span with. Each phase in microseconds.
struct LoadCost {
  std::uint64_t encoded_bytes = 0;
  std::uint64_t decoded_bytes = 0;
  std::uint64_t read_us = 0;        ///< file read
  std::uint64_t verify_us = 0;      ///< whole-file checksum, manifest check
  std::uint64_t decompress_us = 0;  ///< LZ decode + decoded-bytes checksum
  std::uint64_t decode_us = 0;      ///< sidecars, frontier, node records
  std::uint64_t index_us = 0;       ///< graph index + the store's lookups

  /// The phase clock: each lap() is the microseconds since the
  /// previous lap (or since construction).
  class Laps {
   public:
    std::uint64_t lap() {
      const auto now = std::chrono::steady_clock::now();
      const auto us =
          std::chrono::duration_cast<std::chrono::microseconds>(now - last_)
              .count();
      last_ = now;
      return static_cast<std::uint64_t>(us);
    }

   private:
    std::chrono::steady_clock::time_point last_ =
        std::chrono::steady_clock::now();
  };
};

// --- encoding ---------------------------------------------------------

/// Encode the manifest, closed by a checksum over its own bytes.
[[nodiscard]] std::vector<std::uint8_t> serialize_manifest(const Manifest& m);
/// Decode + validate a manifest. One whose trailing self-checksum does
/// not match its bytes is kDataLoss; structural damage (a foreign
/// magic or another format version included) is kInvalidArgument.
[[nodiscard]] Result<Manifest> deserialize_manifest(
    const std::vector<std::uint8_t>& bytes);

/// Encode one shard file: versioned header, codec tag, decoded body
/// size, then the (possibly compressed) body. `decoded_bytes`, when
/// given, receives the body size before the codec ran -- the number the
/// manifest records and the store charges its memory budget with.
[[nodiscard]] std::vector<std::uint8_t> serialize_shard(
    const ShardData& s, ShardCodec codec = ShardCodec::kRaw,
    std::uint64_t* decoded_bytes = nullptr);
/// Decode + validate one shard file (transparently decompressing a
/// kLz body). A corrupt compressed payload -- truncated, bad offsets,
/// checksum mismatch -- comes back as kInvalidArgument, never as an
/// exception. `cost`, when given, receives the decompress, decode and
/// index-build times and the decoded size.
[[nodiscard]] Result<ShardData> deserialize_shard(
    const std::vector<std::uint8_t>& bytes, LoadCost* cost = nullptr);

/// A decoded shard against entry `index` of the manifest that
/// references it: the one check both the store's load path and fsck
/// run. The file must be the one this manifest wrote (codec frame,
/// shard index, rank fence, node/edge/frontier counts and node routing
/// agree), its graph's page set must be exactly the manifest's, since
/// the page table addresses its buckets by local page index, every
/// global id, frontier endpoint, topological level and thread it
/// carries must lie inside the manifest's universe, since the query
/// layer indexes dense arrays with them, and its global ranks must lie
/// inside its rank fence in the order of the shard graph's own ranks,
/// since the store view chains buckets by that. kInvalidArgument
/// naming the first disagreement; Ok when the shard belongs.
[[nodiscard]] Status check_shard(const Manifest& m, std::uint32_t index,
                                 const ShardData& data);

// --- files ------------------------------------------------------------

/// Read a whole file; kNotFound when it cannot be opened, kUnavailable
/// when the open succeeded but the read itself failed (a transient
/// condition retry policies may act on). Every file primitive here is
/// a failpoint seam (util/failpoint.h): "shard.read_file",
/// "shard.write_file", "shard.sync_dir", "shard.replace_file".
[[nodiscard]] Result<std::vector<std::uint8_t>> read_file_bytes(
    const std::string& path);
/// Write + fsync a whole file (the data is on disk when this returns
/// Ok; the directory entry is not -- see sync_directory).
[[nodiscard]] Status write_file_bytes(const std::string& path,
                                      const std::vector<std::uint8_t>& bytes);
/// fsync a directory, making its entries (new files, renames) durable.
[[nodiscard]] Status sync_directory(const std::string& dir);
/// Replace `path` atomically and durably: write + fsync a sibling
/// temp file, rename over `path`, fsync the directory. A crash or
/// power cut at any point leaves either the old bytes or the new,
/// never a truncated file. The form every manifest commit goes
/// through -- losing MANIFEST.bin loses the store.
[[nodiscard]] Status replace_file_bytes(
    const std::string& path, const std::vector<std::uint8_t>& bytes);

/// Loads the pieces of a store directory. The heavier ShardStore
/// (store.h) adds caching and the memory budget on top.
class ShardReader {
 public:
  [[nodiscard]] static Result<Manifest> read_manifest(const std::string& dir);
  /// Read and decode one shard file, after checking its size and
  /// whole-file checksum against `info`. check_shard() then ties the
  /// payload to the rest of the manifest. `cost`, when given, receives
  /// this attempt's sizes and adds its phase times (read, verify and
  /// the deserialize_shard() phases).
  [[nodiscard]] static Result<ShardData> read_shard(const std::string& dir,
                                                    const ShardInfo& info,
                                                    LoadCost* cost = nullptr);
};

}  // namespace inspector::shard
