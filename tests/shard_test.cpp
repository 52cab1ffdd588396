// Unit tests for the sharded store: format round-trips (raw and
// LZ-compressed payloads), versioned header errors, corrupt-payload
// typed statuses, partition invariants, incremental append, the
// store's decoded-byte LRU budget with honest pinned accounting, the
// manifest's page table, and the resident store's pin-once contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cpg/graph.h"
#include "cpg/recorder.h"
#include "cpg/serialize.h"
#include "history_fixtures.h"
#include "query/engine.h"
#include "query/wire.h"
#include "shard/engine.h"
#include "shard/format.h"
#include "shard/planner.h"
#include "shard/store.h"
#include "snapshot/compress.h"
#include "util/parallel.h"

namespace {

using namespace inspector;
namespace fixtures = inspector::fixtures;

std::string temp_store(const std::string& name) {
  // Fresh every run: TempDir persists across test invocations, and a
  // leftover committed store changes write_store's behavior (it
  // adopts the next generation rather than truncating live files).
  const std::string dir = ::testing::TempDir() + "shard_unit_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(WriteStore, RejectsBadShardCounts) {
  const cpg::Graph graph = fixtures::random_history(1);
  const std::string dir = temp_store("bad_counts");
  for (const std::uint32_t k : {0u, 256u, 1000u}) {
    const auto written =
        shard::write_store(graph, dir, shard::PlanOptions{k});
    ASSERT_FALSE(written.ok()) << k;
    EXPECT_EQ(written.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WriteStore, RankFencesPartitionEveryNode) {
  const cpg::Graph graph = fixtures::random_history(2);
  const std::string dir = temp_store("rank_fences");
  const auto m = shard::write_store(graph, dir, shard::PlanOptions{5});
  ASSERT_TRUE(m.ok()) << m.status().message();
  ASSERT_EQ(m->shards.size(), 5u);
  ASSERT_EQ(m->node_shard.size(), graph.nodes().size());
  // The fences tile [0, node count) in shard order.
  EXPECT_EQ(m->shards.front().rank_lo, 0u);
  EXPECT_EQ(m->shards.back().rank_hi, graph.nodes().size());
  for (std::uint32_t s = 1; s < m->shard_count; ++s) {
    EXPECT_EQ(m->shards[s].rank_lo, m->shards[s - 1].rank_hi);
  }
  std::vector<std::uint64_t> assigned(m->shard_count, 0);
  for (cpg::NodeId id = 0; id < graph.nodes().size(); ++id) {
    const shard::ShardInfo& info = m->shards[m->node_shard[id]];
    EXPECT_GE(graph.rank(id), info.rank_lo);
    EXPECT_LT(graph.rank(id), info.rank_hi);
    ++assigned[m->node_shard[id]];
  }
  for (std::uint32_t s = 0; s < m->shard_count; ++s) {
    EXPECT_EQ(assigned[s], m->shards[s].node_count) << "shard " << s;
    // Within a shard, local order is ascending global id.
    const auto data = shard::ShardReader::read_shard(dir, m->shards[s]);
    ASSERT_TRUE(data.ok()) << data.status().message();
    EXPECT_TRUE(std::is_sorted(data->global_ids.begin(),
                               data->global_ids.end()));
  }
}

TEST(ShardFormat, ManifestRoundTrips) {
  const cpg::Graph graph = fixtures::random_history(3);
  const std::string dir = temp_store("manifest_roundtrip");
  const auto written = shard::write_store(graph, dir, shard::PlanOptions{3});
  ASSERT_TRUE(written.ok()) << written.status().message();
  const auto read = shard::ShardReader::read_manifest(dir);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(*read, *written);
  EXPECT_EQ(read->stats, graph.stats());
  const auto universe = graph.pages();
  EXPECT_TRUE(std::equal(read->pages.begin(), read->pages.end(),
                         universe.begin(), universe.end()));
}

TEST(ShardFormat, PageTableNamesExactlyTheHoldingShards) {
  const cpg::Graph graph = fixtures::dense_history(4);
  const std::string dir = temp_store("page_table");
  const auto m = shard::write_store(graph, dir, shard::PlanOptions{5});
  ASSERT_TRUE(m.ok()) << m.status().message();
  const auto universe = graph.pages();
  ASSERT_TRUE(std::equal(m->pages.begin(), m->pages.end(), universe.begin(),
                         universe.end()));
  const shard::PageTable table(*m);
  for (std::size_t idx = 0; idx < m->pages.size(); ++idx) {
    const std::uint64_t page = m->pages[idx];
    std::vector<std::uint32_t> expected;
    for (std::uint32_t s = 0; s < m->shard_count; ++s) {
      if (std::binary_search(m->shards[s].pages.begin(),
                             m->shards[s].pages.end(), page)) {
        expected.push_back(s);
      }
    }
    const auto holders = table.holders(idx);
    ASSERT_EQ(holders.size(), expected.size()) << "page " << page;
    for (std::size_t k = 0; k < holders.size(); ++k) {
      EXPECT_EQ(holders[k].shard, expected[k]);
      EXPECT_EQ(m->shards[holders[k].shard].pages[holders[k].local], page);
    }
  }
}

TEST(ShardFormat, ManifestPageSetsAreTypedErrorsWhenMalformed) {
  const cpg::Graph graph = fixtures::random_history(5);
  const std::string dir = temp_store("manifest_page_sets");
  const auto written = shard::write_store(graph, dir, shard::PlanOptions{2});
  ASSERT_TRUE(written.ok()) << written.status().message();
  // The last shard's page set is the last field before the 8-byte
  // checksum trailer; with the set empty it is the one count byte 0.
  shard::Manifest m = written.value();
  m.shards.back().pages.clear();
  const auto valid = shard::serialize_manifest(m);
  ASSERT_EQ(valid[valid.size() - 9], 0u);
  const auto with_page_set = [&](std::vector<std::uint8_t> set) {
    std::vector<std::uint8_t> bytes(valid.begin(), valid.end() - 9);
    bytes.insert(bytes.end(), set.begin(), set.end());
    const std::uint64_t sum = snapshot::stripe_hash(bytes);
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));
    }
    return shard::deserialize_manifest(bytes);
  };
  ASSERT_TRUE(with_page_set({0}).ok());
  ASSERT_TRUE(with_page_set({2, 5, 0}).ok());  // pages 5 and 6
  // Two pages that do not ascend: u64 max, then a delta past it.
  std::vector<std::uint8_t> descending = {2};
  for (int i = 0; i < 9; ++i) descending.push_back(0xFF);
  descending.push_back(0x01);
  descending.push_back(0x00);
  // A count that runs past the end of the file.
  for (const auto& set : {descending, std::vector<std::uint8_t>{0x7F, 1}}) {
    const auto decoded = with_page_set(set);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << decoded.status().message();
  }
}

TEST(ShardFormat, ShardFilesRoundTripAndCoverTheGraph) {
  const cpg::Graph graph = fixtures::random_history(4);
  const std::string dir = temp_store("shard_roundtrip");
  const auto manifest = shard::write_store(graph, dir, shard::PlanOptions{4});
  ASSERT_TRUE(manifest.ok()) << manifest.status().message();
  std::size_t nodes_seen = 0;
  std::size_t intra_edges = 0;
  std::size_t frontier_in = 0;
  std::size_t frontier_out = 0;
  for (const auto& info : manifest->shards) {
    const auto data = shard::ShardReader::read_shard(dir, info);
    ASSERT_TRUE(data.ok()) << data.status().message();
    nodes_seen += data->global_ids.size();
    intra_edges += data->edge_globals.size();
    frontier_in += data->frontier_in.size();
    frontier_out += data->frontier_out.size();
    for (std::size_t local = 0; local < data->global_ids.size(); ++local) {
      const cpg::NodeId gid = data->global_ids[local];
      EXPECT_EQ(data->global_ranks[local], graph.rank(gid));
      // The shard keeps the node payload verbatim (modulo local id).
      EXPECT_EQ(data->graph.nodes()[local].clock, graph.node(gid).clock);
      EXPECT_EQ(data->graph.nodes()[local].read_set, graph.node(gid).read_set);
    }
  }
  // Every node once; every edge exactly once as intra or frontier
  // (each frontier edge is stored in both endpoint shards).
  EXPECT_EQ(nodes_seen, graph.nodes().size());
  EXPECT_EQ(frontier_in, frontier_out);
  EXPECT_EQ(intra_edges + frontier_in, graph.edges().size());
}

TEST(ShardFormat, WrongVersionAndMagicAreTypedErrors) {
  const cpg::Graph graph = fixtures::random_history(5);
  const std::string dir = temp_store("version_check");
  const auto manifest = shard::write_store(graph, dir, shard::PlanOptions{2});
  ASSERT_TRUE(manifest.ok()) << manifest.status().message();

  auto bytes = shard::read_file_bytes(dir + "/" + shard::kManifestFileName);
  ASSERT_TRUE(bytes.ok());
  // Corrupt the version field (bytes 4..7): garbage, or the previous
  // generation, which this build no longer reads.
  for (const std::uint8_t version : {0x77, 2}) {
    auto wrong_version = bytes.value();
    wrong_version[4] = version;
    const auto version_error = shard::deserialize_manifest(wrong_version);
    ASSERT_FALSE(version_error.ok());
    EXPECT_EQ(version_error.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(version_error.status().message().find(
                  "format version " + std::to_string(version) + " "),
              std::string::npos)
        << version_error.status().message();
  }
  // Corrupt the magic.
  auto wrong_magic = bytes.value();
  wrong_magic[0] ^= 0xFF;
  const auto magic_error = shard::deserialize_manifest(wrong_magic);
  ASSERT_FALSE(magic_error.ok());
  EXPECT_NE(magic_error.status().message().find("bad magic"),
            std::string::npos)
      << magic_error.status().message();

  // Same discipline for a shard file.
  auto shard_bytes =
      shard::read_file_bytes(dir + "/" + manifest->shards[0].file);
  ASSERT_TRUE(shard_bytes.ok());
  for (const std::uint8_t version : {0x63, 2}) {
    auto stale = shard_bytes.value();
    stale[4] = version;
    const auto stale_error = shard::deserialize_shard(stale);
    ASSERT_FALSE(stale_error.ok());
    EXPECT_EQ(stale_error.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(stale_error.status().message().find(
                  "format version " + std::to_string(version) + " "),
              std::string::npos)
        << stale_error.status().message();
  }
}

TEST(ShardFormat, CorruptFrontierEndpointsAreTypedErrors) {
  // A shard whose frontier edges reference nodes the shard does not
  // own (bit flip, or files mixed from two stores) must fail decoding
  // with a typed error -- the lookup builders dereference endpoint
  // ids without rechecking.
  const cpg::Graph graph = fixtures::random_history(8);
  const std::string dir = temp_store("corrupt_frontier");
  const auto manifest = shard::write_store(graph, dir, shard::PlanOptions{3});
  ASSERT_TRUE(manifest.ok()) << manifest.status().message();
  // Find a shard with at least one frontier edge and swap its in/out
  // lists' roles by rewriting one endpoint to a foreign node id.
  for (const auto& info : manifest->shards) {
    if (info.frontier_count == 0) continue;
    auto data = shard::ShardReader::read_shard(dir, info);
    ASSERT_TRUE(data.ok());
    if (data->frontier_in.empty()) continue;
    auto corrupt = std::move(data).value();
    // Point the local endpoint at a node this shard cannot own.
    corrupt.frontier_in[0].to = corrupt.frontier_in[0].from;
    const auto reparsed =
        shard::deserialize_shard(shard::serialize_shard(corrupt));
    ASSERT_FALSE(reparsed.ok());
    EXPECT_EQ(reparsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(reparsed.status().message().find("endpoints"),
              std::string::npos)
        << reparsed.status().message();
    return;
  }
  GTEST_SKIP() << "history produced no cross-shard edges";
}

TEST(ShardFormat, UnknownEdgeKindsAreTypedErrors) {
  // Every recorded edge of the history carries a kind byte no writer
  // emits. The store writes (the writer does not judge kinds), but the
  // frontier decoder and the embedded graph decoder reject the byte,
  // so every shard load is a typed quarantine instead of a graph whose
  // edges match no kind.
  const cpg::Graph good = fixtures::random_history(8);
  auto edges = good.edges();
  ASSERT_FALSE(edges.empty());
  for (cpg::Edge& e : edges) e.kind = static_cast<cpg::EdgeKind>(7);
  const cpg::Graph bad(good.nodes(), edges, good.schedule());
  const std::string dir = temp_store("unknown_edge_kind");
  const auto manifest = shard::write_store(bad, dir, shard::PlanOptions{3});
  ASSERT_TRUE(manifest.ok()) << manifest.status().message();

  bool saw_frontier = false;
  for (const auto& info : manifest->shards) {
    const auto read = shard::ShardReader::read_shard(dir, info);
    ASSERT_FALSE(read.ok()) << info.file;
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(read.status().message().find("unknown "), std::string::npos)
        << read.status().message();
    saw_frontier = saw_frontier || info.frontier_count > 0;
  }
  EXPECT_TRUE(saw_frontier) << "history produced no cross-shard edges";

  auto store = shard::ShardStore::open(dir);
  ASSERT_TRUE(store.ok()) << store.status().message();
  for (std::uint32_t s = 0; s < manifest->shard_count; ++s) {
    const auto loaded = store.value()->load(s);
    ASSERT_FALSE(loaded.ok()) << "shard " << s;
    EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(loaded.status().message().find("quarantined"),
              std::string::npos)
        << loaded.status().message();
  }

  // The frontier decoder alone: a valid shard with one frontier kind
  // byte out of range.
  const std::string good_dir = temp_store("unknown_frontier_kind");
  const auto good_manifest =
      shard::write_store(good, good_dir, shard::PlanOptions{3});
  ASSERT_TRUE(good_manifest.ok()) << good_manifest.status().message();
  for (const auto& info : good_manifest->shards) {
    auto data = shard::ShardReader::read_shard(good_dir, info);
    ASSERT_TRUE(data.ok()) << data.status().message();
    if (data->frontier_out.empty()) continue;
    auto corrupt = std::move(data).value();
    corrupt.frontier_out[0].kind = static_cast<cpg::EdgeKind>(7);
    const auto reparsed =
        shard::deserialize_shard(shard::serialize_shard(corrupt));
    ASSERT_FALSE(reparsed.ok());
    EXPECT_EQ(reparsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(reparsed.status().message().find("unknown frontier edge kind"),
              std::string::npos)
        << reparsed.status().message();
    return;
  }
  FAIL() << "history produced no cross-shard edges";
}

TEST(ShardStore, MixedStoreFilesAreRejectedAtLoad) {
  // Two stores sharing file names: swapping a shard file between them
  // must be caught by the manifest cross-check at load, not served.
  const std::string dir_a = temp_store("mixed_a");
  const std::string dir_b = temp_store("mixed_b");
  ASSERT_TRUE(shard::write_store(fixtures::random_history(9), dir_a,
                                 shard::PlanOptions{2})
                  .ok());
  ASSERT_TRUE(shard::write_store(fixtures::dense_history(4), dir_b,
                                 shard::PlanOptions{2})
                  .ok());
  const auto stolen = shard::read_file_bytes(dir_b + "/shard-001.bin");
  ASSERT_TRUE(stolen.ok());
  ASSERT_TRUE(
      shard::write_file_bytes(dir_a + "/shard-001.bin", stolen.value()).ok());
  auto store = shard::ShardStore::open(dir_a);
  ASSERT_TRUE(store.ok());
  // The load-time cross-check quarantines the foreign file: the typed
  // kUnavailable wrap names the shard and embeds the terminal cause.
  const auto loaded = store.value()->load(1);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(loaded.status().message().find("quarantined"), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("does not match the manifest"),
            std::string::npos)
      << loaded.status().message();
}

TEST(ShardStore, OpenFailsCleanlyOnMissingDirectory) {
  const auto store = shard::ShardStore::open(temp_store("does_not_exist"));
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kNotFound);
}

TEST(ShardStore, BudgetEvictsLeastRecentlyUsed) {
  const cpg::Graph graph = fixtures::dense_history(2);
  const std::string dir = temp_store("lru");
  const auto manifest = shard::write_store(graph, dir, shard::PlanOptions{4});
  ASSERT_TRUE(manifest.ok()) << manifest.status().message();
  std::uint64_t max_shard = 0;
  for (const auto& info : manifest->shards) {
    max_shard = std::max(max_shard, info.decoded_bytes);
  }
  shard::StoreOptions options;
  options.memory_budget_bytes = max_shard;  // room for ~one shard
  auto opened = shard::ShardStore::open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  auto store = opened.value();

  ASSERT_TRUE(store->load(0).ok());
  ASSERT_TRUE(store->load(1).ok());  // evicts shard 0
  auto stats = store->stats();
  EXPECT_EQ(stats.loads, 2u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.resident_bytes, options.memory_budget_bytes);

  ASSERT_TRUE(store->load(1).ok());  // hit
  EXPECT_EQ(store->stats().hits, 1u);
  ASSERT_TRUE(store->load(0).ok());  // miss again: it was evicted
  EXPECT_EQ(store->stats().loads, 3u);
  EXPECT_LE(store->stats().peak_cache_bytes,
            std::max(options.memory_budget_bytes, max_shard));

  // A pinned shard survives its own eviction.
  const auto pinned = store->load(2);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(store->load(3).ok());
  EXPECT_FALSE(pinned.value()->data.global_ids.empty());
}

TEST(ShardStore, PeakResidentCountsPinnedEvictions) {
  // An evicted-but-pinned shard is still memory: the honest peak must
  // include it, even though the cache already dropped its bytes.
  const cpg::Graph graph = fixtures::dense_history(2);
  const std::string dir = temp_store("pinned_peak");
  const auto manifest = shard::write_store(graph, dir, shard::PlanOptions{4});
  ASSERT_TRUE(manifest.ok()) << manifest.status().message();
  std::uint64_t max_shard = 0;
  for (const auto& info : manifest->shards) {
    max_shard = std::max(max_shard, info.decoded_bytes);
  }
  shard::StoreOptions options;
  options.memory_budget_bytes = max_shard;  // one shard at a time
  auto opened = shard::ShardStore::open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  auto store = opened.value();

  {
    const auto pinned = store->load(0);
    ASSERT_TRUE(pinned.ok());
    ASSERT_TRUE(store->load(1).ok());  // evicts shard 0, which stays pinned
    const auto stats = store->stats();
    EXPECT_GE(stats.evictions, 1u);
    EXPECT_EQ(stats.pinned_bytes, pinned.value()->decoded_bytes);
    EXPECT_GT(stats.pinned_bytes, 0u);
    EXPECT_GE(stats.peak_resident_bytes,
              stats.resident_bytes + pinned.value()->decoded_bytes);
    // Cache accounting still respects the budget even while the pin
    // holds extra memory.
    EXPECT_LE(stats.resident_bytes, options.memory_budget_bytes);
    EXPECT_LE(stats.peak_cache_bytes,
              std::max(options.memory_budget_bytes, max_shard));
  }
  // Dropping the pin drains the pinned tally.
  EXPECT_EQ(store->stats().pinned_bytes, 0u);
}

TEST(ShardStore, UnlimitedBudgetNeverEvicts) {
  const cpg::Graph graph = fixtures::random_history(6);
  const std::string dir = temp_store("unlimited");
  ASSERT_TRUE(shard::write_store(graph, dir, shard::PlanOptions{3}).ok());
  auto store = shard::ShardStore::open(dir);
  ASSERT_TRUE(store.ok());
  for (std::uint32_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(store.value()->load(s).ok());
  }
  const auto stats = store.value()->stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_bytes, stats.total_decoded_bytes);
  EXPECT_EQ(stats.peak_resident_bytes, stats.total_decoded_bytes);
  EXPECT_EQ(stats.pinned_bytes, 0u);
}

TEST(ShardFormat, CompressedShardsRoundTrip) {
  const cpg::Graph graph = fixtures::dense_history(5);
  const std::string raw_dir = temp_store("codec_raw");
  const std::string lz_dir = temp_store("codec_lz");
  const auto raw = shard::write_store(graph, raw_dir, shard::PlanOptions{3});
  const auto lz = shard::write_store(graph, lz_dir, shard::PlanOptions{3},
                                     shard::ShardCodec::kLz);
  ASSERT_TRUE(raw.ok()) << raw.status().message();
  ASSERT_TRUE(lz.ok()) << lz.status().message();
  std::uint64_t encoded = 0;
  std::uint64_t decoded = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    const auto& info = lz->shards[s];
    EXPECT_EQ(info.codec, shard::ShardCodec::kLz);
    // Identical decoded body, smaller file.
    EXPECT_EQ(info.decoded_bytes, raw->shards[s].decoded_bytes);
    EXPECT_LT(info.byte_size, raw->shards[s].byte_size);
    encoded += info.byte_size;
    decoded += info.decoded_bytes;
    const auto from_raw = shard::ShardReader::read_shard(raw_dir,
                                                         raw->shards[s]);
    const auto from_lz = shard::ShardReader::read_shard(lz_dir, info);
    ASSERT_TRUE(from_raw.ok()) << from_raw.status().message();
    ASSERT_TRUE(from_lz.ok()) << from_lz.status().message();
    // The decoded payloads are the same shard, field for field.
    EXPECT_EQ(from_lz->global_ids, from_raw->global_ids);
    EXPECT_EQ(from_lz->global_ranks, from_raw->global_ranks);
    EXPECT_EQ(from_lz->edge_globals, from_raw->edge_globals);
    EXPECT_EQ(from_lz->frontier_in, from_raw->frontier_in);
    EXPECT_EQ(from_lz->frontier_out, from_raw->frontier_out);
    EXPECT_EQ(from_lz->graph.stats(), from_raw->graph.stats());
  }
  EXPECT_GT(inspector::snapshot::compression_ratio(decoded, encoded), 1.5)
      << "CPG shard payloads must actually compress";
}

/// A phase-regular barrier-round history: every round, each thread
/// writes its own slice of `pages` pages and reads its neighbour's.
/// Unlike fixtures::barrier_history, whose random page sets make the
/// compression ratio depend on the seed, this shape is fixed.
cpg::Graph slice_exchange_history(std::uint32_t threads, std::uint32_t rounds,
                                  std::uint64_t pages) {
  const auto barrier = sync::make_object_id(sync::ObjectKind::kBarrier, 1);
  cpg::Recorder rec;
  for (std::uint32_t t = 0; t < threads; ++t) rec.thread_started(t, t);
  for (std::uint32_t r = 0; r < rounds; ++r) {
    for (std::uint32_t t = 0; t < threads; ++t) {
      const std::uint64_t neighbour = (t + 1) % threads;
      PageSet reads;
      PageSet writes;
      for (std::uint64_t p = 0; p < pages; ++p) {
        writes.push_back(t * pages + p);
        reads.push_back(neighbour * pages + p);
      }
      rec.end_subcomputation(t, std::move(reads), std::move(writes),
                             {sync::SyncEventKind::kBarrierWait, barrier});
      rec.on_release(t, barrier);
    }
    for (std::uint32_t t = 0; t < threads; ++t) rec.on_acquire(t, barrier);
  }
  for (std::uint32_t t = 0; t < threads; ++t) rec.thread_exiting(t, {}, {});
  return std::move(rec).finalize();
}

TEST(ShardFormat, LzStoresCompressAtLeastTwofold) {
  // The paper reports 6-37x on PT logs (Fig. 9); CPG shard bodies are
  // structured binary, so 2x is the floor at every shard count.
  const cpg::Graph graph = slice_exchange_history(8, 16, 12);
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    const std::string dir = temp_store("lz_ratio_" + std::to_string(shards));
    const auto manifest = shard::write_store(
        graph, dir, shard::PlanOptions{shards}, shard::ShardCodec::kLz);
    ASSERT_TRUE(manifest.ok()) << manifest.status().message();
    std::uint64_t encoded = 0;
    std::uint64_t decoded = 0;
    for (const shard::ShardInfo& info : manifest->shards) {
      encoded += info.byte_size;
      decoded += info.decoded_bytes;
    }
    EXPECT_GE(inspector::snapshot::compression_ratio(decoded, encoded), 2.0)
        << shards << " shards";
  }
}

TEST(ShardFormat, CorruptCompressedPayloadIsTypedStatus) {
  // A bit flip inside a compressed body must surface as a typed
  // Status from the reader -- never an exception escaping toward the
  // query boundary.
  const cpg::Graph graph = fixtures::random_history(11);
  const std::string dir = temp_store("corrupt_lz");
  const auto manifest = shard::write_store(graph, dir, shard::PlanOptions{2},
                                           shard::ShardCodec::kLz);
  ASSERT_TRUE(manifest.ok()) << manifest.status().message();
  auto bytes = shard::read_file_bytes(dir + "/" + manifest->shards[0].file);
  ASSERT_TRUE(bytes.ok());
  auto corrupt = bytes.value();
  corrupt[corrupt.size() / 2] ^= 0x40;
  ASSERT_TRUE(
      shard::write_file_bytes(dir + "/" + manifest->shards[0].file, corrupt)
          .ok());
  auto store = shard::ShardStore::open(dir);
  ASSERT_TRUE(store.ok());
  // The damage is caught by the manifest's whole-file checksum before
  // the body even decodes, and the shard is quarantined: kUnavailable
  // wrapping a kDataLoss cause.
  const auto loaded = store.value()->load(0);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(loaded.status().message().find("data_loss"), std::string::npos)
      << loaded.status().message();

  // Truncation too: chop the compressed payload.
  auto truncated = bytes.value();
  truncated.resize(truncated.size() - 7);
  const auto reparsed = shard::deserialize_shard(truncated);
  ASSERT_FALSE(reparsed.ok());
  EXPECT_EQ(reparsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardAppend, ExtendsAStoreIncrementally) {
  const cpg::Graph full = fixtures::barrier_history(3, 12);
  const auto prefix = shard::rank_prefix(
      full, static_cast<std::uint32_t>(full.nodes().size() * 6 / 10));
  ASSERT_TRUE(prefix.ok()) << prefix.status().message();
  ASSERT_LT(prefix->nodes().size(), full.nodes().size());
  ASSERT_GT(prefix->nodes().size(), 0u);

  const std::string dir = temp_store("append_incremental");
  const auto base = shard::write_store(*prefix, dir, shard::PlanOptions{4});
  ASSERT_TRUE(base.ok()) << base.status().message();
  // Snapshot the kept files' bytes to prove append leaves them alone.
  std::vector<std::vector<std::uint8_t>> before;
  for (const auto& info : base->shards) {
    auto bytes = shard::read_file_bytes(dir + "/" + info.file);
    ASSERT_TRUE(bytes.ok());
    before.push_back(std::move(bytes).value());
  }

  const auto appended = shard::append(dir, full);
  ASSERT_TRUE(appended.ok()) << appended.status().message();
  EXPECT_GT(appended->shards_kept, 0u)
      << "a barrier-round suffix must leave the early shards untouched";
  EXPECT_GT(appended->shards_rewritten, 0u);
  const auto& manifest = appended->manifest;
  EXPECT_EQ(manifest.total_nodes, full.nodes().size());
  EXPECT_EQ(manifest.total_edges, full.edges().size());
  EXPECT_EQ(manifest.stats, full.stats());
  // Rewritten shards land under generation-suffixed names (crash
  // safety: nothing the old manifest referenced was overwritten), and
  // the superseded files are gone after the manifest committed.
  EXPECT_EQ(manifest.generation, base->generation + 1);
  const std::string gen_tag =
      ".g" + std::to_string(manifest.generation) + ".";
  for (std::uint32_t j = appended->shards_kept; j < manifest.shard_count;
       ++j) {
    EXPECT_NE(manifest.shards[j].file.find(gen_tag), std::string::npos)
        << manifest.shards[j].file;
  }
  for (std::uint32_t j = appended->shards_kept; j < base->shard_count; ++j) {
    EXPECT_FALSE(
        shard::read_file_bytes(dir + "/" + base->shards[j].file).ok())
        << "superseded file " << base->shards[j].file << " not removed";
  }
  for (std::uint32_t j = 0; j < appended->shards_kept; ++j) {
    EXPECT_EQ(manifest.shards[j], base->shards[j]);
    auto bytes = shard::read_file_bytes(dir + "/" + manifest.shards[j].file);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value(), before[j]) << "kept shard " << j << " rewritten";
  }
  // The appended store reads back whole: every shard loads and the
  // node universe is covered exactly once.
  const auto reread = shard::ShardReader::read_manifest(dir);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(*reread, manifest);
  std::size_t nodes_seen = 0;
  for (const auto& info : manifest.shards) {
    const auto data = shard::ShardReader::read_shard(dir, info);
    ASSERT_TRUE(data.ok()) << data.status().message();
    nodes_seen += data->global_ids.size();
    for (std::size_t local = 0; local < data->global_ids.size(); ++local) {
      EXPECT_EQ(data->global_ranks[local],
                full.rank(data->global_ids[local]));
    }
  }
  EXPECT_EQ(nodes_seen, full.nodes().size());
}

TEST(ShardAppend, NoopWhenNothingAppended) {
  const cpg::Graph graph = fixtures::random_history(12);
  const std::string dir = temp_store("append_noop");
  const auto base = shard::write_store(graph, dir, shard::PlanOptions{3});
  ASSERT_TRUE(base.ok()) << base.status().message();
  const auto appended = shard::append(dir, graph);
  ASSERT_TRUE(appended.ok()) << appended.status().message();
  EXPECT_EQ(appended->shards_kept, 3u);
  EXPECT_EQ(appended->shards_rewritten, 0u);
  EXPECT_EQ(appended->manifest, *base);
}

TEST(ShardAppend, StoreAtTheShardCeilingStaysAppendable) {
  // A store already at 255 shards must give a kept shard back rather
  // than becoming permanently un-appendable.
  const cpg::Graph full = fixtures::barrier_history(5, 8);
  const auto prefix = shard::rank_prefix(
      full, static_cast<std::uint32_t>(full.nodes().size() * 6 / 10));
  ASSERT_TRUE(prefix.ok()) << prefix.status().message();
  const std::string dir = temp_store("append_ceiling");
  ASSERT_TRUE(
      shard::write_store(*prefix, dir, shard::PlanOptions{255}).ok());
  const auto appended = shard::append(dir, full);
  ASSERT_TRUE(appended.ok()) << appended.status().message();
  EXPECT_LE(appended->manifest.shard_count, 255u);
  EXPECT_LE(appended->shards_kept, 254u);
  EXPECT_GE(appended->shards_rewritten, 1u);
  EXPECT_EQ(appended->manifest.total_nodes, full.nodes().size());
  // And it still reads back whole.
  std::size_t nodes_seen = 0;
  for (const auto& info : appended->manifest.shards) {
    const auto data = shard::ShardReader::read_shard(dir, info);
    ASSERT_TRUE(data.ok()) << data.status().message();
    nodes_seen += data->global_ids.size();
  }
  EXPECT_EQ(nodes_seen, full.nodes().size());
}

TEST(ShardAppend, RejectsUnrelatedHistories) {
  const std::string dir = temp_store("append_mismatch");
  ASSERT_TRUE(shard::write_store(fixtures::random_history(13), dir,
                                 shard::PlanOptions{2})
                  .ok());
  // A different capture is not an extension of this store.
  const auto wrong = shard::append(dir, fixtures::dense_history(1));
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
  // A *smaller* capture cannot append either.
  const cpg::Graph full = fixtures::barrier_history(4, 10);
  const auto prefix = shard::rank_prefix(
      full, static_cast<std::uint32_t>(full.nodes().size() / 2));
  ASSERT_TRUE(prefix.ok());
  const std::string dir_full = temp_store("append_shrink");
  ASSERT_TRUE(shard::write_store(full, dir_full, shard::PlanOptions{2}).ok());
  const auto shrink = shard::append(dir_full, *prefix);
  ASSERT_FALSE(shrink.ok());
  EXPECT_EQ(shrink.status().code(), StatusCode::kInvalidArgument);
  // And a missing store is a clean kNotFound.
  const auto missing = shard::append(temp_store("append_missing"), full);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(ShardAppend, RankPrefixCutsAreConsistent) {
  const cpg::Graph full = fixtures::barrier_history(7, 9);
  const auto prefix = shard::rank_prefix(
      full, static_cast<std::uint32_t>(full.nodes().size() / 2));
  ASSERT_TRUE(prefix.ok()) << prefix.status().message();
  const std::size_t c = prefix->nodes().size();
  ASSERT_GT(c, 0u);
  ASSERT_LE(c, full.nodes().size() / 2);
  // Ranks and levels of the cut graph match the full graph's -- the
  // property append depends on.
  for (cpg::NodeId id = 0; id < c; ++id) {
    EXPECT_EQ(prefix->rank(id), full.rank(id));
  }
  for (std::size_t e = 0; e < prefix->edges().size(); ++e) {
    EXPECT_EQ(prefix->edges()[e], full.edges()[e]);
  }
}

TEST(ShardedEngine, StoreAccessorWorks) {
  const cpg::Graph graph = fixtures::random_history(7);
  const std::string dir = temp_store("accessors");
  ASSERT_TRUE(shard::write_store(graph, dir, shard::PlanOptions{2}).ok());
  auto store = shard::ShardStore::open(dir);
  ASSERT_TRUE(store.ok());
  shard::ShardedQueryEngine engine(store.value());
  EXPECT_EQ(engine.store().manifest().total_nodes, graph.nodes().size());
  // And the engine answers queries (smoke).
  const auto reply = engine.run(query::StatsQuery{});
  ASSERT_TRUE(reply.ok()) << reply.status().message();
}

// A store that never evicts -- no budget, or one covering the whole
// decoded store -- pins each shard at most once per query: one store
// lookup per shard, however many pages, frontier nodes or pool workers
// touch it. The race scan runs first, on a freshly opened store, at 4
// analysis threads, so its workers fill the pin table concurrently.
TEST(ShardedEngine, ResidentStorePinsEachShardOncePerQuery) {
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(4);
  const auto graph =
      std::make_shared<const cpg::Graph>(fixtures::dense_history(3));
  const std::string dir = temp_store("pin_once");
  const auto m = shard::write_store(*graph, dir, shard::PlanOptions{4},
                                    shard::ShardCodec::kLz);
  ASSERT_TRUE(m.ok()) << m.status().message();
  std::uint64_t decoded = 0;
  for (const auto& info : m->shards) decoded += info.decoded_bytes;
  query::QueryEngine reference(graph);
  const auto last = static_cast<cpg::NodeId>(graph->nodes().size() - 1);
  const std::vector<query::Query> queries = {
      query::RacesQuery{},
      query::BackwardSliceQuery{last},
      query::ForwardSliceQuery{0},
  };
  for (const std::uint64_t budget : {std::uint64_t{0}, decoded}) {
    shard::StoreOptions options;
    options.memory_budget_bytes = budget;
    auto store = shard::ShardStore::open(dir, options);
    ASSERT_TRUE(store.ok()) << store.status().message();
    shard::ShardedQueryEngine engine(*store);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto before = (*store)->stats();
      const auto got = engine.run(queries[q]);
      const auto after = (*store)->stats();
      EXPECT_LE(after.hits + after.loads - before.hits - before.loads,
                m->shard_count)
          << "query " << q << " at budget " << budget;
      EXPECT_EQ(query::wire::serialize_reply(1, got),
                query::wire::serialize_reply(1, reference.run(queries[q])))
          << "query " << q << " at budget " << budget;
    }
  }
}

}  // namespace
