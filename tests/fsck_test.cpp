// Offline store verification: fsck on clean stores, crash debris
// (detect + repair), every referenced-file damage class with its
// precise issue kind, a manifest of another format generation, and
// in-memory bit-flip sweeps over the manifest and one shard file per
// codec proving that no single-bit mutation of the on-disk formats can
// pass silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cpg/graph.h"
#include "history_fixtures.h"
#include "shard/format.h"
#include "shard/fsck.h"
#include "shard/planner.h"
#include "shard/store.h"
#include "snapshot/compress.h"
#include "util/parallel.h"

namespace {

using namespace inspector;
using namespace inspector::shard;
namespace fixtures = inspector::fixtures;
namespace fs = std::filesystem;

using Kind = FsckIssue::Kind;

std::string make_store(const std::string& name, std::uint64_t seed,
                       ShardCodec codec = ShardCodec::kRaw) {
  const std::string dir = ::testing::TempDir() + name;
  fs::remove_all(dir);
  const cpg::Graph source = fixtures::random_history(seed);
  const auto written = write_store(source, dir, PlanOptions{3}, codec);
  EXPECT_TRUE(written.ok()) << written.status().message();
  return dir;
}

bool has_issue(const FsckReport& report, Kind kind,
               const std::string& file = "") {
  return std::any_of(report.issues.begin(), report.issues.end(),
                     [&](const FsckIssue& i) {
                       return i.kind == kind &&
                              (file.empty() || i.file == file);
                     });
}

TEST(Fsck, CleanStoreIsClean) {
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const std::string dir = make_store("fsck_clean", 50);
  const auto report = fsck(dir);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->clean());
  EXPECT_FALSE(report->damaged());
  EXPECT_EQ(report->shard_count, 3u);
  EXPECT_EQ(report->shards_verified, 3u);
}

TEST(Fsck, UnusableDirectoryIsAStatusNotAReport) {
  EXPECT_FALSE(fsck(::testing::TempDir() + "fsck_no_such_dir").ok());
  const std::string file = ::testing::TempDir() + "fsck_not_a_dir";
  std::ofstream(file) << "x";
  EXPECT_FALSE(fsck(file).ok());
}

TEST(Fsck, MissingManifestIsAnIssueInTheReport) {
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const std::string dir = make_store("fsck_no_manifest", 51);
  fs::remove(dir + "/" + kManifestFileName);
  const auto report = fsck(dir);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(has_issue(*report, Kind::kManifestUnreadable));
  EXPECT_TRUE(report->damaged());
}

TEST(Fsck, CrashDebrisIsDetectedAndRepaired) {
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const std::string dir = make_store("fsck_debris", 52);
  // Exactly what a crash between commit and sweep leaves: a stranded
  // manifest temp and an unreferenced generation-suffixed shard file.
  std::ofstream(dir + "/MANIFEST.bin.tmp") << "half-written";
  fs::copy(dir + "/shard-000.bin", dir + "/shard-000.g9.bin");

  const auto report = fsck(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(has_issue(*report, Kind::kStrandedTemp, "MANIFEST.bin.tmp"));
  EXPECT_TRUE(has_issue(*report, Kind::kOrphanShardFile, "shard-000.g9.bin"));
  EXPECT_TRUE(report->damaged()) << "unrepaired debris counts as damage";
  for (const FsckIssue& i : report->issues) {
    EXPECT_TRUE(i.repairable) << i.file;
    EXPECT_FALSE(i.repaired) << "a plain fsck must not delete " << i.file;
  }
  // A plain run touches nothing.
  EXPECT_TRUE(fs::exists(dir + "/MANIFEST.bin.tmp"));
  EXPECT_TRUE(fs::exists(dir + "/shard-000.g9.bin"));

  const auto repaired = fsck(dir, FsckOptions{/*repair=*/true});
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->issues.size(), 2u);
  EXPECT_FALSE(repaired->damaged());
  for (const FsckIssue& i : repaired->issues) EXPECT_TRUE(i.repaired);
  EXPECT_FALSE(fs::exists(dir + "/MANIFEST.bin.tmp"));
  EXPECT_FALSE(fs::exists(dir + "/shard-000.g9.bin"));
  EXPECT_TRUE(fsck(dir)->clean());
}

TEST(Fsck, ReferencedFileDamageKindsAreNeverRepaired) {
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const std::string dir = make_store("fsck_damage", 53);
  auto manifest = ShardReader::read_manifest(dir);
  ASSERT_TRUE(manifest.ok());

  // shard 0: gone entirely. shard 1: truncated (wrong size). shard 2:
  // same-size byte flip (only the whole-file checksum can see it).
  const std::string f0 = dir + "/" + manifest->shards[0].file;
  const std::string f1 = dir + "/" + manifest->shards[1].file;
  const std::string f2 = dir + "/" + manifest->shards[2].file;
  fs::remove(f0);
  auto b1 = read_file_bytes(f1);
  ASSERT_TRUE(b1.ok());
  b1.value().resize(b1->size() - 7);
  ASSERT_TRUE(write_file_bytes(f1, *b1).ok());
  auto b2 = read_file_bytes(f2);
  ASSERT_TRUE(b2.ok());
  b2.value()[b2->size() / 2] ^= 0x01;
  ASSERT_TRUE(write_file_bytes(f2, *b2).ok());

  const auto report = fsck(dir, FsckOptions{/*repair=*/true});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(
      has_issue(*report, Kind::kMissingShardFile, manifest->shards[0].file));
  EXPECT_TRUE(
      has_issue(*report, Kind::kSizeMismatch, manifest->shards[1].file));
  EXPECT_TRUE(
      has_issue(*report, Kind::kChecksumMismatch, manifest->shards[2].file));
  EXPECT_EQ(report->shards_verified, 0u);
  EXPECT_TRUE(report->damaged()) << "referenced damage survives --repair";
  for (const FsckIssue& i : report->issues) {
    EXPECT_FALSE(i.repairable) << i.file;
    EXPECT_FALSE(i.repaired) << i.file;
  }
  // Repair must not have deleted the damaged-but-referenced files.
  EXPECT_TRUE(fs::exists(f1));
  EXPECT_TRUE(fs::exists(f2));
}

/// Recommit the store's manifest with `info` fields refreshed from the
/// bytes on disk, so fsck's size and checksum gates pass and the
/// deeper decode / cross-check stages run.
void recommit_with_fresh_checksums(const std::string& dir) {
  auto manifest = ShardReader::read_manifest(dir);
  ASSERT_TRUE(manifest.ok());
  for (ShardInfo& info : manifest.value().shards) {
    auto bytes = read_file_bytes(dir + "/" + info.file);
    ASSERT_TRUE(bytes.ok());
    info.byte_size = bytes->size();
    info.file_checksum = snapshot::stripe_hash(*bytes);
  }
  ASSERT_TRUE(replace_file_bytes(dir + "/" + kManifestFileName,
                                 serialize_manifest(*manifest))
                  .ok());
}

TEST(Fsck, UndecodableShardBehindAValidChecksumIsCorrupt) {
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const std::string dir = make_store("fsck_corrupt", 54);
  auto manifest = ShardReader::read_manifest(dir);
  ASSERT_TRUE(manifest.ok());
  // Same-size garbage, then a manifest whose size + checksum match it:
  // only the decode stage can object now.
  const std::string file = dir + "/" + manifest->shards[1].file;
  auto bytes = read_file_bytes(file);
  ASSERT_TRUE(bytes.ok());
  std::fill(bytes.value().begin(), bytes.value().end(), std::uint8_t{0xEE});
  ASSERT_TRUE(write_file_bytes(file, *bytes).ok());
  recommit_with_fresh_checksums(dir);

  const auto report = fsck(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(has_issue(*report, Kind::kCorruptShard,
                        manifest->shards[1].file));
  EXPECT_TRUE(report->damaged());
  EXPECT_EQ(report->shards_verified, 2u);
}

TEST(Fsck, ForeignShardBehindAValidChecksumIsInconsistent) {
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  // The same history cut at a different shard count: its files decode
  // perfectly but disagree with this store's manifest about fences and
  // routing -- the cross-check's job.
  const std::string dir = make_store("fsck_foreign", 55);
  const std::string other = ::testing::TempDir() + "fsck_foreign_other";
  fs::remove_all(other);
  ASSERT_TRUE(
      write_store(fixtures::random_history(55), other, PlanOptions{2}).ok());
  fs::copy_file(other + "/shard-001.bin", dir + "/shard-001.bin",
                fs::copy_options::overwrite_existing);
  recommit_with_fresh_checksums(dir);

  const auto report = fsck(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(has_issue(*report, Kind::kInconsistentShard, "shard-001.bin"));
  EXPECT_TRUE(report->damaged());
}

/// Decode shard `index`, let `mutate` tamper with the payload, write it
/// back in its codec, and recommit the manifest with the file's new
/// size, checksum and decoded size: only the manifest cross-check can
/// object to the result.
template <typename Mutate>
void rewrite_shard(const std::string& dir, std::uint32_t index,
                   Mutate mutate) {
  auto manifest = ShardReader::read_manifest(dir);
  ASSERT_TRUE(manifest.ok());
  ShardInfo& info = manifest.value().shards[index];
  auto data = ShardReader::read_shard(dir, info);
  ASSERT_TRUE(data.ok()) << data.status().message();
  mutate(data.value(), *manifest);
  const auto bytes = serialize_shard(*data, info.codec, &info.decoded_bytes);
  ASSERT_TRUE(write_file_bytes(dir + "/" + info.file, bytes).ok());
  info.byte_size = bytes.size();
  info.file_checksum = snapshot::stripe_hash(bytes);
  ASSERT_TRUE(replace_file_bytes(dir + "/" + kManifestFileName,
                                 serialize_manifest(*manifest))
                  .ok());
}

/// fsck's verdict on shard `index` and the serving store's must agree:
/// an inconsistent-shard issue whose detail names `why`, and a load
/// that quarantines the shard with the same cause.
void expect_rejected_by_fsck_and_store(const std::string& dir,
                                       std::uint32_t index,
                                       const std::string& why) {
  const auto manifest = ShardReader::read_manifest(dir);
  ASSERT_TRUE(manifest.ok());
  const std::string& file = manifest->shards[index].file;
  const auto report = fsck(dir);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(has_issue(*report, Kind::kInconsistentShard, file))
      << "fsck passed a shard the manifest disagrees with";
  for (const FsckIssue& issue : report->issues) {
    if (issue.file == file) {
      EXPECT_NE(issue.detail.find(why), std::string::npos) << issue.detail;
    }
  }
  auto store = ShardStore::open(dir);
  ASSERT_TRUE(store.ok()) << store.status().message();
  const auto loaded = store.value()->load(index);
  ASSERT_FALSE(loaded.ok()) << "the store served a shard fsck rejects";
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(loaded.status().message().find(why), std::string::npos)
      << loaded.status().message();
}

TEST(Fsck, LevelPastTheManifestIsRejectedByFsckAndStore) {
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const std::string dir = make_store("fsck_level_bound", 59, ShardCodec::kLz);
  rewrite_shard(dir, 1, [](ShardData& data, const Manifest& m) {
    ASSERT_FALSE(data.global_levels.empty());
    data.global_levels.back() = static_cast<std::uint32_t>(m.level_count);
  });
  expect_rejected_by_fsck_and_store(
      dir, 1, "a topological level exceeds the manifest's bounds");
}

TEST(Fsck, ShiftedRankFenceIsRejectedByFsckAndStore) {
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const std::string dir = make_store("fsck_rank_fence", 60);
  rewrite_shard(dir, 1, [](ShardData& data, const Manifest&) {
    ++data.rank_lo;
    ++data.rank_hi;
  });
  expect_rejected_by_fsck_and_store(dir, 1, "rank fence is [");
}

TEST(Fsck, GlobalRankPastTheFenceIsRejectedByFsckAndStore) {
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const std::string dir = make_store("fsck_rank_past_fence", 61);
  rewrite_shard(dir, 1, [](ShardData& data, const Manifest&) {
    ASSERT_FALSE(data.global_ranks.empty());
    data.global_ranks.front() = data.rank_hi;
  });
  expect_rejected_by_fsck_and_store(dir, 1, "lies outside the rank fence");
}

TEST(Fsck, SwappedGlobalRanksAreRejectedByFsckAndStore) {
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const std::string dir = make_store("fsck_rank_order", 62);
  rewrite_shard(dir, 1, [](ShardData& data, const Manifest&) {
    ASSERT_GE(data.global_ranks.size(), 2u);
    std::swap(data.global_ranks.front(), data.global_ranks.back());
  });
  expect_rejected_by_fsck_and_store(
      dir, 1, "global ranks do not follow the shard's rank order");
}

TEST(Fsck, PageAddedToANodeIsRejectedByFsckAndStore) {
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const std::string dir = make_store("fsck_page_set", 63);
  rewrite_shard(dir, 1, [](ShardData& data, const Manifest& m) {
    std::vector<cpg::SubComputation> nodes(data.graph.nodes().begin(),
                                           data.graph.nodes().end());
    std::vector<cpg::Edge> edges(data.graph.edges().begin(),
                                 data.graph.edges().end());
    ASSERT_FALSE(nodes.empty());
    // A page past the universe: new to the shard, and still sorted.
    nodes.front().write_set.push_back(m.pages.empty() ? 1
                                                      : m.pages.back() + 1);
    data.graph = cpg::Graph(std::move(nodes), std::move(edges), {});
  });
  expect_rejected_by_fsck_and_store(dir, 1, "page set");
}

TEST(Fsck, V2ManifestIsUnreadableAndRepairDeletesNoShard) {
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const std::string dir = make_store("fsck_v2", 56);
  // A build reads exactly its own manifest generation. One stamped
  // version 2 is unreadable, so fsck cannot tell orphan from
  // referenced, and --repair must leave every shard file in place.
  const std::string path = dir + "/" + kManifestFileName;
  auto bytes = read_file_bytes(path);
  ASSERT_TRUE(bytes.ok());
  bytes.value()[4] = 2;
  ASSERT_TRUE(replace_file_bytes(path, *bytes).ok());
  const auto manifest = ShardReader::read_manifest(dir);
  ASSERT_FALSE(manifest.ok());
  EXPECT_EQ(manifest.status().code(), StatusCode::kInvalidArgument);

  std::vector<std::string> shard_files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name != kManifestFileName) shard_files.push_back(name);
  }
  ASSERT_EQ(shard_files.size(), 3u);

  const auto report = fsck(dir, FsckOptions{/*repair=*/true});
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_EQ(report->issues.size(), 1u);
  const FsckIssue& issue = report->issues.front();
  EXPECT_EQ(issue.kind, Kind::kManifestUnreadable);
  EXPECT_NE(issue.detail.find("format version 2 "), std::string::npos)
      << issue.detail;
  EXPECT_FALSE(issue.repaired);
  EXPECT_TRUE(report->damaged());
  EXPECT_EQ(report->shards_verified, 0u);
  for (const std::string& name : shard_files) {
    EXPECT_TRUE(fs::exists(dir + "/" + name)) << "repair deleted " << name;
  }
}

TEST(Fsck, ManifestBitFlipSweepYieldsTypedErrors) {
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const std::string dir = make_store("fsck_sweep_manifest", 57);
  const auto packed = read_file_bytes(dir + "/" + kManifestFileName);
  ASSERT_TRUE(packed.ok());
  ASSERT_TRUE(deserialize_manifest(*packed).ok());
  // The manifest carries a whole-file self-checksum, so *every* flip
  // must surface as a typed error: structurally (kInvalidArgument) or
  // through the checksum (kDataLoss). Nothing may parse silently.
  for (std::size_t bit = 0; bit < packed->size() * 8; ++bit) {
    auto corrupt = *packed;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const auto result = deserialize_manifest(corrupt);
    ASSERT_FALSE(result.ok()) << "bit " << bit << " flipped silently";
    EXPECT_TRUE(result.status().code() == StatusCode::kInvalidArgument ||
                result.status().code() == StatusCode::kDataLoss)
        << "bit " << bit << ": " << to_string(result.status().code());
  }
}

class FsckShardSweep : public ::testing::TestWithParam<ShardCodec> {};

TEST_P(FsckShardSweep, EveryBitFlipIsCaughtByDecodeOrManifestChecksum) {
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const std::string dir = make_store(
      GetParam() == ShardCodec::kLz ? "fsck_sweep_lz" : "fsck_sweep_raw", 58,
      GetParam());
  auto manifest = ShardReader::read_manifest(dir);
  ASSERT_TRUE(manifest.ok());
  const ShardInfo& info = manifest->shards[0];
  const auto packed = read_file_bytes(dir + "/" + info.file);
  ASSERT_TRUE(packed.ok());
  ASSERT_TRUE(deserialize_shard(*packed).ok());
  ASSERT_EQ(snapshot::stripe_hash(*packed), info.file_checksum);

  // The raw codec's body has no internal checksum, so some flips
  // decode to a structurally valid shard -- the manifest's whole-file
  // checksum (v3) is the layer that closes that gap. The sweep demands
  // each flip is caught by at least one of the two.
  std::size_t caught_by_decode = 0;
  for (std::size_t bit = 0; bit < packed->size() * 8; ++bit) {
    auto corrupt = *packed;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const bool checksum_catches =
        snapshot::stripe_hash(corrupt) != info.file_checksum;
    const auto decoded = deserialize_shard(corrupt);
    if (!decoded.ok()) {
      ++caught_by_decode;
      EXPECT_TRUE(
          decoded.status().code() == StatusCode::kInvalidArgument ||
          decoded.status().code() == StatusCode::kDataLoss)
          << "bit " << bit << ": " << to_string(decoded.status().code());
    }
    ASSERT_TRUE(!decoded.ok() || checksum_catches)
        << "bit " << bit << " passed both decode and the file checksum";
  }
  EXPECT_GT(caught_by_decode, 0u);
}

INSTANTIATE_TEST_SUITE_P(Codecs, FsckShardSweep,
                         ::testing::Values(ShardCodec::kRaw,
                                           ShardCodec::kLz));

}  // namespace
