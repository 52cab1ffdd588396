// Format-generation discipline for stores.
//
// A build reads exactly its own generation of each file kind. Shard
// and manifest files stamped with any other version -- an earlier
// generation or a future one -- fail with a typed kInvalidArgument
// naming the version seen, never a misparse, and a store serving such
// a shard file quarantines it as kUnavailable. After a format bump a
// store is re-exported (`inspector_cli --shard-out`).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cpg/graph.h"
#include "history_fixtures.h"
#include "shard/format.h"
#include "shard/planner.h"
#include "shard/store.h"
#include "util/parallel.h"

namespace {

using namespace inspector;
namespace fixtures = inspector::fixtures;

TEST(ShardCompatErrors, OldAndFutureShardVersionsAreTypedErrors) {
  fixtures::ThreadCountGuard guard;
  util::set_analysis_threads(1);
  const cpg::Graph source = fixtures::random_history(79);
  const std::string dir = ::testing::TempDir() + "shard_compat_future";
  ASSERT_TRUE(shard::write_store(source, dir, shard::PlanOptions{2}).ok());
  auto manifest = shard::ShardReader::read_manifest(dir);
  ASSERT_TRUE(manifest.ok());
  const shard::ShardInfo& info = manifest->shards.front();
  const auto current = shard::read_file_bytes(dir + "/" + info.file);
  ASSERT_TRUE(current.ok());

  // Earlier generations (3 checksummed LZ bodies with FNV-1a) and the
  // next one.
  for (const std::uint32_t version :
       {2u, 3u, shard::kShardFormatVersion + 1}) {
    auto bytes = current.value();
    // The header is magic u32 + version u32, little-endian.
    bytes[4] = static_cast<std::uint8_t>(version);
    const auto decoded = shard::deserialize_shard(bytes);
    ASSERT_FALSE(decoded.ok()) << "version " << version;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find(
                  "format version " + std::to_string(version) + " "),
              std::string::npos)
        << decoded.status().message();

    // A store whose file on disk carries that version quarantines the
    // shard at lazy load: the terminal failure (here the manifest's
    // whole-file checksum, which the edit also broke) comes back as
    // kUnavailable naming the shard and its file.
    ASSERT_TRUE(shard::write_file_bytes(dir + "/" + info.file, bytes).ok());
    auto store = shard::ShardStore::open(dir);
    ASSERT_TRUE(store.ok()) << store.status().message();
    const auto loaded = store.value()->load(0);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(loaded.status().message().find("quarantined"),
              std::string::npos)
        << loaded.status().message();
    // The quarantine is sticky: the same typed error, no new disk reads.
    const auto again = store.value()->load(0);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().message(), loaded.status().message());
    EXPECT_EQ(store.value()->stats().quarantined_shards, 1u);
  }
}

TEST(ShardCompatErrors, OldAndFutureManifestVersionsAreTypedErrors) {
  fixtures::ThreadCountGuard guard;
  util::set_analysis_threads(1);
  const cpg::Graph source = fixtures::random_history(80);
  const std::string dir = ::testing::TempDir() + "shard_compat_manifest";
  ASSERT_TRUE(shard::write_store(source, dir, shard::PlanOptions{2}).ok());
  const std::string path = dir + "/" + shard::kManifestFileName;
  const auto current = shard::read_file_bytes(path);
  ASSERT_TRUE(current.ok());
  // Earlier generations (4 checksummed with FNV-1a) and the next one.
  for (const std::uint32_t version :
       {2u, 3u, 4u, shard::kManifestFormatVersion + 1}) {
    auto bytes = current.value();
    bytes[4] = static_cast<std::uint8_t>(version);
    ASSERT_TRUE(shard::replace_file_bytes(path, bytes).ok());
    const auto store = shard::ShardStore::open(dir);
    ASSERT_FALSE(store.ok()) << "version " << version;
    EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(store.status().message().find(
                  "format version " + std::to_string(version) + " "),
              std::string::npos)
        << store.status().message();
  }
}

}  // namespace
