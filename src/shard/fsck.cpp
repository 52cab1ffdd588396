#include "shard/fsck.h"

#include <algorithm>
#include <filesystem>
#include <span>
#include <string>
#include <system_error>
#include <unordered_set>
#include <vector>

#include "shard/format.h"
#include "snapshot/compress.h"

namespace inspector::shard {

namespace {

namespace fs = std::filesystem;

/// Everything in the directory fsck cares about, sorted by name so
/// reports are deterministic whatever readdir order the OS serves.
struct DirListing {
  std::vector<std::string> shard_files;  ///< shard-*.bin
  std::vector<std::string> temp_files;   ///< *.tmp (any commit's leftovers)
};

Result<DirListing> list_store_dir(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) {
    return Status(StatusCode::kNotFound, "not a store directory: " + dir);
  }
  DirListing out;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status(StatusCode::kUnavailable,
                  "cannot list store directory: " + dir + ": " + ec.message());
  }
  const fs::directory_iterator end;
  while (it != end) {
    std::error_code entry_ec;
    if (it->is_regular_file(entry_ec)) {
      const std::string name = it->path().filename().string();
      if (name.ends_with(".tmp")) {
        out.temp_files.push_back(name);
      } else if (name.starts_with("shard-") && name.ends_with(".bin")) {
        out.shard_files.push_back(name);
      }
    }
    it.increment(ec);
    if (ec) break;  // report what we saw; a torn listing is still useful
  }
  std::sort(out.shard_files.begin(), out.shard_files.end());
  std::sort(out.temp_files.begin(), out.temp_files.end());
  return out;
}

/// Remove debris when repairing; flips the issue to repaired on
/// success. Failure to remove leaves the issue standing (damaged).
void maybe_repair(const std::string& dir, FsckIssue& issue, bool repair) {
  issue.repairable = true;
  if (!repair) return;
  std::error_code ec;
  fs::remove(fs::path(dir) / issue.file, ec);
  if (!ec) issue.repaired = true;
}

}  // namespace

const char* to_string(FsckIssue::Kind kind) noexcept {
  switch (kind) {
    case FsckIssue::Kind::kManifestUnreadable:
      return "manifest-unreadable";
    case FsckIssue::Kind::kStrandedTemp:
      return "stranded-temp";
    case FsckIssue::Kind::kOrphanShardFile:
      return "orphan-shard-file";
    case FsckIssue::Kind::kMissingShardFile:
      return "missing-shard-file";
    case FsckIssue::Kind::kSizeMismatch:
      return "size-mismatch";
    case FsckIssue::Kind::kChecksumMismatch:
      return "checksum-mismatch";
    case FsckIssue::Kind::kCorruptShard:
      return "corrupt-shard";
    case FsckIssue::Kind::kInconsistentShard:
      return "inconsistent-shard";
  }
  return "unknown";
}

Result<FsckReport> fsck(const std::string& dir, const FsckOptions& options) {
  auto listing = list_store_dir(dir);
  if (!listing.ok()) return listing.status();

  FsckReport report;
  const auto add = [&](FsckIssue::Kind kind, std::string file,
                       std::string detail) -> FsckIssue& {
    report.issues.push_back(
        {kind, std::move(file), std::move(detail), false, false});
    return report.issues.back();
  };

  // Stranded temp files first: a crash between replace_file_bytes'
  // temp write and its rename leaves one behind, and it is always safe
  // to drop (the rename never happened, so nothing references it).
  for (const std::string& name : listing.value().temp_files) {
    maybe_repair(dir, add(FsckIssue::Kind::kStrandedTemp, name,
                          "leftover of an interrupted atomic replace"),
                 options.repair);
  }

  // The committed manifest is the ground truth everything else is
  // checked against. Unreadable -> fatal for verification (we cannot
  // tell orphan from referenced), but the report still carries the
  // temp-file findings above.
  const auto manifest_bytes =
      read_file_bytes(dir + "/" + kManifestFileName);
  if (!manifest_bytes.ok()) {
    add(FsckIssue::Kind::kManifestUnreadable, kManifestFileName,
        std::string(to_string(manifest_bytes.status().code())) + ": " +
            manifest_bytes.status().message());
    return report;
  }
  const auto manifest = deserialize_manifest(manifest_bytes.value());
  if (!manifest.ok()) {
    add(FsckIssue::Kind::kManifestUnreadable, kManifestFileName,
        std::string(to_string(manifest.status().code())) + ": " +
            manifest.status().message());
    return report;
  }
  const Manifest& m = manifest.value();
  report.generation = m.generation;
  report.shard_count = m.shard_count;

  // Referenced shards, in manifest order: existence, size, whole-file
  // checksum, full decode, then the decoded payload against the
  // manifest entry. One issue per shard -- later checks assume the
  // earlier ones held.
  std::unordered_set<std::string> referenced;
  for (std::uint32_t s = 0; s < m.shard_count; ++s) {
    const ShardInfo& info = m.shards[s];
    referenced.insert(info.file);
    const auto bytes = read_file_bytes(dir + "/" + info.file);
    if (!bytes.ok()) {
      add(FsckIssue::Kind::kMissingShardFile, info.file,
          std::string(to_string(bytes.status().code())) + ": " +
              bytes.status().message());
      continue;
    }
    if (bytes.value().size() != info.byte_size) {
      add(FsckIssue::Kind::kSizeMismatch, info.file,
          "file is " + std::to_string(bytes.value().size()) +
              " bytes but the manifest says " +
              std::to_string(info.byte_size));
      continue;
    }
    if (snapshot::stripe_hash(bytes.value()) != info.file_checksum) {
      add(FsckIssue::Kind::kChecksumMismatch, info.file,
          "whole-file checksum does not match the manifest (the shard "
          "bytes are damaged)");
      continue;
    }
    const auto data = deserialize_shard(bytes.value());
    if (!data.ok()) {
      add(FsckIssue::Kind::kCorruptShard, info.file,
          std::string(to_string(data.status().code())) + ": " +
              data.status().message());
      continue;
    }
    if (Status why = check_shard(m, s, data.value()); !why.ok()) {
      add(FsckIssue::Kind::kInconsistentShard, info.file, why.message());
      continue;
    }
    ++report.shards_verified;
  }

  // Everything shard-shaped the manifest does not reference is debris
  // of a superseded or never-committed generation. Removing it is
  // exactly the sweep the interrupted append would have run after its
  // commit -- the rollback to the committed generation is already
  // complete the moment the old manifest is the one we read.
  for (const std::string& name : listing.value().shard_files) {
    if (referenced.contains(name)) continue;
    maybe_repair(dir, add(FsckIssue::Kind::kOrphanShardFile, name,
                          "no manifest entry references this file"),
                 options.repair);
  }

  // Make the removals durable the same way a commit does; best-effort,
  // like the append path's own sweep.
  if (options.repair) {
    for (const FsckIssue& issue : report.issues) {
      if (issue.repaired) {
        (void)sync_directory(dir);
        break;
      }
    }
  }
  return report;
}

}  // namespace inspector::shard
