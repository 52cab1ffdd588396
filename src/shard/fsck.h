// Offline verification and repair of a sharded CPG store.
//
// fsck() walks a store directory without opening a ShardStore: it
// reads the committed manifest, cross-checks every referenced shard
// file against its manifest entry (existence, size, whole-file
// checksum, full decode, fence/count agreement), and flags everything
// the commit protocol can legitimately leave behind after a crash --
// stranded MANIFEST.bin.tmp files and unreferenced shard-*.bin files
// from an interrupted append. Those leftovers are the *expected*
// debris of the write path (replace_file_bytes renames over the
// manifest; rewritten shards land under generation-suffixed names and
// are swept only after the commit), so a store that crashes mid-append
// fscks as repairable, never as damaged.
//
// With FsckOptions::repair, the repairable debris is removed: the
// committed manifest already IS the rollback target (a crash before
// the rename leaves the old manifest over the old, complete file
// set), so repair is a sweep, not a rewrite. Damage to files the
// manifest references -- missing, truncated, checksum-mismatched, or
// undecodable shards, or an unreadable manifest -- is reported but
// never repaired: the bytes are gone and inventing them would be
// worse. A damaged store can still serve the healthy part of its data
// through inspector_query --allow-degraded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace inspector::shard {

struct FsckOptions {
  /// Remove repairable debris (stranded temp files, orphaned shard
  /// files). Referenced-file damage is never "repaired" away.
  bool repair = false;
};

/// One problem found in a store directory.
struct FsckIssue {
  enum class Kind : std::uint8_t {
    kManifestUnreadable,  ///< MANIFEST.bin missing or undecodable
    kStrandedTemp,        ///< *.tmp left by an interrupted commit
    kOrphanShardFile,     ///< shard-*.bin the manifest does not reference
    kMissingShardFile,    ///< referenced file absent or unreadable
    kSizeMismatch,        ///< on-disk size != manifest byte_size
    kChecksumMismatch,    ///< whole-file checksum != manifest
    kCorruptShard,        ///< referenced file fails to decode
    kInconsistentShard,   ///< decoded payload disagrees with the manifest
  };

  Kind kind = Kind::kCorruptShard;
  std::string file;    ///< relative name; empty for store-wide issues
  std::string detail;  ///< human-readable cause (typed status message)
  bool repairable = false;  ///< debris fsck --repair may remove
  bool repaired = false;    ///< removed during this run
};

[[nodiscard]] const char* to_string(FsckIssue::Kind kind) noexcept;

struct FsckReport {
  std::uint64_t generation = 0;    ///< committed generation examined
  std::uint32_t shard_count = 0;   ///< per the committed manifest
  std::uint32_t shards_verified = 0;  ///< fully decoded + cross-checked
  std::vector<FsckIssue> issues;

  [[nodiscard]] bool clean() const noexcept { return issues.empty(); }
  /// Issues remain that repair did not (or cannot) fix.
  [[nodiscard]] bool damaged() const noexcept {
    for (const FsckIssue& i : issues) {
      if (!i.repaired) return true;
    }
    return false;
  }
};

/// Verify (and with options.repair, sweep) the store at `dir`. Only an
/// unusable directory is a Status; everything wrong *inside* a
/// readable directory -- an unreadable manifest included -- is an
/// issue in the report, so one run enumerates all damage at once.
[[nodiscard]] Result<FsckReport> fsck(const std::string& dir,
                                      const FsckOptions& options = {});

}  // namespace inspector::shard
