// ShardStore: memory-budgeted access to a sharded CPG store.
//
// A store keeps at most `memory_budget_bytes` of decoded shards
// resident, evicting the least recently used shard when a load would
// exceed it -- the out-of-core mode: a query session over a store
// larger than memory streams shards through the budget instead of
// materializing the graph. The budget unit is the *decoded* body size
// (the manifest's decoded_bytes): once payloads compress 6-37x, the
// encoded file size would undercount resident memory by the same
// factor. load() hands out shared_ptrs, so an evicted shard stays
// valid for the operation that pinned it and is freed when the last
// pin drops; Stats tracks those evicted-but-pinned bytes too, so
// peak_resident_bytes reports the honest memory ceiling, not just the
// cache's. All entry points are thread-safe; per-shard scan fan-outs
// hit the cache concurrently.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "shard/format.h"
#include "util/status.h"

namespace inspector::shard {

/// A decoded shard plus the lookup structures queries walk: frontier
/// edges bucketed by their local endpoint and local nodes bucketed by
/// global topological level.
struct LoadedShard {
  ShardData data;
  std::uint64_t decoded_bytes = 0;  ///< decoded body size (budget unit)

  /// Local id of a global node, if this shard owns it.
  [[nodiscard]] std::optional<std::uint32_t> local_of(
      cpg::NodeId global) const;

  /// Indices into data.frontier_in whose `to` is local node `v`
  /// (ascending global edge index), and into data.frontier_out whose
  /// `from` is local node `v`.
  [[nodiscard]] std::span<const std::uint32_t> frontier_in_of(
      std::uint32_t local) const;
  [[nodiscard]] std::span<const std::uint32_t> frontier_out_of(
      std::uint32_t local) const;

  /// Local node ids at global topological level `level`, ascending
  /// (empty when the shard has no nodes on that level).
  [[nodiscard]] std::span<const std::uint32_t> level_locals(
      std::uint32_t level) const;

  /// Built once after decode.
  void build_lookup();

 private:
  std::uint32_t min_level_ = 0;
  std::vector<std::uint32_t> fin_offsets_, fin_ids_;
  std::vector<std::uint32_t> fout_offsets_, fout_ids_;
  std::vector<std::uint32_t> level_offsets_, level_ids_;
};

/// Bounded retry with exponential backoff for *transient* shard-read
/// failures (StatusCode::kUnavailable only -- corrupt bytes and
/// missing files are permanent and never retried). The backoff doubles
/// per attempt up to max_backoff_ms, with deterministic seeded jitter
/// so a K-worker fan-out hitting the same flaky disk does not retry in
/// lockstep -- and so tests replay the exact same schedule.
struct RetryPolicy {
  /// Total read attempts per load (1 = no retries).
  std::uint32_t max_attempts = 3;
  std::uint64_t initial_backoff_ms = 1;
  std::uint64_t max_backoff_ms = 50;
  /// Seed folded into the per-(shard, attempt) jitter hash.
  std::uint64_t jitter_seed = 0;
};

struct StoreOptions {
  /// Resident-shard ceiling in *decoded* bytes (0 = unlimited). A
  /// single shard larger than the budget still loads -- the cache then
  /// holds just that shard.
  std::uint64_t memory_budget_bytes = 0;
  RetryPolicy retry_policy;
};

class ShardStore {
 public:
  struct Stats {
    std::uint64_t loads = 0;      ///< file reads + decodes (cache misses)
    std::uint64_t hits = 0;       ///< served from the resident set
    std::uint64_t evictions = 0;  ///< shards dropped for the budget
    /// Decoded bytes in the LRU cache. Bounded by
    /// max(memory_budget_bytes, one shard); peak_cache_bytes is its
    /// high-water mark.
    std::uint64_t resident_bytes = 0;
    std::uint64_t peak_cache_bytes = 0;
    /// Decoded bytes of shards evicted from the cache but still alive
    /// through an operation's pins.
    std::uint64_t pinned_bytes = 0;
    /// High-water mark of resident_bytes + pinned_bytes: the honest
    /// memory ceiling. Exceeds the budget exactly when concurrent
    /// operations pin more than the budget holds.
    std::uint64_t peak_resident_bytes = 0;
    std::uint64_t total_bytes = 0;          ///< whole store on disk (encoded)
    std::uint64_t total_decoded_bytes = 0;  ///< whole store once decoded
    /// Transient read failures retried under the RetryPolicy.
    std::uint64_t retries = 0;
    /// Total milliseconds slept in retry backoff (the latency cost of
    /// riding out transient failures, distinct from the retry count).
    std::uint64_t backoff_ms = 0;
    /// Shards currently quarantined (loads fail without touching disk).
    std::uint64_t quarantined_shards = 0;
  };

  /// Open a store directory: reads + validates the manifest and builds
  /// its page table; no shard file is touched -- shards load lazily. The
  /// snapshot is the manifest read here: a
  /// shard::append() or rewrite landing later swaps the directory to
  /// a new generation and sweeps the old files, so this store's lazy
  /// loads of rewritten shards then fail with typed kNotFound --
  /// reopen to serve the new generation.
  [[nodiscard]] static Result<std::shared_ptr<ShardStore>> open(
      std::string dir, StoreOptions options = {});

  [[nodiscard]] const Manifest& manifest() const noexcept {
    return manifest_;
  }
  [[nodiscard]] const std::string& directory() const noexcept { return dir_; }
  /// The manifest's page -> (shard, local page) holders.
  [[nodiscard]] const PageTable& page_table() const noexcept {
    return page_table_;
  }
  /// True when the budget is unlimited or covers the whole decoded
  /// store: a loaded shard then stays resident until the store dies, so
  /// a reader may pin each shard once and keep it.
  [[nodiscard]] bool never_evicts() const noexcept { return never_evicts_; }

  /// The shard owning a global node id (caller checks the id range).
  [[nodiscard]] std::uint32_t shard_of(cpg::NodeId global) const {
    return manifest_.node_shard[global];
  }

  /// Fetch one shard, loading and evicting as needed. Transient read
  /// failures retry under options.retry_policy; a load that still
  /// fails -- corrupt bytes, a missing file, exhausted retries --
  /// quarantines the shard, and this and every later load of it
  /// returns kUnavailable naming the shard, its file, and the original
  /// cause, without touching the disk again. Other shards keep
  /// serving; reopen the store to lift quarantines.
  [[nodiscard]] Result<std::shared_ptr<const LoadedShard>> load(
      std::uint32_t shard);

  [[nodiscard]] Stats stats() const;

 private:
  ShardStore(std::string dir, Manifest manifest, StoreOptions options);

  std::string dir_;
  Manifest manifest_;
  PageTable page_table_;
  StoreOptions options_;
  bool never_evicts_ = false;

  mutable std::mutex mu_;
  /// Signalled when an in-flight load finishes (either way), waking
  /// concurrent requests for the same shard.
  std::condition_variable load_done_;
  /// Shards some thread is currently reading + decoding off-lock. A
  /// second request for the same shard waits instead of decoding the
  /// same file twice; requests for *other* shards proceed -- file I/O,
  /// decompression, and checksum never serialize behind the mutex.
  std::unordered_set<std::uint32_t> loading_;
  /// Shards whose load failed terminally (after the retry policy ran
  /// its course). The stored status is the kUnavailable wrap every
  /// later load returns -- a corrupt shard fails a K-worker fan-out
  /// once, then fails fast forever instead of re-reading and
  /// re-decoding the same damage per query.
  std::unordered_map<std::uint32_t, Status> quarantined_;
  struct Entry {
    std::uint32_t shard = 0;
    std::shared_ptr<const LoadedShard> loaded;
  };
  /// LRU: front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::uint32_t, std::list<Entry>::iterator> resident_;
  /// Shards evicted from the cache whose pins may still hold them
  /// live; pruned (and the pinned-byte tally refreshed) under mu_.
  mutable std::vector<std::pair<std::weak_ptr<const LoadedShard>,
                                std::uint64_t>>
      evicted_pinned_;
  mutable Stats stats_;

  /// Drop expired evicted-pin entries, refresh pinned_bytes, and bump
  /// the honest peak. Callers hold mu_.
  void refresh_pinned_locked() const;
};

}  // namespace inspector::shard
