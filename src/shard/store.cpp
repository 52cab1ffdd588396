#include "shard/store.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace inspector::shard {

namespace {

/// Process-wide shard-store series (all stores share them; the
/// per-store Stats struct stays the per-instance view). Resolved once.
struct StoreMetrics {
  obs::Counter& hits;
  obs::Counter& loads;
  obs::Counter& evictions;
  obs::Counter& retries;
  obs::Counter& backoff_ms;
  obs::Counter& quarantine_transitions;
  obs::Gauge& quarantined;
  obs::Gauge& resident_bytes;
  obs::Histogram& decode_us;
};

StoreMetrics& store_metrics() {
  static StoreMetrics* m = [] {
    auto& reg = obs::Registry::global();
    return new StoreMetrics{
        reg.counter("shard_store_hits_total"),
        reg.counter("shard_store_loads_total"),
        reg.counter("shard_store_evictions_total"),
        reg.counter("shard_store_retries_total"),
        reg.counter("shard_store_backoff_ms_total"),
        reg.counter("shard_store_quarantine_transitions_total"),
        reg.gauge("shard_store_quarantined_shards"),
        reg.gauge("shard_store_resident_bytes"),
        reg.histogram("shard_store_decode_us"),
    };
  }();
  return *m;
}

/// Backoff for retry `attempt` (1-based): exponential from the policy
/// floor, capped, with deterministic jitter in the upper half so
/// concurrent retries of different shards spread out but a given
/// (seed, shard, attempt) always waits the same time.
std::uint64_t backoff_ms(const RetryPolicy& policy, std::uint32_t shard,
                         std::uint32_t attempt) {
  std::uint64_t base = policy.initial_backoff_ms;
  for (std::uint32_t i = 1; i < attempt && base < policy.max_backoff_ms; ++i) {
    base *= 2;
  }
  base = std::min(base, policy.max_backoff_ms);
  if (base <= 1) return base;
  // splitmix64 of (seed, shard, attempt) -> jitter in [0, base/2].
  std::uint64_t x = policy.jitter_seed ^
                    (static_cast<std::uint64_t>(shard) << 32) ^ attempt;
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return base / 2 + x % (base / 2 + 1);
}

}  // namespace

std::optional<std::uint32_t> LoadedShard::local_of(cpg::NodeId global) const {
  const auto& ids = data.global_ids;
  const auto it = std::lower_bound(ids.begin(), ids.end(), global);
  if (it == ids.end() || *it != global) return std::nullopt;
  return static_cast<std::uint32_t>(it - ids.begin());
}

std::span<const std::uint32_t> LoadedShard::frontier_in_of(
    std::uint32_t local) const {
  return {fin_ids_.data() + fin_offsets_[local],
          fin_ids_.data() + fin_offsets_[local + 1]};
}

std::span<const std::uint32_t> LoadedShard::frontier_out_of(
    std::uint32_t local) const {
  return {fout_ids_.data() + fout_offsets_[local],
          fout_ids_.data() + fout_offsets_[local + 1]};
}

std::span<const std::uint32_t> LoadedShard::level_locals(
    std::uint32_t level) const {
  if (level < min_level_ ||
      level - min_level_ + 1 >= level_offsets_.size()) {
    return {};
  }
  const std::uint32_t bucket = level - min_level_;
  return {level_ids_.data() + level_offsets_[bucket],
          level_ids_.data() + level_offsets_[bucket + 1]};
}

void LoadedShard::build_lookup() {
  const std::size_t n = data.global_ids.size();
  // Frontier buckets by local endpoint; iterating the (edge-index-
  // sorted) frontier lists in order keeps each bucket ascending by
  // global edge index, which the critical-path tie-break relies on.
  const auto bucket = [&](const std::vector<FrontierEdge>& edges,
                          const bool by_to, std::vector<std::uint32_t>& offsets,
                          std::vector<std::uint32_t>& out) {
    offsets.assign(n + 1, 0);
    out.resize(edges.size());
    std::vector<std::uint32_t> locals(edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const cpg::NodeId endpoint = by_to ? edges[i].to : edges[i].from;
      locals[i] = *local_of(endpoint);
      ++offsets[locals[i] + 1];
    }
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      out[cursor[locals[i]]++] = static_cast<std::uint32_t>(i);
    }
  };
  bucket(data.frontier_in, /*by_to=*/true, fin_offsets_, fin_ids_);
  bucket(data.frontier_out, /*by_to=*/false, fout_offsets_, fout_ids_);

  // Level buckets over the shard's global-level window. Scattering in
  // local-id order keeps each bucket ascending by local (hence global)
  // node id.
  min_level_ = 0;
  level_offsets_.assign(1, 0);
  level_ids_.clear();
  if (n == 0) return;
  const auto [lo, hi] = std::minmax_element(data.global_levels.begin(),
                                            data.global_levels.end());
  min_level_ = *lo;
  const std::uint32_t buckets = *hi - *lo + 1;
  level_offsets_.assign(buckets + 1, 0);
  for (const std::uint32_t lvl : data.global_levels) {
    ++level_offsets_[lvl - min_level_ + 1];
  }
  std::partial_sum(level_offsets_.begin(), level_offsets_.end(),
                   level_offsets_.begin());
  level_ids_.resize(n);
  std::vector<std::uint32_t> cursor(level_offsets_.begin(),
                                    level_offsets_.end() - 1);
  for (std::uint32_t local = 0; local < n; ++local) {
    level_ids_[cursor[data.global_levels[local] - min_level_]++] = local;
  }
}

ShardStore::ShardStore(std::string dir, Manifest manifest,
                       StoreOptions options)
    : dir_(std::move(dir)), manifest_(std::move(manifest)),
      page_table_(manifest_), options_(options) {
  for (const ShardInfo& info : manifest_.shards) {
    stats_.total_bytes += info.byte_size;
    stats_.total_decoded_bytes += info.decoded_bytes;
  }
  never_evicts_ = options_.memory_budget_bytes == 0 ||
                  options_.memory_budget_bytes >= stats_.total_decoded_bytes;
}

void ShardStore::refresh_pinned_locked() const {
  std::uint64_t alive = 0;
  std::erase_if(evicted_pinned_, [&](const auto& entry) {
    if (entry.first.expired()) return true;
    alive += entry.second;
    return false;
  });
  stats_.pinned_bytes = alive;
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes,
               stats_.resident_bytes + stats_.pinned_bytes);
}

Result<std::shared_ptr<ShardStore>> ShardStore::open(std::string dir,
                                                     StoreOptions options) {
  auto manifest = ShardReader::read_manifest(dir);
  if (!manifest.ok()) return manifest.status();
  return std::shared_ptr<ShardStore>(new ShardStore(
      std::move(dir), std::move(manifest).value(), options));
}

Result<std::shared_ptr<const LoadedShard>> ShardStore::load(
    std::uint32_t shard) {
  if (shard >= manifest_.shard_count) {
    return Status(StatusCode::kOutOfRange,
                  "shard " + std::to_string(shard) + " out of range [0, " +
                      std::to_string(manifest_.shard_count) + ")");
  }
  std::unique_lock lock(mu_);
  for (;;) {
    if (const auto it = resident_.find(shard); it != resident_.end()) {
      ++stats_.hits;
      store_metrics().hits.add();
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->loaded;
    }
    // Quarantined shards fail fast -- no disk IO, no decode, just the
    // stored kUnavailable naming the shard and the original cause.
    if (const auto it = quarantined_.find(shard); it != quarantined_.end()) {
      return it->second;
    }
    if (loading_.contains(shard)) {
      // Another thread is decoding this very shard: wait for it
      // rather than decoding the same file twice, then re-check (a
      // tiny budget may have evicted it again before we woke; a
      // failure shows up as a quarantine entry).
      load_done_.wait(lock);
      continue;
    }
    break;
  }
  loading_.insert(shard);
  lock.unlock();
  // However this scope exits -- typed failure, success, or an
  // exception unwinding mid-decode (bad_alloc is live here: stores
  // bigger than memory are the point of this class) -- the in-flight
  // mark must be cleared and waiters woken, or every later load of
  // this shard would block forever.
  struct ClearLoading {
    ShardStore* store;
    std::unique_lock<std::mutex>* lock;
    std::uint32_t shard;
    // Destructor work must be nonthrowing (erase of a present u32 key
    // and a notify); recording a failure status allocates, so that
    // happens in the normal return paths, never here.
    ~ClearLoading() {
      if (!lock->owns_lock()) lock->lock();
      store->loading_.erase(shard);
      store->load_done_.notify_all();
    }
  };
  ClearLoading clear_loading{this, &lock, shard};
  // The whole miss path (read, decode, validate, lookup build) is one
  // shard_load span -- child-only, so pool threads with no sampled
  // ambient context never mint stray trace roots.
  obs::Span span("shard_load", obs::Span::Root::kDeny);
  if (span.active()) span.annotate("shard", static_cast<std::uint64_t>(shard));
  const auto miss_started = std::chrono::steady_clock::now();
  std::uint64_t retries = 0;
  std::uint64_t backoff_slept_ms = 0;
  // Quarantine the shard under the lock (the guard then wakes waiters
  // holding the same lock, and they pick the entry up). Every load of
  // a quarantined shard -- this one included -- returns the same
  // kUnavailable wrap, so error replies are stable across retries.
  const auto fail = [&](const Status& cause) {
    Status wrapped(StatusCode::kUnavailable,
                   "shard " + std::to_string(shard) + " (" + dir_ + "/" +
                       manifest_.shards[shard].file + ") is quarantined: " +
                       std::string(to_string(cause.code())) + ": " +
                       cause.message());
    lock.lock();
    stats_.retries += retries;
    stats_.backoff_ms += backoff_slept_ms;
    StoreMetrics& m = store_metrics();
    m.retries.add(retries);
    m.backoff_ms.add(backoff_slept_ms);
    if (!quarantined_.contains(shard)) m.quarantine_transitions.add();
    quarantined_.insert_or_assign(shard, wrapped);
    stats_.quarantined_shards = quarantined_.size();
    m.quarantined.set(static_cast<std::int64_t>(quarantined_.size()));
    return wrapped;
  };
  // Miss: file read, decompression, checksum, validation, and lookup
  // construction all run off-lock -- everything below touches only
  // immutable state (dir_, manifest_, options_), so concurrent misses
  // on different shards proceed in parallel instead of queuing behind
  // one decode. Transient failures (kUnavailable from the read layer)
  // retry with backoff; everything else is permanent.
  // Where the load's time goes, annotated on the span; only measured
  // when the span is recording.
  LoadCost cost;
  LoadCost* const costed = span.active() ? &cost : nullptr;
  const auto read_with_retry = [&]() -> Result<ShardData> {
    const RetryPolicy& policy = options_.retry_policy;
    const std::uint32_t attempts = std::max<std::uint32_t>(
        policy.max_attempts, 1);
    for (std::uint32_t attempt = 1;; ++attempt) {
      auto data =
          ShardReader::read_shard(dir_, manifest_.shards[shard], costed);
      if (data.ok() || attempt >= attempts ||
          data.status().code() != StatusCode::kUnavailable) {
        return data;
      }
      ++retries;
      const std::uint64_t wait_ms = backoff_ms(policy, shard, attempt);
      backoff_slept_ms += wait_ms;
      std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
    }
  };
  auto data = read_with_retry();
  if (!data.ok()) return fail(data.status());
  // The file is internally consistent (deserialize_shard checked); now
  // it must also be the file this manifest wrote, not a stray from
  // another store generation sharing the directory.
  LoadCost::Laps laps;
  if (Status s = check_shard(manifest_, shard, data.value()); !s.ok()) {
    return fail(s);
  }
  cost.verify_us += laps.lap();
  auto loaded = std::make_shared<LoadedShard>();
  loaded->data = std::move(data).value();
  loaded->decoded_bytes = manifest_.shards[shard].decoded_bytes;
  loaded->build_lookup();
  cost.index_us += laps.lap();
  if (costed != nullptr) {
    span.annotate("encoded_bytes", cost.encoded_bytes);
    span.annotate("decoded_bytes", cost.decoded_bytes);
    span.annotate("read_us", cost.read_us);
    span.annotate("verify_us", cost.verify_us);
    span.annotate("decompress_us", cost.decompress_us);
    span.annotate("decode_us", cost.decode_us);
    span.annotate("index_us", cost.index_us);
  }
  // Back under the lock only for the cache mutation itself; the guard
  // clears the in-flight mark (and wakes waiters) under this same
  // lock hold once the shard is resident.
  const std::uint64_t miss_wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - miss_started)
          .count());
  lock.lock();
  ++stats_.loads;
  stats_.retries += retries;
  stats_.backoff_ms += backoff_slept_ms;
  StoreMetrics& m = store_metrics();
  m.loads.add();
  m.retries.add(retries);
  m.backoff_ms.add(backoff_slept_ms);
  // Decode time proper: the miss wall clock minus backoff sleeps.
  const std::uint64_t slept_us = backoff_slept_ms * 1000;
  m.decode_us.observe(miss_wall_us > slept_us ? miss_wall_us - slept_us : 0);
  // Evict before inserting, so the cache never exceeds max(budget,
  // one shard) of decoded bytes. Pinned shards stay alive through
  // their shared_ptrs; eviction only drops the cache reference, and
  // the evicted-pin ledger keeps the honest peak honest until the
  // last pin drops.
  if (options_.memory_budget_bytes > 0) {
    while (!lru_.empty() &&
           stats_.resident_bytes + loaded->decoded_bytes >
               options_.memory_budget_bytes) {
      Entry& victim = lru_.back();
      stats_.resident_bytes -= victim.loaded->decoded_bytes;
      ++stats_.evictions;
      m.evictions.add();
      if (victim.loaded.use_count() > 1) {
        evicted_pinned_.emplace_back(victim.loaded,
                                     victim.loaded->decoded_bytes);
      }
      resident_.erase(victim.shard);
      lru_.pop_back();
    }
  }
  stats_.resident_bytes += loaded->decoded_bytes;
  stats_.peak_cache_bytes =
      std::max(stats_.peak_cache_bytes, stats_.resident_bytes);
  m.resident_bytes.set(static_cast<std::int64_t>(stats_.resident_bytes));
  refresh_pinned_locked();
  lru_.push_front(Entry{shard, loaded});
  resident_.emplace(shard, lru_.begin());
  return std::shared_ptr<const LoadedShard>(std::move(loaded));
}

ShardStore::Stats ShardStore::stats() const {
  std::lock_guard lock(mu_);
  refresh_pinned_locked();
  return stats_;
}

}  // namespace inspector::shard
