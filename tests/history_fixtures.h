// Shared recorder-history fixtures for the determinism suites.
//
// Both the parallel-analysis determinism tests and the query-engine
// determinism tests rebuild the same randomized histories at several
// worker counts and compare outputs; the builders live here so the two
// suites cannot drift apart. Everything is deterministic given the
// seed -- that is the point.
#pragma once

#include <cstdint>
#include <random>
#include <utility>

#include "cpg/graph.h"
#include "cpg/recorder.h"
#include "util/page_set.h"
#include "util/parallel.h"

namespace inspector::fixtures {

/// Restores the environment/hardware analysis thread count on scope
/// exit, so a test that pins worker counts cannot leak its setting.
struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_analysis_threads(0); }
};

inline constexpr std::uint64_t kPageUniverse = 16;

inline PageSet random_pages(std::mt19937_64& rng) {
  PageSet pages;
  const std::size_t count = rng() % 6;
  for (std::size_t i = 0; i < count; ++i) {
    pages.push_back(rng() % kPageUniverse);
  }
  return pages;
}

/// A small multi-threaded history: random lock/unlock interleavings
/// over a shared mutex pool with random page sets. Deterministic given
/// the seed, so every worker count sees the exact same recorded
/// history.
inline cpg::Graph random_history(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::uint32_t threads = 2 + rng() % 4;
  const std::uint32_t mutexes = 1 + rng() % 3;
  cpg::Recorder rec;
  for (std::uint32_t t = 0; t < threads; ++t) rec.thread_started(t, t);
  const std::size_t steps = 40 + rng() % 60;
  for (std::size_t i = 0; i < steps; ++i) {
    const std::uint32_t t = rng() % threads;
    const auto m = sync::make_object_id(sync::ObjectKind::kMutex,
                                        1 + rng() % mutexes);
    switch (rng() % 4) {
      case 0:
      case 1:
        rec.end_subcomputation(t, random_pages(rng), random_pages(rng),
                               {sync::SyncEventKind::kMutexLock, m});
        break;
      case 2:
        rec.on_release(t, m);
        break;
      default:
        rec.on_acquire(t, m);
        break;
    }
  }
  for (std::uint32_t t = 0; t < threads; ++t) {
    rec.thread_exiting(t, random_pages(rng), random_pages(rng));
  }
  return std::move(rec).finalize();
}

/// A barrier-round history: every thread merges its clock at each
/// round boundary, so round boundaries are global synchronization
/// points -- the shape that gives shard::rank_prefix clean cuts and
/// shard::append a genuinely incremental suffix. Deterministic given
/// (seed, rounds).
inline cpg::Graph barrier_history(std::uint64_t seed, std::uint32_t rounds) {
  std::mt19937_64 rng(seed);
  const std::uint32_t threads = 3 + rng() % 3;
  const auto barrier = sync::make_object_id(sync::ObjectKind::kBarrier, 1);
  cpg::Recorder rec;
  for (std::uint32_t t = 0; t < threads; ++t) rec.thread_started(t, t);
  for (std::uint32_t r = 0; r < rounds; ++r) {
    for (std::uint32_t t = 0; t < threads; ++t) {
      rec.end_subcomputation(t, random_pages(rng), random_pages(rng),
                             {sync::SyncEventKind::kBarrierWait, barrier});
      rec.on_release(t, barrier);
    }
    for (std::uint32_t t = 0; t < threads; ++t) rec.on_acquire(t, barrier);
  }
  for (std::uint32_t t = 0; t < threads; ++t) {
    rec.thread_exiting(t, random_pages(rng), random_pages(rng));
  }
  return std::move(rec).finalize();
}

/// A history big and page-dense enough to push the analyses past
/// their serial cutoffs (multi-chunk race scans and propagation
/// rounds), so cross-worker comparisons exercise the genuinely
/// parallel code paths, not their inline fallbacks.
inline cpg::Graph dense_history(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  constexpr std::uint64_t kDensePages = 96;
  const std::uint32_t threads = 4 + rng() % 4;
  cpg::Recorder rec;
  for (std::uint32_t t = 0; t < threads; ++t) rec.thread_started(t, t);
  const auto m = sync::make_object_id(sync::ObjectKind::kMutex, 1);
  for (std::size_t i = 0; i < 1200; ++i) {
    const std::uint32_t t = rng() % threads;
    PageSet reads;
    PageSet writes;
    for (std::size_t k = 0; k < 4 + rng() % 8; ++k) {
      reads.push_back(rng() % kDensePages);
      writes.push_back(rng() % kDensePages);
    }
    switch (rng() % 4) {
      case 0:
        rec.on_release(t, m);
        break;
      case 1:
        rec.on_acquire(t, m);
        break;
      default:
        rec.end_subcomputation(t, std::move(reads), std::move(writes),
                               {sync::SyncEventKind::kMutexLock, m});
        break;
    }
  }
  for (std::uint32_t t = 0; t < threads; ++t) {
    rec.thread_exiting(t, random_pages(rng), random_pages(rng));
  }
  return std::move(rec).finalize();
}

}  // namespace inspector::fixtures
