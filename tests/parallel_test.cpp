// Tests for the analysis worker pool (util/parallel.h): chunk
// coverage, the serial fast path, nesting, exception propagation, and
// the thread-count configuration the analyses and CLI knobs build on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "history_fixtures.h"
#include "util/parallel.h"

namespace {

using namespace inspector;
using inspector::fixtures::ThreadCountGuard;

TEST(TaskPool, CoversEveryIndexExactlyOnce) {
  util::TaskPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<bool> bad_worker{false};
  pool.parallel_for(0, kN, 7, [&](std::size_t b, std::size_t e, unsigned w) {
    if (w >= pool.worker_count()) bad_worker = true;
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  EXPECT_FALSE(bad_worker);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskPool, SingleWorkerRunsInlineAsOneChunk) {
  util::TaskPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  int calls = 0;
  pool.parallel_for(3, 1000, 10,
                    [&](std::size_t b, std::size_t e, unsigned w) {
                      ++calls;
                      EXPECT_EQ(b, 3u);
                      EXPECT_EQ(e, 1000u);
                      EXPECT_EQ(w, 0u);
                    });
  EXPECT_EQ(calls, 1) << "serial path must not split the range";
}

TEST(TaskPool, EmptyRangeDoesNothing) {
  util::TaskPool pool(2);
  pool.parallel_for(5, 5, 1, [](std::size_t, std::size_t, unsigned) {
    FAIL() << "empty range must not invoke the body";
  });
}

TEST(TaskPool, NestedParallelForRunsInline) {
  util::TaskPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t b, std::size_t e, unsigned) {
    for (std::size_t i = b; i < e; ++i) {
      // A chunk that itself builds a Graph would re-enter the pool;
      // the inner loop must run inline rather than deadlock.
      pool.parallel_for(0, 4, 1,
                        [&](std::size_t ib, std::size_t ie, unsigned iw) {
                          EXPECT_EQ(iw, 0u);
                          total.fetch_add(static_cast<int>(ie - ib));
                        });
    }
  });
  EXPECT_EQ(total.load(), 8 * 4);
}

TEST(TaskPool, ExceptionsPropagateToCaller) {
  util::TaskPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000, 1,
                        [](std::size_t b, std::size_t, unsigned) {
                          if (b == 500) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> ok{0};
  pool.parallel_for(0, 100, 1, [&](std::size_t, std::size_t, unsigned) {
    ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), 100);
}

TEST(TaskPool, WorkerLocalAccumulatesWithoutLoss) {
  util::TaskPool pool(4);
  util::WorkerLocal<std::uint64_t> sums(pool);
  constexpr std::size_t kN = 100'000;
  pool.parallel_for(0, kN, 128,
                    [&](std::size_t b, std::size_t e, unsigned w) {
                      for (std::size_t i = b; i < e; ++i) sums[w] += i;
                    });
  std::uint64_t total = 0;
  for (unsigned w = 0; w < pool.worker_count(); ++w) total += sums[w];
  EXPECT_EQ(total, kN * (kN - 1) / 2);
}

TEST(AnalysisThreads, ConfigurationRoundTrips) {
  ThreadCountGuard guard;
  util::set_analysis_threads(3);
  EXPECT_EQ(util::analysis_threads(), 3u);
  EXPECT_EQ(util::shared_pool()->worker_count(), 3u);
  // The shared pool is rebuilt on a size change, old handles stay valid.
  const auto old = util::shared_pool();
  util::set_analysis_threads(2);
  EXPECT_EQ(util::shared_pool()->worker_count(), 2u);
  EXPECT_EQ(old->worker_count(), 3u);
  // 0 resets to the environment/hardware default, which is always >= 1.
  util::set_analysis_threads(0);
  EXPECT_GE(util::analysis_threads(), 1u);
}

}  // namespace
