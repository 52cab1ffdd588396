// A small fork-join worker pool for the analysis runtime.
//
// Analyses (index construction, the page-major race scan, taint /
// incremental propagation) decompose into independent chunks -- nodes,
// pages, topological levels -- whose results merge deterministically. TaskPool runs those chunks on persistent worker
// threads; `parallel_for` hands out fixed-grain chunks through an
// atomic cursor, the caller participates as worker 0, and a
// single-worker pool degenerates to a plain inline loop with zero
// synchronization, so the serial path costs nothing.
//
// Every consumer is required to produce bit-identical results at every
// worker count: workers may only write disjoint slots or accumulate
// into per-worker scratch (WorkerLocal) that the caller merges in a
// fixed order afterwards.
//
// The pool size for the analysis layer comes from
// `set_analysis_threads()` or the INSPECTOR_ANALYSIS_THREADS
// environment variable (default: hardware_concurrency).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace inspector::util {

class TaskPool {
 public:
  /// `workers` = 0 picks the configured analysis thread count.
  explicit TaskPool(unsigned workers = 0);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  [[nodiscard]] unsigned worker_count() const noexcept { return workers_; }

  using ChunkFn =
      std::function<void(std::size_t begin, std::size_t end, unsigned worker)>;

  /// Run `fn` over [begin, end) in chunks of at most `grain` indices.
  /// Chunks are claimed dynamically but carry no identity: a correct
  /// `fn` writes only to index-addressed slots or to worker-addressed
  /// scratch, so the result cannot depend on which worker ran what.
  /// Worker ids passed to `fn` are in [0, worker_count()); the calling
  /// thread is worker 0. Exceptions thrown by `fn` are rethrown here
  /// (first one wins). Serial fallbacks: a one-worker pool, a range
  /// within a single grain, or a call from inside a running chunk (the
  /// pool does not nest) all run `fn(begin, end, 0)` inline.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const ChunkFn& fn);

 private:
  void worker_loop(unsigned self);
  void run_chunks(unsigned self);

  unsigned workers_ = 1;
  std::vector<std::thread> threads_;  ///< workers_ - 1 helper threads

  std::mutex submit_mu_;  ///< serializes concurrent parallel_for callers

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::uint64_t epoch_ = 0;    ///< bumps once per submitted job
  unsigned active_ = 0;        ///< helpers still inside the current job
  const ChunkFn* fn_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::size_t grain_ = 1;
  std::atomic<std::size_t> cursor_{0};
  std::atomic<bool> abort_{false};  ///< set on first exception
  std::exception_ptr error_;
};

/// Per-worker scratch accumulators, one cache-line-aligned slot per
/// worker so concurrent accumulation never false-shares. Merge by
/// iterating slots in worker order after the parallel_for returns.
template <typename T>
class WorkerLocal {
 public:
  explicit WorkerLocal(const TaskPool& pool) : slots_(pool.worker_count()) {}

  [[nodiscard]] T& operator[](unsigned worker) { return slots_[worker].value; }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

 private:
  struct alignas(64) Slot {
    T value{};
  };
  std::vector<Slot> slots_;
};

/// The analysis thread count: last set_analysis_threads() value, else
/// INSPECTOR_ANALYSIS_THREADS, else hardware_concurrency. Always >= 1.
[[nodiscard]] unsigned analysis_threads();

/// Override the analysis thread count (>= 1 enforced; 0 resets to the
/// environment/hardware default). Takes effect on the next
/// shared_pool() acquisition.
void set_analysis_threads(unsigned workers);

/// The process-wide analysis pool, sized to analysis_threads(). Hold
/// the returned shared_ptr for the duration of the operation; when the
/// configured count changes, the pool is rebuilt and old holders keep
/// their (still valid) instance until they drop it.
[[nodiscard]] std::shared_ptr<TaskPool> shared_pool();

/// Parse a user-supplied analysis thread count (CLI flags, config
/// files): a plain decimal integer in [1, 1024]. Returns nullopt on
/// anything else -- including negative values, trailing junk, and the
/// wrap-around cases std::stoul would accept.
[[nodiscard]] std::optional<unsigned> parse_analysis_threads(
    const std::string& value);

}  // namespace inspector::util
