// Per-thread MMU simulation: page protection, fault-driven read/write
// sets, copy-on-write private pages, and the twin-diff shared-memory
// commit (INSPECTOR §V-A; mechanism from TreadMarks/Munin/Dthreads).
//
// Lifecycle, mirroring the paper:
//   begin_subcomputation()   -- mprotect(PROT_NONE) the shared ranges:
//                               every first touch per page will fault;
//   read_word()/write_word() -- accesses; the first touch of a page
//                               faults and copies the shared page into a
//                               private one; the first write takes a
//                               write fault and snapshots the private
//                               page (the "twin") before changing it;
//   commit()                 -- at the next synchronization point, diff
//                               each dirty page against its twin and
//                               apply the changed bytes to the shared
//                               store (last-writer-wins), then drop the
//                               private mapping so other threads'
//                               updates become visible (RC model).
//
// Reads never change a private page, so a twin taken at the first write
// equals the page as the first touch copied it. It is never taken from
// the shared page, which a peer may have committed to since. Page
// buffers come from a per-thread free list that commit() and
// begin_subcomputation() refill.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "memtrack/shared_memory.h"
#include "util/page_set.h"

namespace inspector::memtrack {

/// Counters the fig-7 table and fig-6 breakdown report.
struct MemtrackStats {
  std::uint64_t read_faults = 0;
  std::uint64_t write_faults = 0;
  std::uint64_t commits = 0;
  std::uint64_t pages_committed = 0;   ///< dirty pages diffed+applied
  std::uint64_t bytes_changed = 0;     ///< bytes that actually differed
  std::uint64_t subcomputations = 0;

  [[nodiscard]] std::uint64_t page_faults() const noexcept {
    return read_faults + write_faults;
  }
};

/// Result of one shared-memory commit.
struct CommitResult {
  std::uint64_t dirty_pages = 0;
  std::uint64_t bytes_changed = 0;
};

/// The private address-space view of one thread-as-process.
class ThreadMemory {
 public:
  explicit ThreadMemory(SharedMemory& shared) : shared_(&shared) {}

  /// Re-protect all pages: subsequent first touches fault. Clears the
  /// read/write sets of the previous sub-computation.
  void begin_subcomputation();

  /// Tracked accesses (words, 8-byte aligned).
  [[nodiscard]] std::uint64_t read_word(std::uint64_t addr);
  void write_word(std::uint64_t addr, std::uint64_t value);

  /// Diff dirty pages against their twins and publish the deltas to the
  /// shared store; drops every private page (updates from peers become
  /// visible afterwards). Called at synchronization points.
  CommitResult commit();

  /// Pages read / written by the current sub-computation, as sorted
  /// page-id sets -- exactly the representation the recorder stores, so
  /// handing them over needs no conversion. Accesses append in O(1)
  /// (first-touch is detected on the private page entry the fault
  /// already looks up); the sort happens at most once per
  /// sub-computation, here.
  [[nodiscard]] const PageSet& read_set() const {
    normalize(read_set_, read_sorted_);
    return read_set_;
  }
  [[nodiscard]] const PageSet& write_set() const {
    normalize(write_set_, write_sorted_);
    return write_set_;
  }

  /// Move the sets out (leaves them empty); the runtime calls these at
  /// a synchronization point right before commit()/begin_subcomputation()
  /// resets them anyway, saving the copy.
  [[nodiscard]] PageSet take_read_set() {
    normalize(read_set_, read_sorted_);
    return std::exchange(read_set_, {});
  }
  [[nodiscard]] PageSet take_write_set() {
    normalize(write_set_, write_sorted_);
    return std::exchange(write_set_, {});
  }

  [[nodiscard]] const MemtrackStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t private_pages() const noexcept {
    return pages_.size();
  }

 private:
  struct PrivatePage {
    std::unique_ptr<PageData> data;  ///< thread's working copy
    /// Snapshot taken at the first write; null while the page is only
    /// read.
    std::unique_ptr<PageData> twin;
    // First-touch markers: whether this page is already in the
    // read/write set of the current sub-computation. A page is dirty
    // exactly when it is in the write set.
    bool in_read_set = false;
    bool in_write_set = false;
  };

  PrivatePage& fault_in(std::uint64_t page_id);
  /// A page buffer from the free list, or a fresh one (contents unset).
  std::unique_ptr<PageData> take_buffer();
  /// Drop every private page, returning its buffers to the free list,
  /// and reset the page sets.
  void drop_private_pages();

  /// Append keeping track of sortedness; sorting is deferred to the
  /// accessors so the access hot path never shifts vector tails.
  static void append(PageSet& set, bool& sorted, std::uint64_t page) {
    if (!set.empty() && set.back() >= page) sorted = false;
    set.push_back(page);
  }
  static void normalize(PageSet& set, bool& sorted) {
    if (!sorted) {
      page_set_normalize(set);
      sorted = true;
    }
  }

  SharedMemory* shared_;
  std::unordered_map<std::uint64_t, PrivatePage> pages_;
  std::vector<std::unique_ptr<PageData>> free_buffers_;
  mutable PageSet read_set_;
  mutable PageSet write_set_;
  mutable bool read_sorted_ = true;
  mutable bool write_sorted_ = true;
  MemtrackStats stats_;
};

}  // namespace inspector::memtrack
