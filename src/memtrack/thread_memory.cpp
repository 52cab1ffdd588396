#include "memtrack/thread_memory.h"

#include <cassert>
#include <cstring>

namespace inspector::memtrack {

namespace {

/// Bytes of `now` that differ from `was`, applied to `shared`. Words
/// are compared whole; only a word that differs is walked byte by byte.
std::uint64_t apply_diff(const PageData& now, const PageData& was,
                         PageData& shared) {
  std::uint64_t changed = 0;
  for (std::uint64_t w = 0; w < kPageSize; w += 8) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, now.data() + w, 8);
    std::memcpy(&b, was.data() + w, 8);
    if (a == b) continue;
    for (std::uint64_t i = w; i < w + 8; ++i) {
      if (now[i] != was[i]) {
        shared[i] = now[i];
        ++changed;
      }
    }
  }
  return changed;
}

}  // namespace

void ThreadMemory::begin_subcomputation() {
  // mprotect(PROT_NONE): drop private views so the next touch faults and
  // re-snapshots from the shared store.
  drop_private_pages();
  ++stats_.subcomputations;
}

void ThreadMemory::drop_private_pages() {
  for (auto& [pid, page] : pages_) {
    free_buffers_.push_back(std::move(page.data));
    if (page.twin != nullptr) free_buffers_.push_back(std::move(page.twin));
  }
  pages_.clear();
  read_set_.clear();
  write_set_.clear();
  read_sorted_ = true;
  write_sorted_ = true;
}

std::unique_ptr<PageData> ThreadMemory::take_buffer() {
  if (free_buffers_.empty()) return std::make_unique_for_overwrite<PageData>();
  std::unique_ptr<PageData> buffer = std::move(free_buffers_.back());
  free_buffers_.pop_back();
  return buffer;
}

ThreadMemory::PrivatePage& ThreadMemory::fault_in(std::uint64_t page_id) {
  auto it = pages_.find(page_id);
  if (it != pages_.end()) return it->second;

  // First touch in this sub-computation: the hardware would raise
  // SIGSEGV; the signal handler copies the shared page (the COW).
  PrivatePage page;
  page.data = take_buffer();
  if (const PageData* shared_page = shared_->find_page(page_id)) {
    *page.data = *shared_page;
  } else {
    page.data->fill(0);
  }
  return pages_.emplace(page_id, std::move(page)).first->second;
}

std::uint64_t ThreadMemory::read_word(std::uint64_t addr) {
  assert(addr % 8 == 0 && "word access must be 8-byte aligned");
  const std::uint64_t pid = page_id_of(addr);
  PrivatePage& page = fault_in(pid);
  // A page the thread already wrote is mapped read-write; reading it
  // cannot fault, so (as in the real mprotect scheme) it is only in the
  // write set.
  if (!page.in_write_set && !page.in_read_set) {
    page.in_read_set = true;
    append(read_set_, read_sorted_, pid);
    ++stats_.read_faults;
  }
  std::uint64_t value = 0;
  std::memcpy(&value, page.data->data() + page_offset(addr), 8);
  return value;
}

void ThreadMemory::write_word(std::uint64_t addr, std::uint64_t value) {
  assert(addr % 8 == 0 && "word access must be 8-byte aligned");
  const std::uint64_t pid = page_id_of(addr);
  PrivatePage& page = fault_in(pid);
  if (!page.in_write_set) {
    page.in_write_set = true;
    append(write_set_, write_sorted_, pid);
    ++stats_.write_faults;
    // The write fault keeps the twin the commit diffs against.
    page.twin = take_buffer();
    *page.twin = *page.data;
  }
  std::memcpy(page.data->data() + page_offset(addr), &value, 8);
}

CommitResult ThreadMemory::commit() {
  CommitResult result;
  for (auto& [pid, page] : pages_) {
    if (!page.in_write_set) continue;
    ++result.dirty_pages;
    // Diff against the twin; only changed bytes are applied, so
    // disjoint writes by concurrent threads merge and overlapping
    // writes resolve last-writer-wins by commit order (§V-A).
    result.bytes_changed +=
        apply_diff(*page.data, *page.twin, shared_->page(pid));
  }
  ++stats_.commits;
  stats_.pages_committed += result.dirty_pages;
  stats_.bytes_changed += result.bytes_changed;
  // Dropping the private mappings resets the first-touch markers that
  // live on them; clear the page sets too so the two stay coupled (a
  // touch after commit is a fresh fault, as under real re-protection).
  drop_private_pages();
  return result;
}

}  // namespace inspector::memtrack
