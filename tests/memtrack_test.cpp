// MMU-tracking tests: fault-driven read/write sets, COW privacy, twin
// diffs, last-writer-wins commits, and the RC visibility rules (§V-A).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "memtrack/allocator.h"
#include "memtrack/shared_memory.h"
#include "memtrack/thread_memory.h"

namespace {

using namespace inspector::memtrack;
using inspector::page_set_contains;

TEST(SharedMemory, ZeroFilledOnFirstUse) {
  SharedMemory shm;
  EXPECT_EQ(shm.read_word(0x1000), 0u);
  EXPECT_EQ(shm.resident_pages(), 0u) << "reads must not materialize pages";
  shm.write_word(0x1000, 42);
  EXPECT_EQ(shm.resident_pages(), 1u);
  EXPECT_EQ(shm.read_word(0x1000), 42u);
}

TEST(SharedMemory, PageIdsSorted) {
  SharedMemory shm;
  shm.write_word(0x5000, 1);
  shm.write_word(0x1000, 1);
  shm.write_word(0x3000, 1);
  EXPECT_EQ(shm.page_ids(), (std::vector<std::uint64_t>{1, 3, 5}));
}

TEST(SharedMemory, ByteAccessors) {
  SharedMemory shm;
  shm.write_byte(0x2001, 0xAB);
  EXPECT_EQ(shm.read_byte(0x2001), 0xAB);
  EXPECT_EQ(shm.read_byte(0x2002), 0x00);
}

class ThreadMemoryTest : public ::testing::Test {
 protected:
  SharedMemory shm_;
};

TEST_F(ThreadMemoryTest, FirstReadFaultsOncePerPage) {
  ThreadMemory tm(shm_);
  tm.begin_subcomputation();
  (void)tm.read_word(0x1000);
  (void)tm.read_word(0x1008);  // same page: no second fault
  (void)tm.read_word(0x2000);  // new page: faults
  EXPECT_EQ(tm.stats().read_faults, 2u);
  EXPECT_EQ(tm.read_set().size(), 2u);
  EXPECT_TRUE(page_set_contains(tm.read_set(), 1u));
  EXPECT_TRUE(page_set_contains(tm.read_set(), 2u));
}

TEST_F(ThreadMemoryTest, WriteAfterReadUpgrades) {
  ThreadMemory tm(shm_);
  tm.begin_subcomputation();
  (void)tm.read_word(0x1000);
  tm.write_word(0x1000, 7);
  EXPECT_EQ(tm.stats().read_faults, 1u);
  EXPECT_EQ(tm.stats().write_faults, 1u);
  EXPECT_TRUE(page_set_contains(tm.read_set(), 1u));
  EXPECT_TRUE(page_set_contains(tm.write_set(), 1u));
}

TEST_F(ThreadMemoryTest, ReadAfterWriteDoesNotFault) {
  // A written page is mapped read-write: the read cannot trap, so it is
  // only in the write set (mirrors the real mprotect scheme).
  ThreadMemory tm(shm_);
  tm.begin_subcomputation();
  tm.write_word(0x1000, 7);
  (void)tm.read_word(0x1000);
  EXPECT_EQ(tm.stats().read_faults, 0u);
  EXPECT_FALSE(page_set_contains(tm.read_set(), 1u));
}

TEST_F(ThreadMemoryTest, ReprotectAtSubcomputationBoundary) {
  ThreadMemory tm(shm_);
  tm.begin_subcomputation();
  (void)tm.read_word(0x1000);
  (void)tm.commit();
  tm.begin_subcomputation();
  (void)tm.read_word(0x1000);  // faults again after re-protection
  EXPECT_EQ(tm.stats().read_faults, 2u);
  EXPECT_EQ(tm.stats().subcomputations, 2u);
}

TEST_F(ThreadMemoryTest, WritesInvisibleUntilCommit) {
  ThreadMemory writer(shm_);
  ThreadMemory reader(shm_);
  writer.begin_subcomputation();
  reader.begin_subcomputation();

  writer.write_word(0x1000, 99);
  EXPECT_EQ(reader.read_word(0x1000), 0u) << "RC: no visibility before sync";
  EXPECT_EQ(shm_.read_word(0x1000), 0u);

  (void)writer.commit();
  EXPECT_EQ(shm_.read_word(0x1000), 99u);
  // The reader's private copy was snapshotted pre-commit; a new
  // sub-computation (new acquire) sees the update.
  reader.begin_subcomputation();
  EXPECT_EQ(reader.read_word(0x1000), 99u);
}

TEST_F(ThreadMemoryTest, CommitReportsDiffedBytes) {
  ThreadMemory tm(shm_);
  tm.begin_subcomputation();
  tm.write_word(0x1000, 0x01);          // 1 byte changes (little-endian)
  tm.write_word(0x1100, 0x0102030405ull);  // 5 bytes change
  const CommitResult result = tm.commit();
  EXPECT_EQ(result.dirty_pages, 1u);
  EXPECT_EQ(result.bytes_changed, 6u);
}

TEST_F(ThreadMemoryTest, RedundantWriteProducesNoDiff) {
  shm_.write_word(0x1000, 42);
  ThreadMemory tm(shm_);
  tm.begin_subcomputation();
  tm.write_word(0x1000, 42);  // same value as shared
  const CommitResult result = tm.commit();
  EXPECT_EQ(result.dirty_pages, 1u);
  EXPECT_EQ(result.bytes_changed, 0u) << "twin diff suppresses no-op writes";
}

TEST_F(ThreadMemoryTest, DisjointWritesToSamePageMerge) {
  // Two threads dirty different words of the same page; both updates
  // must survive (the diff applies only changed bytes).
  ThreadMemory a(shm_);
  ThreadMemory b(shm_);
  a.begin_subcomputation();
  b.begin_subcomputation();
  a.write_word(0x1000, 1);
  b.write_word(0x1008, 2);
  (void)a.commit();
  (void)b.commit();
  EXPECT_EQ(shm_.read_word(0x1000), 1u);
  EXPECT_EQ(shm_.read_word(0x1008), 2u);
}

TEST_F(ThreadMemoryTest, OverlappingWritesLastCommitterWins) {
  ThreadMemory a(shm_);
  ThreadMemory b(shm_);
  a.begin_subcomputation();
  b.begin_subcomputation();
  a.write_word(0x1000, 111);
  b.write_word(0x1000, 222);
  (void)a.commit();
  (void)b.commit();
  EXPECT_EQ(shm_.read_word(0x1000), 222u) << "last-writer-wins (§V-A)";
}

TEST_F(ThreadMemoryTest, CommitDropsPrivatePages) {
  ThreadMemory tm(shm_);
  tm.begin_subcomputation();
  tm.write_word(0x1000, 5);
  EXPECT_EQ(tm.private_pages(), 1u);
  (void)tm.commit();
  EXPECT_EQ(tm.private_pages(), 0u);
}

TEST_F(ThreadMemoryTest, OwnWritesPersistAcrossSubcomputations) {
  ThreadMemory tm(shm_);
  tm.begin_subcomputation();
  tm.write_word(0x1000, 77);
  (void)tm.commit();
  tm.begin_subcomputation();
  EXPECT_EQ(tm.read_word(0x1000), 77u);
}

TEST_F(ThreadMemoryTest, PageFaultTotals) {
  ThreadMemory tm(shm_);
  tm.begin_subcomputation();
  (void)tm.read_word(0x1000);
  tm.write_word(0x2000, 1);
  tm.write_word(0x1000, 2);
  EXPECT_EQ(tm.stats().page_faults(), 3u);  // 1 read + 2 write
}

TEST_F(ThreadMemoryTest, CommitDiffMatchesAByteByByteReference) {
  // Random words written over random page contents: the same value
  // again, or a value differing in 1 to 8 of its bytes. The word-wise
  // diff must publish exactly the bytes a byte-by-byte compare finds.
  std::mt19937_64 rng(11);
  constexpr std::uint64_t kBase = 0x7000;
  for (int round = 0; round < 40; ++round) {
    SharedMemory shm;
    for (std::uint64_t off = 0; off < kPageSize; off += 8) {
      shm.write_word(kBase + off, rng());
    }
    const PageData before = *shm.find_page(page_id_of(kBase));
    PageData mine = before;

    ThreadMemory tm(shm);
    tm.begin_subcomputation();
    if (round % 2 == 0) (void)tm.read_word(kBase);  // read fault first
    const int writes = 1 + static_cast<int>(rng() % 64);
    for (int w = 0; w < writes; ++w) {
      const std::uint64_t off = 8 * (rng() % (kPageSize / 8));
      std::uint8_t bytes[8];
      std::memcpy(bytes, mine.data() + off, 8);
      // Flip k distinct bytes (k = 0 rewrites the value already there).
      const std::uint64_t k = rng() % 9;
      std::uint8_t order[8] = {0, 1, 2, 3, 4, 5, 6, 7};
      std::shuffle(std::begin(order), std::end(order), rng);
      for (std::uint64_t i = 0; i < k; ++i) {
        bytes[order[i]] ^= static_cast<std::uint8_t>(1 + rng() % 255);
      }
      std::uint64_t value = 0;
      std::memcpy(&value, bytes, 8);
      tm.write_word(kBase + off, value);
      std::memcpy(mine.data() + off, &value, 8);
    }

    std::uint64_t expected = 0;
    for (std::uint64_t i = 0; i < kPageSize; ++i) {
      if (mine[i] != before[i]) ++expected;
    }
    const CommitResult result = tm.commit();
    EXPECT_EQ(result.dirty_pages, 1u);
    EXPECT_EQ(result.bytes_changed, expected) << "round " << round;
    EXPECT_EQ(*shm.find_page(page_id_of(kBase)), mine) << "round " << round;
  }
}

TEST_F(ThreadMemoryTest, TwinIsThePrivatePageNotTheSharedOne) {
  // A reads page P; B writes word X of P and commits; A then writes
  // word Y. A's twin must be P as A first touched it: a twin copied
  // from the shared page at A's write would make A's stale X look
  // changed and publish it over B's.
  ThreadMemory a(shm_);
  ThreadMemory b(shm_);
  a.begin_subcomputation();
  b.begin_subcomputation();
  (void)a.read_word(0x1000);
  b.write_word(0x1008, 0xBB);
  (void)b.commit();
  a.write_word(0x1010, 0xAA);
  const CommitResult result = a.commit();
  EXPECT_EQ(shm_.read_word(0x1008), 0xBBu) << "B's word X was overwritten";
  EXPECT_EQ(shm_.read_word(0x1010), 0xAAu);
  EXPECT_EQ(result.bytes_changed, 1u) << "only word Y's one byte changed";
}

TEST_F(ThreadMemoryTest, ReusedPageBuffersStartFromTheSharedPage) {
  // Buffers return to the free list at commit; a later fault must see
  // the shared contents, never a previous page's bytes.
  ThreadMemory tm(shm_);
  tm.begin_subcomputation();
  tm.write_word(0x1000, 0x1111);
  tm.write_word(0x2000, 0x2222);
  (void)tm.commit();
  tm.begin_subcomputation();
  EXPECT_EQ(tm.read_word(0x3000), 0u);
  EXPECT_EQ(tm.read_word(0x2008), 0u);
  EXPECT_EQ(tm.read_word(0x2000), 0x2222u);
  tm.write_word(0x4000, 0);
  EXPECT_EQ(tm.commit().bytes_changed, 0u);
}

// --- allocator ---------------------------------------------------------

TEST(BumpAllocator, AlignsAndAdvances) {
  BumpAllocator alloc(0x1000, 0x1000);
  const auto a = alloc.allocate(5);
  const auto b = alloc.allocate(8);
  EXPECT_EQ(a, 0x1000u);
  EXPECT_EQ(b, 0x1008u) << "5 rounds to 8";
  EXPECT_EQ(alloc.allocations(), 2u);
  EXPECT_EQ(alloc.bytes_allocated(), 16u);
}

TEST(BumpAllocator, PageAlignSpreadsPages) {
  BumpAllocator alloc(AddressLayout::kHeapBase, 1 << 20);
  const auto a = alloc.allocate(16);
  alloc.align_to_page();
  const auto b = alloc.allocate(16);
  EXPECT_NE(page_id_of(a), page_id_of(b));
}

TEST(BumpAllocator, ExhaustionThrows) {
  BumpAllocator alloc(0x1000, 16);
  (void)alloc.allocate(16);
  EXPECT_THROW((void)alloc.allocate(1), std::bad_alloc);
}

TEST(BumpAllocator, ZeroSizeAllocationsAreDistinct) {
  BumpAllocator alloc(0x1000, 0x100);
  const auto a = alloc.allocate(0);
  const auto b = alloc.allocate(0);
  EXPECT_NE(a, b);
}

TEST(Regions, ClassifyAddresses) {
  EXPECT_EQ(region_of(AddressLayout::kCodeBase + 8), Region::kCode);
  EXPECT_EQ(region_of(AddressLayout::kGlobalsBase + 8), Region::kGlobals);
  EXPECT_EQ(region_of(AddressLayout::kHeapBase + 8), Region::kHeap);
  EXPECT_EQ(region_of(AddressLayout::kInputBase + 8), Region::kInput);
  EXPECT_EQ(region_of(0x10), Region::kOther);
}

}  // namespace
