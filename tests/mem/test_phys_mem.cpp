#include "mem/phys_mem.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mcs::mem {
namespace {

TEST(PhysicalMemory, DefaultsToBananaPiDram) {
  PhysicalMemory dram;
  EXPECT_EQ(dram.base(), kDramBase);
  EXPECT_EQ(dram.size(), kDramSize);
}

TEST(PhysicalMemory, ContainsChecksRange) {
  PhysicalMemory dram;
  EXPECT_TRUE(dram.contains(kDramBase));
  EXPECT_TRUE(dram.contains(kDramBase + kDramSize - 1));
  EXPECT_FALSE(dram.contains(kDramBase + kDramSize));
  EXPECT_FALSE(dram.contains(kDramBase - 1));
  EXPECT_TRUE(dram.contains(kDramBase + kDramSize - 4, 4));
  EXPECT_FALSE(dram.contains(kDramBase + kDramSize - 3, 4));
}

TEST(PhysicalMemory, ByteRoundTrip) {
  PhysicalMemory dram;
  ASSERT_TRUE(dram.write_u8(kDramBase + 5, 0xAB).is_ok());
  auto value = dram.read_u8(kDramBase + 5);
  ASSERT_TRUE(value.is_ok());
  EXPECT_EQ(value.value(), 0xAB);
}

TEST(PhysicalMemory, WordRoundTrip) {
  PhysicalMemory dram;
  ASSERT_TRUE(dram.write_u32(kDramBase + 0x100, 0xDEADBEEF).is_ok());
  EXPECT_EQ(dram.read_u32(kDramBase + 0x100).value(), 0xDEADBEEFu);
  ASSERT_TRUE(dram.write_u64(kDramBase + 0x200, 0x0123456789ABCDEFull).is_ok());
  EXPECT_EQ(dram.read_u64(kDramBase + 0x200).value(), 0x0123456789ABCDEFull);
}

TEST(PhysicalMemory, UntouchedMemoryReadsZero) {
  PhysicalMemory dram;
  EXPECT_EQ(dram.read_u32(kDramBase + 0x7000).value(), 0u);
  EXPECT_EQ(dram.resident_pages(), 0u);  // reads allocate nothing
}

TEST(PhysicalMemory, OutOfRangeAccessFails) {
  PhysicalMemory dram;
  EXPECT_EQ(dram.write_u32(kDramBase - 4, 1).code(), util::Code::EFault);
  EXPECT_FALSE(dram.read_u32(kDramBase + kDramSize).is_ok());
  EXPECT_EQ(dram.write_u32(kDramBase + kDramSize - 2, 1).code(),
            util::Code::EFault);  // straddles the end
}

TEST(PhysicalMemory, BlockCrossesPageBoundary) {
  PhysicalMemory dram;
  std::vector<std::uint8_t> payload(3 * kPageSize, 0);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  const PhysAddr addr = kDramBase + kPageSize - 100;  // unaligned start
  ASSERT_TRUE(dram.write_block(addr, payload).is_ok());
  std::vector<std::uint8_t> read_back(payload.size(), 0xFF);
  ASSERT_TRUE(dram.read_block(addr, read_back).is_ok());
  EXPECT_EQ(read_back, payload);
}

TEST(PhysicalMemory, SparsePagesAllocatedOnWrite) {
  PhysicalMemory dram;
  EXPECT_EQ(dram.resident_pages(), 0u);
  (void)dram.write_u8(kDramBase, 1);
  (void)dram.write_u8(kDramBase + 100 * kPageSize, 1);
  EXPECT_EQ(dram.resident_pages(), 2u);
}

TEST(PhysicalMemory, FillAndClear) {
  PhysicalMemory dram;
  ASSERT_TRUE(dram.fill(kDramBase + 10, 3 * kPageSize, 0x5A).is_ok());
  EXPECT_EQ(dram.read_u8(kDramBase + 10).value(), 0x5A);
  EXPECT_EQ(dram.read_u8(kDramBase + 10 + 3 * kPageSize - 1).value(), 0x5A);
  EXPECT_EQ(dram.read_u8(kDramBase + 9).value(), 0u);
  dram.clear();
  EXPECT_EQ(dram.read_u8(kDramBase + 10).value(), 0u);
  EXPECT_EQ(dram.resident_pages(), 0u);
}

TEST(PhysicalMemory, ReadBlockFromHoleYieldsZeros) {
  PhysicalMemory dram;
  (void)dram.write_u8(kDramBase + kPageSize, 0x11);  // page 1 resident
  std::vector<std::uint8_t> out(2 * kPageSize, 0xFF);
  ASSERT_TRUE(dram.read_block(kDramBase, out).is_ok());
  EXPECT_EQ(out[0], 0u);                 // hole
  EXPECT_EQ(out[kPageSize], 0x11u);      // resident page
}

TEST(PhysicalMemory, DirtyTrackingFollowsWrites) {
  PhysicalMemory dram;
  EXPECT_EQ(dram.dirty_pages(), 0u);
  (void)dram.write_u8(kDramBase, 1);
  (void)dram.write_u8(kDramBase + 8, 2);  // same page: one dirty entry
  EXPECT_EQ(dram.dirty_pages(), 1u);
  (void)dram.write_u32(kDramBase + 10 * kPageSize, 3);
  EXPECT_EQ(dram.dirty_pages(), 2u);
  // Reads never dirty (nor materialise) pages.
  (void)dram.read_u64(kDramBase + 50 * kPageSize);
  EXPECT_EQ(dram.dirty_pages(), 2u);
}

TEST(PhysicalMemory, ResetContentsClearsDirtySetButKeepsResidency) {
  PhysicalMemory dram;
  util::Arena arena;
  PhysicalMemory::Snapshot power_on;
  dram.snapshot_to(power_on, arena);
  (void)dram.fill(kDramBase, 2 * kPageSize, 0x77);
  ASSERT_EQ(dram.dirty_pages(), 2u);
  dram.restore_from(power_on);
  EXPECT_EQ(dram.dirty_pages(), 0u);
  EXPECT_EQ(dram.resident_pages(), 2u);
  EXPECT_EQ(dram.read_u8(kDramBase).value(), 0u);
  // Re-dirtying a clean resident page re-enters the dirty list once.
  (void)dram.write_u8(kDramBase, 9);
  (void)dram.write_u8(kDramBase + 1, 9);
  EXPECT_EQ(dram.dirty_pages(), 1u);
}

TEST(PhysicalMemory, SnapshotRoundTripIsBitExact) {
  PhysicalMemory dram;
  util::Arena arena(64 * kPageSize);
  (void)dram.write_u32(kDramBase + 0x40, 0xDEADBEEF);
  (void)dram.write_u64(kDramBase + 7 * kPageSize + 8, 0x0123456789ABCDEFull);
  PhysicalMemory::Snapshot snapshot;
  dram.snapshot_to(snapshot, arena);
  EXPECT_EQ(snapshot.pages.size(), 2u);
  EXPECT_EQ(snapshot.bytes(), 2 * kPageSize);

  // Mutate captured pages and dirty a brand-new one.
  (void)dram.write_u32(kDramBase + 0x40, 0);
  (void)dram.write_u8(kDramBase + 20 * kPageSize, 0xEE);
  ASSERT_EQ(dram.dirty_pages(), 3u);

  dram.restore_from(snapshot);
  EXPECT_EQ(dram.read_u32(kDramBase + 0x40).value(), 0xDEADBEEFu);
  EXPECT_EQ(dram.read_u64(kDramBase + 7 * kPageSize + 8).value(),
            0x0123456789ABCDEFull);
  // The page written after capture is back to power-on zero and clean.
  EXPECT_EQ(dram.read_u8(kDramBase + 20 * kPageSize).value(), 0u);
  // The dirty set after restore equals the snapshot's page set.
  EXPECT_EQ(dram.dirty_pages(), 2u);
}

TEST(PhysicalMemory, RestoreIsRepeatable) {
  // Run → restore → run → restore must keep reproducing the capture: the
  // executor restores the same snapshot for every run of a slot.
  PhysicalMemory dram;
  util::Arena arena(64 * kPageSize);
  (void)dram.write_u32(kDramBase, 0xA5A5A5A5);
  PhysicalMemory::Snapshot snapshot;
  dram.snapshot_to(snapshot, arena);
  for (int round = 0; round < 3; ++round) {
    (void)dram.write_u32(kDramBase, 0x11111111u * static_cast<unsigned>(round));
    (void)dram.write_u8(kDramBase + (5 + static_cast<std::uint64_t>(round)) * kPageSize, 1);
    dram.restore_from(snapshot);
    EXPECT_EQ(dram.read_u32(kDramBase).value(), 0xA5A5A5A5u) << round;
    EXPECT_EQ(dram.dirty_pages(), 1u) << round;
  }
}

TEST(PhysicalMemory, EmptySnapshotRestoresToAllZero) {
  PhysicalMemory dram;
  util::Arena arena(16 * kPageSize);
  PhysicalMemory::Snapshot snapshot;
  dram.snapshot_to(snapshot, arena);  // nothing dirty: empty capture
  EXPECT_EQ(snapshot.pages.size(), 0u);
  (void)dram.write_u32(kDramBase + kPageSize, 0xBADF00D);
  dram.restore_from(snapshot);
  EXPECT_EQ(dram.read_u32(kDramBase + kPageSize).value(), 0u);
  EXPECT_EQ(dram.dirty_pages(), 0u);
}

// A golden suffix's touch log must see every page an access spans, on
// every path: the inline word fast paths (holes included), first-touch
// writes, byte and block accesses, fills. One page per path, so a path
// that stops reporting fails on its own page.
TEST(PhysicalMemory, TouchLogSeesEveryAccessPath) {
  PhysicalMemory dram;
  const auto page_addr = [](std::uint64_t page) { return kDramBase + page * kPageSize; };
  // Make pages 2 and 3 resident and dirty before tracking starts, so the
  // word writes below take the fast path.
  ASSERT_TRUE(dram.write_u32(page_addr(2), 1).is_ok());
  ASSERT_TRUE(dram.write_u32(page_addr(3), 1).is_ok());
  util::TouchLog log;
  dram.set_touch_log(&log);
  log.note(util::TouchLog::page_key(2));  // before interval 0: dropped
  log.begin_interval(0);
  const std::uint64_t slow_before = dram.slow_ops();
  EXPECT_TRUE(dram.read_u32(page_addr(0)).is_ok());       // fast read of a hole
  EXPECT_TRUE(dram.read_u64(page_addr(1) + 8).is_ok());   // fast u64 read of a hole
  EXPECT_TRUE(dram.write_u32(page_addr(2) + 4, 7).is_ok());  // fast write
  EXPECT_TRUE(dram.write_u64(page_addr(3) + 8, 7).is_ok());  // fast u64 write
  EXPECT_EQ(dram.slow_ops(), slow_before);  // all four took the fast path
  EXPECT_TRUE(dram.write_u32(page_addr(4), 7).is_ok());   // first touch: slow
  EXPECT_TRUE(dram.write_u8(page_addr(5), 7).is_ok());
  EXPECT_TRUE(dram.read_u8(page_addr(6)).is_ok());
  EXPECT_TRUE(dram.read_u32(page_addr(8) - 2).is_ok());   // crosses 7 → 8
  std::vector<std::uint8_t> block(16, 1);
  EXPECT_TRUE(dram.write_block(page_addr(9), block).is_ok());
  EXPECT_TRUE(dram.fill(page_addr(10), 8, 3).is_ok());
  dram.set_touch_log(nullptr);
  EXPECT_TRUE(dram.read_u32(page_addr(11)).is_ok());      // not tracked any more
  for (std::uint64_t page = 0; page <= 10; ++page) {
    EXPECT_TRUE(log.touched_since(util::TouchLog::page_key(page), 0)) << page;
  }
  EXPECT_FALSE(log.touched_since(util::TouchLog::page_key(11), 0));
  EXPECT_EQ(log.size(), 11u);
}

// A ladder rung is captured later than the state it is restored into, so
// its pages can be clean there: restore must materialise and copy them.
TEST(PhysicalMemory, RestoreFromALaterSnapshotBringsItsPagesBack) {
  PhysicalMemory dram;
  util::Arena arena;
  PhysicalMemory::Snapshot power_on;
  dram.snapshot_to(power_on, arena);
  ASSERT_TRUE(dram.write_u32(kDramBase, 0x11).is_ok());
  PhysicalMemory::Snapshot earlier;
  dram.snapshot_to(earlier, arena);
  ASSERT_TRUE(dram.write_u32(kDramBase + 5 * kPageSize, 0x55).is_ok());
  ASSERT_TRUE(dram.write_u32(kDramBase, 0x22).is_ok());
  PhysicalMemory::Snapshot later;
  dram.snapshot_to(later, arena);

  dram.restore_from(earlier);
  EXPECT_EQ(dram.dirty_pages(), 1u);
  EXPECT_EQ(dram.read_u32(kDramBase + 5 * kPageSize).value(), 0u);
  dram.restore_from(later);
  EXPECT_EQ(dram.dirty_pages(), 2u);
  EXPECT_EQ(dram.read_u32(kDramBase).value(), 0x22u);
  EXPECT_EQ(dram.read_u32(kDramBase + 5 * kPageSize).value(), 0x55u);
  // The dirty list holds each page once: a power-on restore scrubs both.
  dram.restore_from(power_on);
  EXPECT_EQ(dram.dirty_pages(), 0u);
  EXPECT_EQ(dram.read_u32(kDramBase + 5 * kPageSize).value(), 0u);
}

}  // namespace
}  // namespace mcs::mem
