// Differential property suites for the guest-access fast paths.
//
// The fast paths are optimisations over semantics this file re-implements
// in the most boring way possible: a byte-at-a-time reference memory for
// PhysicalMemory's flat page table + aligned-word inlines, and a linear
// region scan for MemoryMap's sorted-index walk and AddressSpace's TLB.
// Each suite replays one seeded stream of randomized operations —
// aligned, unaligned, page-crossing, out-of-range — through both
// implementations and requires bit-identical results: values, status
// codes *and* rendered messages, fault records, dirty/resident
// accounting, snapshot round trips. Any divergence is a fast-path bug by
// definition; the reference is the spec.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/memory_map.hpp"
#include "mem/phys_mem.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace mcs::mem {
namespace {

// --- reference physical memory ---------------------------------------------

/// Byte-at-a-time model of PhysicalMemory: a map of zero-filled pages
/// materialised on first write, a dirty set, reads-of-holes return zero.
class ReferenceMemory {
 public:
  ReferenceMemory(PhysAddr base, std::uint64_t size) : base_(base), size_(size) {}

  [[nodiscard]] bool contains(PhysAddr addr, std::uint64_t len = 1) const {
    return addr >= base_ && len <= size_ && addr - base_ <= size_ - len;
  }

  [[nodiscard]] std::uint8_t read_byte(PhysAddr addr) const {
    const auto it = pages_.find((addr - base_) / kPageSize);
    if (it == pages_.end()) return 0;
    return it->second[(addr - base_) % kPageSize];
  }

  void write_byte(PhysAddr addr, std::uint8_t value) {
    const std::uint64_t index = (addr - base_) / kPageSize;
    auto [it, inserted] = pages_.try_emplace(index);
    if (inserted) it->second.fill(0);
    dirty_.insert(index);
    it->second[(addr - base_) % kPageSize] = value;
  }

  bool write(PhysAddr addr, const std::uint8_t* data, std::size_t len) {
    if (!contains(addr, len)) return false;
    for (std::size_t i = 0; i < len; ++i) write_byte(addr + i, data[i]);
    return true;
  }

  bool read(PhysAddr addr, std::uint8_t* out, std::size_t len) const {
    if (!contains(addr, len)) return false;
    for (std::size_t i = 0; i < len; ++i) out[i] = read_byte(addr + i);
    return true;
  }

  [[nodiscard]] std::size_t resident_pages() const { return pages_.size(); }
  [[nodiscard]] std::size_t dirty_pages() const { return dirty_.size(); }

  struct Capture {
    std::map<std::uint64_t, std::array<std::uint8_t, kPageSize>> pages;
    std::set<std::uint64_t> dirty;
  };

  [[nodiscard]] Capture capture() const { return {pages_, dirty_}; }

  /// Mirror of PhysicalMemory::restore_from: contents and dirty set back
  /// to the capture; residency is monotonic (restore never un-materialises).
  void restore(const Capture& capture) {
    for (auto& [index, page] : pages_) {
      const auto it = capture.pages.find(index);
      if (it != capture.pages.end()) {
        page = it->second;
      } else {
        page.fill(0);
      }
    }
    dirty_ = capture.dirty;
  }

 private:
  PhysAddr base_;
  std::uint64_t size_;
  std::map<std::uint64_t, std::array<std::uint8_t, kPageSize>> pages_;
  std::set<std::uint64_t> dirty_;
};

/// A window small enough that the stream revisits pages (exercising the
/// resident+dirty steady state) and cheap enough to compare bytewise.
constexpr PhysAddr kWinBase = 0x8000'0000;
constexpr std::uint64_t kWinSize = 64 * kPageSize;

/// Biased address generator: mostly in-range, deliberately including
/// page-edge offsets (crossing accesses) and out-of-range addresses just
/// past either end of the window.
PhysAddr gen_addr(util::Xoshiro256& rng) {
  const std::uint64_t roll = rng.next() % 100;
  if (roll < 6) return kWinBase - 1 - (rng.next() % 16);           // below
  if (roll < 12) return kWinBase + kWinSize - 8 + (rng.next() % 24);  // tail/past
  if (roll < 40) {  // page-edge neighbourhood: crossing + boundary cases
    const std::uint64_t page = rng.next() % (kWinSize / kPageSize);
    return kWinBase + page * kPageSize + kPageSize - 8 + (rng.next() % 16);
  }
  return kWinBase + rng.next() % kWinSize;  // anywhere (any alignment)
}

void expect_same_contents(const PhysicalMemory& dut, const ReferenceMemory& ref,
                          std::uint64_t tag) {
  std::vector<std::uint8_t> got(kWinSize);
  ASSERT_TRUE(dut.read_block(kWinBase, got).is_ok()) << "op " << tag;
  std::vector<std::uint8_t> want(kWinSize);
  ASSERT_TRUE(ref.read(kWinBase, want.data(), want.size()));
  ASSERT_EQ(got, want) << "contents diverged at op " << tag;
}

TEST(FastPathDifferential, PhysicalMemoryMatchesByteReference) {
  PhysicalMemory dut(kWinBase, kWinSize);
  ReferenceMemory ref(kWinBase, kWinSize);
  util::Xoshiro256 rng(0xD1FF'0001);

  util::Arena snap_arena(kWinSize);
  PhysicalMemory::Snapshot power_on;
  dut.snapshot_to(power_on, snap_arena);
  const ReferenceMemory::Capture ref_power_on = ref.capture();
  PhysicalMemory::Snapshot snapshot;
  ReferenceMemory::Capture ref_capture;
  bool captured = false;

  constexpr std::uint64_t kOps = 20'000;
  for (std::uint64_t op = 0; op < kOps; ++op) {
    const PhysAddr addr = gen_addr(rng);
    switch (rng.next() % 10) {
      case 0: {  // u8 write
        const auto value = static_cast<std::uint8_t>(rng.next());
        const util::Status status = dut.write_u8(addr, value);
        const bool ok = ref.write(addr, &value, 1);
        ASSERT_EQ(status.is_ok(), ok) << "op " << op;
        if (!ok) {
          ASSERT_EQ(status.code(), util::Code::EFault) << "op " << op;
        }
        break;
      }
      case 1: {  // u8 read
        const auto got = dut.read_u8(addr);
        std::uint8_t want = 0;
        const bool ok = ref.read(addr, &want, 1);
        ASSERT_EQ(got.is_ok(), ok) << "op " << op;
        if (ok) {
          ASSERT_EQ(got.value(), want) << "op " << op;
        }
        break;
      }
      case 2: {  // u32 write (aligned fast path when addr allows)
        std::uint32_t value;
        const std::uint64_t raw = rng.next();
        std::memcpy(&value, &raw, 4);
        const util::Status status = dut.write_u32(addr, value);
        std::uint8_t bytes[4];
        std::memcpy(bytes, &value, 4);
        const bool ok = ref.write(addr, bytes, 4);
        ASSERT_EQ(status.is_ok(), ok) << "op " << op;
        break;
      }
      case 3: {  // u32 read
        const auto got = dut.read_u32(addr);
        std::uint8_t bytes[4];
        const bool ok = ref.read(addr, bytes, 4);
        ASSERT_EQ(got.is_ok(), ok) << "op " << op;
        if (ok) {
          std::uint32_t want;
          std::memcpy(&want, bytes, 4);
          ASSERT_EQ(got.value(), want) << "op " << op;
        } else {
          ASSERT_EQ(got.status().code(), util::Code::EFault) << "op " << op;
        }
        break;
      }
      case 4: {  // u64 write
        const std::uint64_t value = rng.next();
        const util::Status status = dut.write_u64(addr, value);
        std::uint8_t bytes[8];
        std::memcpy(bytes, &value, 8);
        const bool ok = ref.write(addr, bytes, 8);
        ASSERT_EQ(status.is_ok(), ok) << "op " << op;
        break;
      }
      case 5: {  // u64 read
        const auto got = dut.read_u64(addr);
        std::uint8_t bytes[8];
        const bool ok = ref.read(addr, bytes, 8);
        ASSERT_EQ(got.is_ok(), ok) << "op " << op;
        if (ok) {
          std::uint64_t want;
          std::memcpy(&want, bytes, 8);
          ASSERT_EQ(got.value(), want) << "op " << op;
        }
        break;
      }
      case 6: {  // block write crossing up to 2 pages
        std::vector<std::uint8_t> payload(1 + rng.next() % (2 * kPageSize));
        for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.next());
        const util::Status status = dut.write_block(addr, payload);
        const bool ok = ref.write(addr, payload.data(), payload.size());
        ASSERT_EQ(status.is_ok(), ok) << "op " << op;
        break;
      }
      case 7: {  // block read
        std::vector<std::uint8_t> got(1 + rng.next() % (2 * kPageSize));
        const util::Status status = dut.read_block(addr, got);
        std::vector<std::uint8_t> want(got.size());
        const bool ok = ref.read(addr, want.data(), want.size());
        ASSERT_EQ(status.is_ok(), ok) << "op " << op;
        if (ok) {
          ASSERT_EQ(got, want) << "op " << op;
        }
        break;
      }
      case 8: {  // fill
        const std::uint64_t len = 1 + rng.next() % kPageSize;
        const auto value = static_cast<std::uint8_t>(rng.next());
        const util::Status status = dut.fill(addr, len, value);
        std::vector<std::uint8_t> payload(len, value);
        const bool ok = ref.write(addr, payload.data(), payload.size());
        ASSERT_EQ(status.is_ok(), ok) << "op " << op;
        break;
      }
      case 9: {  // aligned word at an address forced onto the fast path
        const PhysAddr aligned =
            kWinBase + (rng.next() % kWinSize & ~std::uint64_t{7});
        const std::uint64_t value = rng.next();
        ASSERT_TRUE(dut.write_u64(aligned, value).is_ok()) << "op " << op;
        std::uint8_t bytes[8];
        std::memcpy(bytes, &value, 8);
        ASSERT_TRUE(ref.write(aligned, bytes, 8));
        const auto got = dut.read_u32(aligned);
        std::uint8_t lo[4];
        ASSERT_TRUE(ref.read(aligned, lo, 4));
        std::uint32_t want;
        std::memcpy(&want, lo, 4);
        ASSERT_EQ(got.value(), want) << "op " << op;
        break;
      }
    }

    // Lifecycle events at fixed stream positions: capture mid-stream,
    // restore later, restore power-on later still — the reference tracks
    // the same contract (contents + dirty set; residency monotonic).
    if (op == 7'000) {
      dut.snapshot_to(snapshot, snap_arena);
      ref_capture = ref.capture();
      captured = true;
    }
    if (op == 13'000 && captured) {
      dut.restore_from(snapshot);
      ref.restore(ref_capture);
      expect_same_contents(dut, ref, op);
    }
    if (op == 17'000) {
      dut.restore_from(power_on);
      ref.restore(ref_power_on);
      expect_same_contents(dut, ref, op);
    }

    if (op % 2'000 == 1'999) {
      ASSERT_EQ(dut.resident_pages(), ref.resident_pages()) << "op " << op;
      ASSERT_EQ(dut.dirty_pages(), ref.dirty_pages()) << "op " << op;
      expect_same_contents(dut, ref, op);
    }
  }

  // The stream must actually have exercised both halves of the split.
  EXPECT_GT(dut.fast_ops(), 0u);
  EXPECT_GT(dut.slow_ops(), 0u);
}

// --- reference stage-2 walk -------------------------------------------------

struct RefWalk {
  bool ok = false;
  PhysAddr phys = 0;
  std::string region_name;
  util::Code code = util::Code::Ok;
  Stage2Fault fault;
};

/// Linear scan with MemoryMap::translate's exact fault semantics: the
/// unique region containing `addr` is the only candidate; a candidate too
/// small for `len` is a translation fault, wrong permissions a permission
/// fault.
RefWalk ref_translate(const std::vector<MemRegion>& regions, GuestAddr addr,
                      Access access, std::uint64_t len) {
  RefWalk out;
  for (const MemRegion& region : regions) {
    if (addr < region.virt_start || addr - region.virt_start >= region.size) {
      continue;
    }
    if (!region.contains(addr, len)) break;  // straddles the region end
    if (!region.allows(access)) {
      out.code = util::Code::EPerm;
      out.fault = Stage2Fault{addr, access, FaultKind::Permission};
      return out;
    }
    out.ok = true;
    out.phys = region.phys_start + (addr - region.virt_start);
    out.region_name = region.name;
    return out;
  }
  out.code = util::Code::EFault;
  out.fault = Stage2Fault{addr, access, FaultKind::NoMapping};
  return out;
}

TEST(FastPathDifferential, TranslateAndTlbMatchLinearScanAcrossMutations) {
  PhysicalMemory dram(kWinBase, kWinSize);
  MemoryMap map;
  AddressSpace space(map, dram);
  util::Xoshiro256 rng(0xD1FF'0002);

  // Guest layout: 32 slots of 0x1000 starting at 0x1000'0000; a slot is
  // either free or covered by a region of 1-3 slots. Region names encode
  // their slot so remove-by-name is deterministic.
  constexpr GuestAddr kGuestBase = 0x1000'0000;
  constexpr std::uint64_t kSlot = 0x1000;
  constexpr std::uint64_t kSlots = 32;

  const auto occupied = [&](GuestAddr start, std::uint64_t size) {
    for (const MemRegion& region : map.regions()) {
      if (start < region.virt_start + region.size &&
          region.virt_start < start + size) {
        return true;
      }
    }
    return false;
  };

  const auto mutate = [&] {
    switch (rng.next() % 4) {
      case 0: {  // add a random region in free guest space
        MemRegion region;
        const std::uint64_t slot = rng.next() % kSlots;
        region.virt_start = kGuestBase + slot * kSlot;
        region.size = (1 + rng.next() % 3) * kSlot;
        region.phys_start = kWinBase + (rng.next() % (kWinSize / 2) & ~(kSlot - 1));
        region.flags = 1 + static_cast<std::uint32_t>(rng.next() % 7);  // R/W/X mix
        region.name = "slot" + std::to_string(slot);
        if (!occupied(region.virt_start, region.size)) {
          ASSERT_TRUE(map.add_region(region).is_ok());
        } else {
          // Overlap rejection must not disturb the map (pinned below by
          // the post-mutation differential queries).
          (void)map.add_region(region);
        }
        break;
      }
      case 1: {  // remove a random name (present or not)
        map.remove_regions_named("slot" + std::to_string(rng.next() % kSlots));
        break;
      }
      case 2: {  // carve a random physical range (splits/removes regions)
        const PhysAddr start = kWinBase + (rng.next() % kWinSize & ~(kSlot - 1));
        map.carve_out_phys(start, (1 + rng.next() % 2) * kSlot);
        break;
      }
      case 3: {  // snapshot → restore round trip (generation must bump)
        MemoryMap::Snapshot snapshot;
        map.snapshot_to(snapshot);
        map.restore_from(snapshot);
        break;
      }
    }
  };

  constexpr std::uint64_t kQueries = 8'000;
  for (std::uint64_t query = 0; query < kQueries; ++query) {
    if (query % 40 == 0) mutate();

    const GuestAddr addr = kGuestBase - kSlot + rng.next() % ((kSlots + 2) * kSlot);
    const auto access = static_cast<Access>(rng.next() % 3);
    const std::uint64_t len = std::array<std::uint64_t, 4>{1, 4, 8, 16}[rng.next() % 4];

    // Ground truth: linear scan over a *copy* of the live region list.
    const std::vector<MemRegion> regions = map.regions();
    const RefWalk want = ref_translate(regions, addr, access, len);

    const auto walk = map.translate(addr, access, len);
    ASSERT_EQ(walk.is_ok(), want.ok) << "query " << query;
    const auto cached = space.translate_cached(addr, access, len);
    ASSERT_EQ(cached.is_ok(), want.ok) << "query " << query;

    if (want.ok) {
      ASSERT_EQ(walk.value().phys, want.phys) << "query " << query;
      ASSERT_EQ(walk.value().region->name, want.region_name) << "query " << query;
      ASSERT_EQ(cached.value().phys, want.phys) << "query " << query;
      ASSERT_EQ(cached.value().region->name, want.region_name)
          << "query " << query;
      ASSERT_FALSE(map.last_fault().has_value()) << "query " << query;
    } else {
      ASSERT_EQ(walk.status().code(), want.code) << "query " << query;
      ASSERT_EQ(cached.status().code(), want.code) << "query " << query;
      ASSERT_EQ(cached.status().message(), walk.status().message())
          << "query " << query;
      ASSERT_TRUE(map.last_fault().has_value()) << "query " << query;
      ASSERT_EQ(*map.last_fault(), want.fault) << "query " << query;
    }
  }

  // The stream must have exercised both TLB outcomes.
  EXPECT_GT(space.tlb_hits(), 0u);
  EXPECT_GT(space.tlb_misses(), 0u);
}

}  // namespace
}  // namespace mcs::mem
