// Sparse physical memory model for the Banana Pi's 1 GB of DRAM.
//
// Backed by 4 KiB pages allocated on first touch so a full-board model
// costs only what the workload actually dirties. Page storage comes from
// a util::Arena owned by the memory itself: materialising a page is a
// pointer bump, and restoring a snapshot rewrites resident pages *in
// place* — no frees, no allocations. Restoring the empty power-on
// snapshot zeroes them, which is what lets a pooled testbed reuse its
// board RAM windows run after run.
//
// Page lookup is a *flat pointer table* indexed by page number (2 MiB of
// pointers for the 1 GiB window) instead of a hash map: the per-access
// cost is one shift, one load and one null check. Aligned u32/u64
// accesses take an inline fast path straight into the page — no
// byte-buffer hop, no page-cross handling (a 4-aligned u32 / 8-aligned
// u64 can never cross a 4 KiB boundary). Unaligned or page-crossing
// accesses fall back to the block path, which is bit-identical.
//
// Pages are dirty-tracked: every write path marks its page, and the
// invariant "a resident page not on the dirty list is all-zero" lets
// snapshot capture and restore touch only the pages a run actually wrote
// instead of the whole resident set. All accesses are bounds checked
// against the DRAM window; device windows live *outside* DRAM and are
// handled by the board's MMIO dispatch, not here.
//
// While a golden suffix runs (fi::CampaignExecutor), every access also
// reports the pages it spans to a util::TouchLog — fast and slow paths,
// reads and writes, reads of pages not yet materialised. Outside golden
// suffixes the log pointer is null and each access pays one predictable
// branch.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/arena.hpp"
#include "util/status.hpp"
#include "util/touch_log.hpp"

namespace mcs::mem {

using PhysAddr = std::uint64_t;

/// Banana Pi (Allwinner A20) DRAM window.
inline constexpr PhysAddr kDramBase = 0x4000'0000;
inline constexpr std::uint64_t kDramSize = 1ULL << 30;  // 1 GiB
inline constexpr std::uint64_t kPageSize = 4096;

class PhysicalMemory {
 public:
  PhysicalMemory() : PhysicalMemory(kDramBase, kDramSize) {}
  PhysicalMemory(PhysAddr base, std::uint64_t size)
      : base_(base),
        size_(size),
        table_((size + kPageSize - 1) / kPageSize, nullptr),
        dirty_flags_((size + kPageSize - 1) / kPageSize, 0) {}

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  [[nodiscard]] PhysAddr base() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  [[nodiscard]] bool contains(PhysAddr addr, std::uint64_t len = 1) const noexcept {
    return addr >= base_ && len <= size_ && addr - base_ <= size_ - len;
  }

  util::Status write_u8(PhysAddr addr, std::uint8_t value);

  /// Aligned word fast path: one table load, one memcpy into the page.
  /// The page must already be materialised *and* dirty (the steady state
  /// once a run has written it once); first touches take the slow path,
  /// which materialises and dirty-marks exactly as before.
  util::Status write_u32(PhysAddr addr, std::uint32_t value) {
    const std::uint64_t off = addr - base_;  // wraps huge when addr < base_
    if ((off & 3) == 0 && (off | 3) < size_) [[likely]] {
      const std::uint64_t index = off / kPageSize;
      if (std::uint8_t* page = table_[index];
          page != nullptr && dirty_flags_[index] != 0) {
        if (touches_ != nullptr) [[unlikely]] touches_->note(index);
        ++fast_ops_;
        std::memcpy(page + (off & (kPageSize - 1)), &value, 4);
        return util::ok_status();
      }
    }
    return write_u32_slow(addr, value);
  }

  util::Status write_u64(PhysAddr addr, std::uint64_t value) {
    const std::uint64_t off = addr - base_;
    if ((off & 7) == 0 && (off | 7) < size_) [[likely]] {
      const std::uint64_t index = off / kPageSize;
      if (std::uint8_t* page = table_[index];
          page != nullptr && dirty_flags_[index] != 0) {
        if (touches_ != nullptr) [[unlikely]] touches_->note(index);
        ++fast_ops_;
        std::memcpy(page + (off & (kPageSize - 1)), &value, 8);
        return util::ok_status();
      }
    }
    return write_u64_slow(addr, value);
  }

  util::Status write_block(PhysAddr addr, std::span<const std::uint8_t> data);

  [[nodiscard]] util::Expected<std::uint8_t> read_u8(PhysAddr addr) const;

  /// Aligned word fast path; a hole (non-resident page) reads zero
  /// without materialising anything, exactly like the block path.
  [[nodiscard]] util::Expected<std::uint32_t> read_u32(PhysAddr addr) const {
    const std::uint64_t off = addr - base_;
    if ((off & 3) == 0 && (off | 3) < size_) [[likely]] {
      ++fast_ops_;
      if (touches_ != nullptr) [[unlikely]] touches_->note(off / kPageSize);
      const std::uint8_t* page = table_[off / kPageSize];
      if (page == nullptr) return std::uint32_t{0};
      std::uint32_t value;
      std::memcpy(&value, page + (off & (kPageSize - 1)), 4);
      return value;
    }
    return read_u32_slow(addr);
  }

  [[nodiscard]] util::Expected<std::uint64_t> read_u64(PhysAddr addr) const {
    const std::uint64_t off = addr - base_;
    if ((off & 7) == 0 && (off | 7) < size_) [[likely]] {
      ++fast_ops_;
      if (touches_ != nullptr) [[unlikely]] touches_->note(off / kPageSize);
      const std::uint8_t* page = table_[off / kPageSize];
      if (page == nullptr) return std::uint64_t{0};
      std::uint64_t value;
      std::memcpy(&value, page + (off & (kPageSize - 1)), 8);
      return value;
    }
    return read_u64_slow(addr);
  }

  util::Status read_block(PhysAddr addr, std::span<std::uint8_t> out) const;

  /// Fill [addr, addr+len) with `value`.
  util::Status fill(PhysAddr addr, std::uint64_t len, std::uint8_t value);

  /// Number of 4 KiB pages materialised so far.
  [[nodiscard]] std::size_t resident_pages() const noexcept { return resident_; }

  /// Pages written since construction or the last restore_from() — the
  /// set the next power-on restore has to zero (and a snapshot has to
  /// copy). Always ≤ resident_pages().
  [[nodiscard]] std::size_t dirty_pages() const noexcept {
    return dirty_list_.size();
  }

  // --- instrumentation (monotonic; never restored, never snapshotted) ---
  /// Aligned word accesses served by the inline fast path.
  [[nodiscard]] std::uint64_t fast_ops() const noexcept { return fast_ops_; }
  /// Accesses that went through the byte-block slow path (unaligned,
  /// page-crossing, first-touch writes, block transfers, faults).
  [[nodiscard]] std::uint64_t slow_ops() const noexcept { return slow_ops_; }

  /// Report every page an access spans to `touches` from now on (null
  /// stops reporting). Not part of the memory's state: never
  /// snapshotted.
  void set_touch_log(util::TouchLog* touches) noexcept { touches_ = touches; }

  /// Drop all contents and page residency (cold reset: the next touch
  /// re-materialises from the rewound arena).
  void clear() noexcept {
    std::fill(table_.begin(), table_.end(), nullptr);
    std::fill(dirty_flags_.begin(), dirty_flags_.end(), std::uint8_t{0});
    dirty_list_.clear();
    resident_ = 0;
    arena_.reset();
  }

  /// Copy-on-capture image of the dirty page set. Page payloads live in
  /// the arena handed to snapshot_to(); the snapshot is valid until that
  /// arena rewinds past them.
  struct Snapshot {
    struct Page {
      std::uint64_t index = 0;       ///< page number within the DRAM window
      const std::uint8_t* data = nullptr;  ///< kPageSize bytes, arena-owned
    };
    std::vector<Page> pages;  ///< sorted by index (binary-search restore)
    [[nodiscard]] std::size_t bytes() const noexcept {
      return pages.size() * kPageSize;
    }
  };

  /// Capture every dirty page into `arena`-owned storage. The capture is
  /// exact: restore_from() reproduces the memory contents bit for bit.
  void snapshot_to(Snapshot& out, util::Arena& arena) const;

  /// Restore the captured contents in place. Touches the pages that are
  /// currently dirty and the snapshot's pages, so the cost scales with
  /// what the run wrote, and the dirty set afterwards equals the
  /// snapshot's. Dirty pages the snapshot lacks are zeroed and stay
  /// resident, so the empty power-on snapshot reads like a new memory. A
  /// snapshot taken later than the current state (a golden suffix's
  /// ladder rung) may hold pages that are clean here; those are
  /// materialised and copied. Zero heap allocations in steady state.
  void restore_from(const Snapshot& snapshot);

 private:
  /// Pages are arena chunks; a resident page is always fully initialised.
  [[nodiscard]] const std::uint8_t* find_page(PhysAddr addr) const noexcept {
    return table_[(addr - base_) / kPageSize];
  }
  std::uint8_t* touch_page(PhysAddr addr);
  /// Report the pages of [addr, addr+len) to the touch log, if one is set.
  void note_span(PhysAddr addr, std::uint64_t len) const {
    if (touches_ == nullptr || len == 0) [[likely]] return;
    for (std::uint64_t page = (addr - base_) / kPageSize;
         page <= (addr - base_ + len - 1) / kPageSize; ++page) {
      touches_->note(page);
    }
  }

  // Out-of-line slow halves of the word accessors (unaligned, crossing,
  // out-of-range, first touch); all funnel through the block path.
  util::Status write_u32_slow(PhysAddr addr, std::uint32_t value);
  util::Status write_u64_slow(PhysAddr addr, std::uint64_t value);
  [[nodiscard]] util::Expected<std::uint32_t> read_u32_slow(PhysAddr addr) const;
  [[nodiscard]] util::Expected<std::uint64_t> read_u64_slow(PhysAddr addr) const;

  PhysAddr base_ = kDramBase;
  std::uint64_t size_ = kDramSize;
  /// 64 pages per block: a booted testbed dirties a few dozen pages, so
  /// the whole working set fits in one or two blocks.
  util::Arena arena_{64 * kPageSize};
  /// Page number → page storage (nullptr while not materialised).
  std::vector<std::uint8_t*> table_;
  /// Page number → written-since-last-restore flag (mirrors dirty_list_).
  std::vector<std::uint8_t> dirty_flags_;
  /// Indexes of pages written since the last restore (unordered;
  /// capacity kept across restores for the zero-allocation steady state).
  std::vector<std::uint64_t> dirty_list_;
  std::size_t resident_ = 0;
  mutable std::uint64_t fast_ops_ = 0;
  mutable std::uint64_t slow_ops_ = 0;
  util::TouchLog* touches_ = nullptr;
};

}  // namespace mcs::mem
