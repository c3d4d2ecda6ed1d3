// MMIO device interface. Devices live in the Allwinner A20 peripheral
// window (below DRAM); the bus routes physical accesses by range.
//
// Time contract (the event-driven tick scheduler):
//
//   Devices no longer receive an unconditional tick() callback on every
//   board tick. Instead each device *publishes* the absolute tick of the
//   next moment it needs service through next_deadline(), and the board
//   calls tick(now) only when that deadline arrives. The board may leap
//   the clock across any span that contains no published deadline, so
//   tick(now) must treat `now` as authoritative absolute time — never
//   count invocations. Deadlines are *absolute*, so the board caches the
//   earliest one and devices signal re-arms through a shared deadline
//   generation: every code path that can change a device's published
//   deadline (MMIO reprogramming, internal re-arm in tick(), snapshot
//   restore) must call note_deadline_change(), and the board
//   re-polls only when the generation moved. A device that never calls
//   it must publish kNoDeadline forever (the quiescent default). New
//   device models (e.g. a NIC) inherit this contract.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "util/clock.hpp"
#include "util/status.hpp"

namespace mcs::platform {

using PhysAddr = std::uint64_t;

/// "Nothing scheduled": a deadline no simulation can reach.
inline constexpr util::Ticks kNoDeadline{
    std::numeric_limits<std::uint64_t>::max()};

class Device {
 public:
  Device(std::string name, PhysAddr base, std::uint64_t size)
      : name_(std::move(name)), base_(base), size_(size) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] PhysAddr base() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  [[nodiscard]] bool contains(PhysAddr addr) const noexcept {
    return addr >= base_ && addr - base_ < size_;
  }

  /// Register read at byte offset from base.
  [[nodiscard]] virtual util::Expected<std::uint32_t> mmio_read(std::uint64_t offset) = 0;

  /// Register write at byte offset from base.
  virtual util::Status mmio_write(std::uint64_t offset, std::uint32_t value) = 0;

  /// Absolute tick of the next self-scheduled event (strictly in the
  /// future), or kNoDeadline when the device is quiescent. The board
  /// skips straight to the earliest published deadline.
  [[nodiscard]] virtual util::Ticks next_deadline(util::Ticks /*now*/) const {
    return kNoDeadline;
  }

  /// Service the device at absolute time `now`. Called only when a
  /// published deadline is due; `now` may be arbitrarily far past the
  /// previous call (default: nothing to do).
  virtual void tick(util::Ticks /*now*/) {}

  /// Board wiring: point the device at the board's deadline generation
  /// counter so note_deadline_change() can invalidate the board's cached
  /// earliest deadline. Unbound devices (unit tests) bump nothing.
  void bind_deadline_gen(std::uint64_t* gen) noexcept { deadline_gen_ = gen; }

 protected:
  /// Call from every code path that may change next_deadline()'s answer.
  void note_deadline_change() noexcept {
    if (deadline_gen_ != nullptr) ++*deadline_gen_;
  }

 private:
  std::string name_;
  PhysAddr base_;
  std::uint64_t size_;
  std::uint64_t* deadline_gen_ = nullptr;
};

}  // namespace mcs::platform
