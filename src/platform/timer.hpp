// Per-CPU periodic timer (models the Cortex-A7 generic timer's virtual
// timer PPI). Drives both guests' schedulers: FreeRTOS's tick interrupt
// and the root cell's jiffy tick.
//
// Internally the timer keeps *absolute* fire deadlines against the board
// clock instead of per-tick countdowns, so the board's deadline scheduler
// can leap idle spans in one jump: next_deadline() is the earliest armed
// fire tick and tick(now) fires every deadline that is due at `now`.
// Programming semantics are unchanged from the countdown model — a timer
// started at tick T with period p first fires at T+p, and a disabled
// timer's residual count is frozen until re-enable.
#pragma once

#include <array>
#include <cstdint>

#include "irq/gic.hpp"
#include "platform/device.hpp"
#include "util/clock.hpp"

namespace mcs::platform {

/// Virtual timer PPI line (architectural: PPI 27).
inline constexpr irq::IrqId kVirtualTimerPpi = 27;

/// Register offsets (simplified control block per CPU, stride 0x10).
inline constexpr std::uint64_t kTimerCtl = 0x0;     ///< bit0 enable
inline constexpr std::uint64_t kTimerInterval = 0x4;  ///< period in ticks
inline constexpr std::uint64_t kTimerCount = 0x8;   ///< ticks until fire (RO)
inline constexpr std::uint64_t kTimerStride = 0x10;

class PeriodicTimer final : public Device {
 public:
  /// `clock` is the board clock the deadlines are kept against; it must
  /// outlive the timer (the board owns both).
  PeriodicTimer(std::string name, PhysAddr base, irq::Gic& gic, int num_cpus,
                const util::SimClock& clock);

  [[nodiscard]] util::Expected<std::uint32_t> mmio_read(std::uint64_t offset) override;
  util::Status mmio_write(std::uint64_t offset, std::uint32_t value) override;
  [[nodiscard]] util::Ticks next_deadline(util::Ticks now) const override;
  void tick(util::Ticks now) override;

  /// Convenience for guests that program the timer directly (the usual
  /// path in the simulation; MMIO exists for device-model completeness).
  void start(int cpu, std::uint32_t period_ticks);
  void stop(int cpu);
  [[nodiscard]] bool is_running(int cpu) const noexcept;
  [[nodiscard]] std::uint64_t fires(int cpu) const noexcept;

  // --- snapshot / restore (testbed warm-start) --------------------------
  /// Deadlines are absolute board ticks, so a snapshot restored together
  /// with the board clock reproduces the exact fire schedule.
  struct Snapshot;
  void snapshot_to(Snapshot& out) const noexcept;
  void restore_from(const Snapshot& snapshot) noexcept;

 private:
  struct PerCpu {
    bool enabled = false;
    std::uint32_t interval = 0;
    /// Absolute tick of the next fire while enabled; kNoDeadline when
    /// nothing is scheduled.
    util::Ticks next_fire = kNoDeadline;
    /// Residual ticks-to-fire captured on disable (the countdown model's
    /// frozen `remaining`), re-armed relative to `now` on enable.
    std::uint32_t paused_remaining = 0;
    std::uint64_t fires = 0;
  };

  /// Residual ticks until fire as the countdown model would report it.
  [[nodiscard]] std::uint32_t remaining(const PerCpu& state) const noexcept;

  irq::Gic* gic_;
  int num_cpus_;
  const util::SimClock* clock_;
  std::array<PerCpu, irq::kMaxCpus> cpus_{};
};

struct PeriodicTimer::Snapshot {
  std::array<PerCpu, irq::kMaxCpus> cpus{};
};

inline void PeriodicTimer::snapshot_to(Snapshot& out) const noexcept {
  out.cpus = cpus_;
}

inline void PeriodicTimer::restore_from(const Snapshot& snapshot) noexcept {
  cpus_ = snapshot.cpus;
  note_deadline_change();
}

}  // namespace mcs::platform
