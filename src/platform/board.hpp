// Board models: the testbed hardware behind every layer above.
//
// `Board` is the interface the hypervisor, machine and testbed program
// against: a spec-described SoC (CPU count and DRAM size taken from the
// BoardSpec at construction, never from a compile-time constant) composed
// with the Allwinner A20 peripheral block — two UARTs, the PIO controller
// and the per-CPU timer, at the real physical addresses so cell configs
// read like the genuine Jailhouse ones.
//
// Variants are thin subclasses that pass their spec: `BananaPiBoard` is
// the paper's dual-core testbed ("The tested hardware comprises a Banana
// PI, which is a dual-core Cortex-A7 board, equipped with 1 GB of RAM",
// §III); `QuadA7Board` is a 4-CPU variant hosting two concurrent non-root
// cells. New variants register in the BoardRegistry (board_registry.hpp).
#pragma once

#include <memory>
#include <vector>

#include "arch/cpu.hpp"
#include "irq/gic.hpp"
#include "mem/phys_mem.hpp"
#include "platform/board_spec.hpp"
#include "platform/bus.hpp"
#include "platform/gpio.hpp"
#include "platform/timer.hpp"
#include "platform/uart.hpp"
#include "util/arena.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace mcs::platform {

/// Allwinner A20 peripheral window addresses.
inline constexpr PhysAddr kUart0Base = 0x01c2'8000;  ///< root-cell console
inline constexpr PhysAddr kUart1Base = 0x01c2'8400;  ///< non-root USART
inline constexpr PhysAddr kGpioBase = 0x01c2'0800;   ///< PIO controller
inline constexpr PhysAddr kTimerBase = 0x01c2'0c00;  ///< timer block

/// SPI lines for the UARTs (GIC id = 32 + A20 interrupt source).
inline constexpr irq::IrqId kUart0Irq = 33;
inline constexpr irq::IrqId kUart1Irq = 34;

/// The composed board. Owns every hardware model; higher layers hold
/// references. Copying a board is meaningless — moved/copied never.
/// CPU storage is sized from the spec at construction and placed in the
/// board's arena (one block, no per-CPU heap nodes).
class Board {
 public:
  explicit Board(BoardSpec spec);
  virtual ~Board();

  Board(const Board&) = delete;
  Board& operator=(const Board&) = delete;

  [[nodiscard]] const BoardSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::string& name() const noexcept { return spec_.name; }

  [[nodiscard]] util::SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] util::Ticks now() const noexcept { return clock_.now(); }

  [[nodiscard]] arch::Cpu& cpu(int index) noexcept { return *cpus_[static_cast<std::size_t>(index)]; }
  [[nodiscard]] const arch::Cpu& cpu(int index) const noexcept {
    return *cpus_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] int num_cpus() const noexcept {
    return static_cast<int>(cpus_.size());
  }

  [[nodiscard]] mem::PhysicalMemory& dram() noexcept { return dram_; }
  [[nodiscard]] irq::Gic& gic() noexcept { return gic_; }
  [[nodiscard]] Bus& bus() noexcept { return bus_; }
  [[nodiscard]] Uart& uart0() noexcept { return uart0_; }
  [[nodiscard]] Uart& uart1() noexcept { return uart1_; }
  [[nodiscard]] PeriodicTimer& timer() noexcept { return timer_; }
  [[nodiscard]] Gpio& gpio() noexcept { return gpio_; }
  [[nodiscard]] util::EventLog& log() noexcept { return log_; }

  /// Advance board time by one tick: clock, then every device whose
  /// published deadline is due (O(changed devices), not O(devices)).
  void tick();

  /// Advance by `n` ticks. Delegates to advance_to(): one loop owns time
  /// advancement for the whole platform layer.
  void run_ticks(std::uint64_t n);

  /// Event-driven time advance: leap straight from device deadline to
  /// device deadline until `target`, servicing only the devices that are
  /// due at each stop. Equivalent to ticking every device every tick —
  /// devices keep absolute deadlines — but idle spans cost O(1).
  void advance_to(util::Ticks target);

  /// Earliest deadline any device has published (kNoDeadline when the
  /// whole board is quiescent). Cached behind the deadline generation:
  /// devices bump it (via Device::note_deadline_change) whenever they
  /// re-arm, so the steady-state cost is one compare instead of a
  /// virtual next_deadline() call per device.
  [[nodiscard]] util::Ticks next_device_deadline() const;

  /// Times the deadline cache had to re-poll the devices (monotonic
  /// instrumentation; a busy-tick span should refresh once per re-arm,
  /// not once per query).
  [[nodiscard]] std::uint64_t deadline_refreshes() const noexcept {
    return deadline_refreshes_;
  }

  // --- snapshot / restore (testbed warm-start) --------------------------
  /// Everything a run mutates below the hypervisor: clock, CPUs, devices,
  /// irqchip, DRAM (dirty pages only) and the log length. Page payloads
  /// are copied into `page_arena` (the testbed's run arena), everything
  /// else lives inline in the struct. A snapshot taken right after
  /// construction is the power-on state: restoring it makes the board
  /// observably indistinguishable from a new one while every backing
  /// allocation (CPU arena block, DRAM pages, capture/log capacity) stays
  /// resident for the next run.
  struct Snapshot {
    util::Ticks clock_now{};
    std::vector<arch::Cpu::Snapshot> cpus;
    irq::Gic::Snapshot gic;
    Uart::Snapshot uart0;
    Uart::Snapshot uart1;
    PeriodicTimer::Snapshot timer;
    Gpio::Snapshot gpio;
    mem::PhysicalMemory::Snapshot dram;
    std::size_t log_records = 0;
  };

  void snapshot_to(Snapshot& out, util::Arena& page_arena) const;
  void restore_from(const Snapshot& snapshot);

 private:
  /// Service every device whose deadline is due at `now`.
  void service_due_devices(util::Ticks now);

  BoardSpec spec_;
  /// Construction-scoped storage (CPU blocks); never rewound — the board
  /// keeps its hardware for life, restores only rewind state.
  util::Arena arena_{4 * 1024};
  util::SimClock clock_;
  util::EventLog log_;
  mem::PhysicalMemory dram_;
  irq::Gic gic_;
  Bus bus_;
  Uart uart0_;
  Uart uart1_;
  PeriodicTimer timer_;
  Gpio gpio_;
  std::vector<arch::Cpu*> cpus_;  ///< arena-placed; destroyed by ~Board
  /// The deadline queue: every ticking device, in legacy tick order.
  std::array<Device*, 4> scheduled_{};
  /// Bumped by devices on every re-arm (they hold a pointer to it);
  /// starts at 1 so the never-refreshed cache (gen 0) is always stale.
  std::uint64_t deadline_gen_ = 1;
  mutable util::Ticks cached_deadline_ = kNoDeadline;
  mutable std::uint64_t cached_deadline_gen_ = 0;
  mutable std::uint64_t deadline_refreshes_ = 0;
};

/// The paper's testbed: dual-core Cortex-A7, 1 GiB DRAM.
class BananaPiBoard final : public Board {
 public:
  BananaPiBoard() : Board(bananapi_spec()) {}
};

/// 4-CPU Cortex-A7 variant: root cell plus two concurrent non-root cells.
class QuadA7Board final : public Board {
 public:
  QuadA7Board() : Board(quad_a7_spec()) {}
};

}  // namespace mcs::platform
