// Machine: the whole-testbed orchestrator.
//
// Drives the board tick by tick, delivering the hardware events of each
// quantum in the order the silicon would: device ticks raise interrupt
// lines → cores in bring-up take their first HYP entry → pending IRQs
// enter irqchip_handle_irq → online vCPUs run their guest quantum.
//
// Time advancement is event-driven by default: run_until() executes the
// full per-tick sequence only while some core can actually run (online or
// in bring-up, hypervisor alive), and otherwise leaps straight to the
// next event — a device deadline, a watchdog check boundary, or the
// window end. Leaps skip only provably-inert spans, so execution is
// bit-identical to the legacy per-tick loop (asserted by the
// tick-equivalence suite); TickPolicy::PerTick forces the legacy loop for
// those golden comparisons.
#pragma once

#include <array>
#include <cstdint>

#include "hypervisor/guest.hpp"
#include "hypervisor/hypervisor.hpp"
#include "platform/board.hpp"

namespace mcs::jh {

class CellWatchdog;

/// How run_until()/run_ticks() advance time.
enum class TickPolicy : std::uint8_t {
  EventDriven,  ///< leap inert spans between deadlines (default)
  PerTick,      ///< legacy: full tick sequence every board tick
};

class Machine {
 public:
  /// Board and hypervisor must outlive the machine.
  Machine(platform::Board& board, Hypervisor& hv) noexcept
      : board_(&board), hv_(&hv) {}

  /// Bind a guest image to a cell. Images are owned by the caller and
  /// must outlive the machine. Re-binding replaces the previous image.
  void bind_guest(CellId cell, GuestImage& image);
  void unbind_guest(CellId cell);
  [[nodiscard]] GuestImage* guest_for(CellId cell) noexcept;

  /// Install the cell liveness watchdog (nullptr to remove). The watchdog
  /// is owned by the caller and ticks after each board tick.
  void install_watchdog(CellWatchdog* watchdog) noexcept { watchdog_ = watchdog; }

  void set_tick_policy(TickPolicy policy) noexcept { policy_ = policy; }
  [[nodiscard]] TickPolicy tick_policy() const noexcept { return policy_; }

  // --- snapshot / restore (testbed warm-start) --------------------------
  /// Guest images are testbed-owned with stable addresses, so the binding
  /// table snapshots as raw pointers. The watchdog is caller-installed per
  /// run (never live at capture) and is not part of the snapshot.
  struct Snapshot {
    std::array<GuestImage*, 16> images{};
    std::array<bool, irq::kMaxCpus> started{};
    TickPolicy policy = TickPolicy::EventDriven;
  };

  void snapshot_to(Snapshot& out) const noexcept {
    out.images = images_;
    out.started = started_;
    out.policy = policy_;
  }

  void restore_from(const Snapshot& snapshot) noexcept {
    images_ = snapshot.images;
    started_ = snapshot.started;
    policy_ = snapshot.policy;
    watchdog_ = nullptr;
  }

  /// One board tick: devices, bring-up entries, IRQ routing, quanta.
  ///
  /// Panic invariant: after Hypervisor::panic() a tick runs only the
  /// device ticks (and the watchdog, when one is installed; campaign runs
  /// never install one). No device tick changes what RunMonitor::finish()
  /// or probe_shutdown_reclaims() read — UART1 bytes, GPIO toggles,
  /// hypervisor counters, root management results, log records, cell and
  /// CPU states — so a panicked run's classification is fixed the moment
  /// it panics, and the executor may skip the rest of its window.
  void run_tick();

  /// Advance machine time to the absolute tick `target` under the current
  /// tick policy. The deadline-driven window primitive: scenarios land
  /// injection windows on exact ticks by aiming run_until at them.
  void run_until(util::Ticks target);

  /// Convenience: run `n` ticks (stops early only at hypervisor panic —
  /// time itself keeps flowing, but nothing executes on a dead machine).
  /// Delegates to run_until(): one loop owns time advancement.
  void run_ticks(std::uint64_t n);

  [[nodiscard]] platform::Board& board() noexcept { return *board_; }
  [[nodiscard]] Hypervisor& hypervisor() noexcept { return *hv_; }

 private:
  static constexpr int kMaxIrqsPerTick = 8;  ///< livelock guard

  void deliver_irqs(int cpu);
  void run_guest_quantum(int cpu);

  /// Ticks of the span starting now during which no core can execute
  /// (0 = some core needs per-tick service), bounded by `target`, the
  /// earliest device deadline and the next watchdog check boundary.
  [[nodiscard]] std::uint64_t inert_span(util::Ticks target) const;

  platform::Board* board_;
  Hypervisor* hv_;
  CellWatchdog* watchdog_ = nullptr;
  TickPolicy policy_ = TickPolicy::EventDriven;
  std::array<GuestImage*, 16> images_{};         // by cell id, small & flat
  std::array<bool, irq::kMaxCpus> started_{};    // on_start() issued per cpu
};

}  // namespace mcs::jh
