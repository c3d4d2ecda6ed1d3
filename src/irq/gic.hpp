// GIC-400-style interrupt controller model (the Cortex-A7's GIC).
//
// Models the subset the hypervisor's `irqchip_handle_irq()` path needs:
// a distributor with per-line enable/pending/priority/target state and a
// per-CPU interface with acknowledge/EOI and a priority mask. Line ids
// follow the architecture: SGI 0-15 (per-CPU software interrupts), PPI
// 16-31 (per-CPU peripherals, e.g. the virtual timer), SPI 32+ (shared
// peripherals — UART, GPIO...). Acknowledge returns 1023 when nothing is
// pending ("spurious"), exactly what a corrupted vector number defaults to
// in the paper's profiling rationale for excluding the IRQ handler.
//
// While a golden suffix runs (fi::CampaignExecutor), every read or write
// of a line's enable, priority or target field is reported to a
// util::TouchLog. Outside golden suffixes the log pointer is null and the
// hot paths (peek, raise_spi) pay one predictable branch.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "util/status.hpp"
#include "util/touch_log.hpp"

namespace mcs::irq {

using IrqId = std::uint32_t;

inline constexpr IrqId kFirstPpi = 16;
inline constexpr IrqId kFirstSpi = 32;
inline constexpr IrqId kNumIrqs = 128;
inline constexpr IrqId kSpuriousIrq = 1023;
inline constexpr int kMaxCpus = 8;
inline constexpr std::uint8_t kIdlePriority = 0xff;
inline constexpr std::uint8_t kDefaultPriority = 0xa0;

[[nodiscard]] constexpr bool is_sgi(IrqId irq) noexcept { return irq < kFirstPpi; }
[[nodiscard]] constexpr bool is_ppi(IrqId irq) noexcept {
  return irq >= kFirstPpi && irq < kFirstSpi;
}
[[nodiscard]] constexpr bool is_spi(IrqId irq) noexcept {
  return irq >= kFirstSpi && irq < kNumIrqs;
}

/// Distributor + CPU-interface state for up to kMaxCpus cores.
class Gic {
 public:
  explicit Gic(int num_cpus);

  [[nodiscard]] int num_cpus() const noexcept { return num_cpus_; }

  // --- distributor ------------------------------------------------------
  util::Status enable(IrqId irq);
  util::Status disable(IrqId irq);
  [[nodiscard]] bool is_enabled(IrqId irq) const noexcept;

  /// Priority: 0 = highest, 0xff = idle/lowest.
  util::Status set_priority(IrqId irq, std::uint8_t priority);
  [[nodiscard]] std::uint8_t priority(IrqId irq) const noexcept;

  /// Route an SPI to a CPU (single-target model, like Jailhouse's setup).
  util::Status set_target(IrqId irq, int cpu);
  [[nodiscard]] int target(IrqId irq) const noexcept;

  /// Assert a peripheral line (SPI) or per-CPU line (PPI needs the cpu).
  util::Status raise_spi(IrqId irq);
  util::Status raise_ppi(int cpu, IrqId irq);

  /// Software-generated interrupt from `source_cpu` to `target_cpu`.
  util::Status send_sgi(int source_cpu, int target_cpu, IrqId irq);

  // --- CPU interface ----------------------------------------------------
  /// Mask on the CPU interface: only priorities strictly below pass.
  void set_priority_mask(int cpu, std::uint8_t mask) noexcept;
  [[nodiscard]] std::uint8_t priority_mask(int cpu) const noexcept;

  /// Highest-priority pending enabled interrupt for `cpu`, without
  /// acknowledging it.
  [[nodiscard]] IrqId peek(int cpu) const noexcept;

  /// Acknowledge: pending → active, returns the line id (or spurious).
  [[nodiscard]] IrqId acknowledge(int cpu) noexcept;

  /// End of interrupt: active → idle. EINVAL if not active on this cpu.
  util::Status end_of_interrupt(int cpu, IrqId irq);

  [[nodiscard]] bool is_pending(IrqId irq, int cpu) const noexcept;
  [[nodiscard]] bool is_active(IrqId irq, int cpu) const noexcept;

  /// True iff `cpu` has any deliverable interrupt (drives the vIRQ wire).
  [[nodiscard]] bool irq_line(int cpu) const noexcept { return peek(cpu) != kSpuriousIrq; }

  /// True iff any line is pending on `cpu`, deliverable or not: a superset
  /// of irq_line() read straight off the pending bitmap. When false,
  /// acknowledge(cpu) is certain to return kSpuriousIrq.
  [[nodiscard]] bool any_pending(int cpu) const noexcept {
    if (cpu < 0 || cpu >= num_cpus_) return false;
    for (const std::uint64_t word : pending_bits_[static_cast<std::size_t>(cpu)]) {
      if (word != 0) return true;
    }
    return false;
  }

  // --- fault injection --------------------------------------------------
  /// Assert `irq` pending on `cpu` regardless of line type or routing
  /// (spurious-delivery fault). Out-of-range arguments are ignored. Keeps
  /// the pending-bitmap mirror coherent, so peek()/acknowledge() see the
  /// corruption immediately and snapshots restore it faithfully.
  void force_pending(int cpu, IrqId irq) noexcept {
    if (irq < kNumIrqs && cpu >= 0 && cpu < num_cpus_) mark_pending(cpu, irq);
  }

  /// Drop a pending assertion of `irq` on `cpu` (lost-interrupt fault).
  /// Out-of-range arguments are ignored; the mirror stays coherent.
  void squash_pending(int cpu, IrqId irq) noexcept {
    if (irq < kNumIrqs && cpu >= 0 && cpu < num_cpus_) clear_pending(cpu, irq);
  }

  /// Set a line's enable bit and nothing else (enable() also lifts an
  /// idle priority to the default): writes back a dead enable flip.
  void set_enabled(IrqId irq, bool enabled) noexcept {
    if (irq < kNumIrqs) lines_[irq].enabled = enabled;
  }

  /// Drop all pending/active state for a CPU (cell destruction reclaim).
  void reset_cpu(int cpu) noexcept;

  // --- statistics -------------------------------------------------------
  [[nodiscard]] std::uint64_t delivered(IrqId irq) const noexcept;

  /// Report enable/priority/target reads and writes to `touches` from now
  /// on (null stops reporting). Not part of the GIC's state: never
  /// snapshotted.
  void set_touch_log(util::TouchLog* touches) noexcept { touches_ = touches; }

  // --- snapshot / restore (testbed warm-start) --------------------------
  struct Snapshot;
  void snapshot_to(Snapshot& out) const noexcept;
  void restore_from(const Snapshot& snapshot) noexcept;

 private:
  struct Line {
    bool enabled = false;
    std::uint8_t priority = kIdlePriority;
    int target = 0;                     // SPI routing
    std::array<bool, kMaxCpus> pending{};  // per-CPU for SGI/PPI; [target] for SPI
    std::array<bool, kMaxCpus> active{};
    std::uint64_t delivered = 0;
  };

  /// Per-CPU pending summary: bit `irq` mirrors lines_[irq].pending[cpu].
  /// peek() visits only set bits, so the machine's once-per-tick-per-CPU
  /// "anything deliverable?" poll costs two word compares when quiescent
  /// instead of a scan over all kNumIrqs lines. Every site that writes a
  /// Line's pending flag keeps the mirror in sync; restore_from rebuilds
  /// it from the lines (the snapshot stays plain Line state).
  static constexpr std::size_t kPendingWords = (kNumIrqs + 63) / 64;
  using PendingBits = std::array<std::uint64_t, kPendingWords>;

  void mark_pending(int cpu, IrqId irq) noexcept {
    lines_[irq].pending[static_cast<std::size_t>(cpu)] = true;
    pending_bits_[static_cast<std::size_t>(cpu)][irq / 64] |=
        std::uint64_t{1} << (irq % 64);
  }
  void clear_pending(int cpu, IrqId irq) noexcept {
    lines_[irq].pending[static_cast<std::size_t>(cpu)] = false;
    pending_bits_[static_cast<std::size_t>(cpu)][irq / 64] &=
        ~(std::uint64_t{1} << (irq % 64));
  }
  void rebuild_pending_bits() noexcept;

  void note(IrqId irq, util::TouchLog::GicField field) const {
    if (touches_ != nullptr) [[unlikely]] touches_->note(util::TouchLog::gic_key(irq, field));
  }
  /// peek() reads the enable and priority of every pending line on `cpu`.
  void note_pending_lines(int cpu) const;

  [[nodiscard]] util::Status check_irq(IrqId irq) const;
  [[nodiscard]] util::Status check_cpu(int cpu) const;

  int num_cpus_;
  std::array<Line, kNumIrqs> lines_{};
  std::array<std::uint8_t, kMaxCpus> priority_mask_{};
  std::array<PendingBits, kMaxCpus> pending_bits_{};
  util::TouchLog* touches_ = nullptr;
};

/// The whole distributor + CPU-interface state, trivially copyable —
/// capture and restore are plain struct assignments. Captured right
/// after construction, it is power-on: banked SGI/PPI lines enabled at
/// the default priority, SPIs disabled, nothing pending, masks open.
struct Gic::Snapshot {
  std::array<Line, kNumIrqs> lines{};
  std::array<std::uint8_t, kMaxCpus> priority_mask{};
};

inline void Gic::snapshot_to(Snapshot& out) const noexcept {
  out.lines = lines_;
  out.priority_mask = priority_mask_;
}

inline void Gic::restore_from(const Snapshot& snapshot) noexcept {
  lines_ = snapshot.lines;
  priority_mask_ = snapshot.priority_mask;
  rebuild_pending_bits();
}

}  // namespace mcs::irq
