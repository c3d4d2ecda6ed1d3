// Functional model of one Cortex-A7 core as managed by a HYP-mode
// hypervisor.
//
// The model is *functional*, not cycle-accurate: guests are C++ code that
// manipulates CPU state through the board scheduler, and the hypervisor
// sees the same entry frames (register snapshots) it would see on hardware.
// That is exactly the surface the paper's fault model attacks — register
// contents at the boundary of `irqchip_handle_irq` / `arch_handle_trap` /
// `arch_handle_hvc` — so nothing finer-grained is needed to reproduce the
// observed failure modes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "arch/cpsr.hpp"
#include "arch/registers.hpp"
#include "arch/syndrome.hpp"
#include "util/status.hpp"

namespace mcs::arch {

/// Power/run state of a core, including the two paper-relevant terminal
/// states: Parked (the hypervisor's cpu_park() — core spins in HYP, guest
/// never runs again) and Failed (never completed hot-plug bring-up).
enum class PowerState : std::uint8_t {
  Off,       ///< powered down, no state retained
  Booting,   ///< CPU_ON accepted, core not yet past its entry gate
  On,        ///< executing guest/root code
  Parked,    ///< cpu_park(): idles in the hypervisor until reset
  Failed,    ///< hot-plug bring-up failed; core wedged outside any cell
};

[[nodiscard]] std::string_view power_state_name(PowerState state) noexcept;

// ---------------------------------------------------------------------------
// Hypervisor firmware layout (top of the Banana Pi's DRAM, reserved at boot
// the way Jailhouse's kernel driver reserves its firmware region). These are
// architectural ground truth for entry-frame validation: the trap handler
// can check a possibly-corrupted register against the value the entry stub
// is guaranteed to have produced.
// ---------------------------------------------------------------------------

inline constexpr Word kHypFirmwareBase = 0x7c00'0000;
inline constexpr Word kHypStackSize = 0x2000;  ///< 8 KiB HYP stack per core

/// Exception-return stub in the hypervisor text; the entry path leaves it
/// in lr so a plain `bx lr` resumes the guest.
inline constexpr Word kReturnTrampoline = kHypFirmwareBase + 0x0010'0040;

/// Address of the common trap handler (what pc holds while it runs).
inline constexpr Word kTrapHandlerPc = kHypFirmwareBase + 0x0010'1000;

/// Per-CPU data blocks; the entry stub keeps the current CPU's block
/// pointer in r12 (the Jailhouse ARM port keeps it in TPIDRPRW and loads
/// it into a scratch register on entry — r12 in this model).
inline constexpr Word kPerCpuBase = kHypFirmwareBase + 0x0002'0000;
inline constexpr Word kPerCpuStride = 0x1000;

[[nodiscard]] constexpr Word percpu_base(int cpu) noexcept {
  return kPerCpuBase + static_cast<Word>(cpu) * kPerCpuStride;
}

class FrameWriter;

/// Snapshot of the architectural registers at a hypervisor entry, plus the
/// semantic bindings the entry path establishes (context pointer in r0,
/// syndrome in r1, ...). This is the object the injector corrupts.
///
/// Handlers read registers only through reg(), the tracked read: when an
/// injection changed the register (its bit in `injected`), the read is
/// noted in `*injected_read`. A frame dies when its trap returns, so an
/// injection none of whose changed registers was read left the machine
/// exactly as the fault-free run would have — fi::Injector's *masked*
/// verdict. The bank itself is private: frame builders, fault models, the
/// injector's before/after diff and tests go through a FrameWriter, so no
/// handler read can bypass the tracking. Builders leave `injected` empty:
/// an uninjected read costs one test.
struct EntryFrame {
  Syndrome hsr;        ///< hardware-captured syndrome (HSR read lands in r1)
  Cpsr guest_cpsr;     ///< SPSR_hyp: interrupted guest CPSR
  Word guest_pc = 0;   ///< ELR_hyp: return address into the guest
  int cpu = 0;
  std::uint16_t injected = 0;     ///< bit i: an injection changed register i
  bool* injected_read = nullptr;  ///< set by reg() on a read of such a register

  [[nodiscard]] Word reg(Reg reg_id) const noexcept {
    if (((injected >> static_cast<unsigned>(reg_id)) & 1u) != 0) {
      *injected_read = true;
    }
    return bank_[reg_id];
  }

  /// Untracked access to the bank (never for handlers).
  [[nodiscard]] FrameWriter writer() noexcept;

 private:
  friend class FrameWriter;
  RegisterBank bank_;  ///< r0-r12, sp, lr, pc *as loaded at handler entry*
};

/// The narrow untracked view of an entry frame's registers: what the
/// entry stub loads, what a fault model corrupts, what the injector
/// diffs, what a test sets up or asserts. Reads through it are not
/// reported to the injector, so handlers must not take one.
class FrameWriter {
 public:
  explicit FrameWriter(EntryFrame& frame) noexcept : bank_(&frame.bank_) {}

  void set(Reg reg_id, Word value) noexcept { bank_->set(reg_id, value); }
  [[nodiscard]] Word get(Reg reg_id) const noexcept { return bank_->get(reg_id); }
  /// The whole bank: fault models mutate it, the injector copies it.
  [[nodiscard]] RegisterBank& bank() const noexcept { return *bank_; }

 private:
  RegisterBank* bank_;
};

inline FrameWriter EntryFrame::writer() noexcept { return FrameWriter(*this); }

/// One core. Owns its register bank, HYP banked state and power FSM.
class Cpu {
 public:
  explicit Cpu(int id) noexcept;

  [[nodiscard]] int id() const noexcept { return id_; }

  [[nodiscard]] RegisterBank& regs() noexcept { return regs_; }
  [[nodiscard]] const RegisterBank& regs() const noexcept { return regs_; }

  [[nodiscard]] Cpsr& cpsr() noexcept { return cpsr_; }
  [[nodiscard]] const Cpsr& cpsr() const noexcept { return cpsr_; }

  // --- HYP-mode banked state -------------------------------------------
  [[nodiscard]] Syndrome hsr() const noexcept { return hsr_; }
  void set_hsr(Syndrome hsr) noexcept { hsr_ = hsr; }
  [[nodiscard]] Word elr_hyp() const noexcept { return elr_hyp_; }
  void set_elr_hyp(Word pc) noexcept { elr_hyp_ = pc; }
  [[nodiscard]] Cpsr spsr_hyp() const noexcept { return spsr_hyp_; }
  void set_spsr_hyp(Cpsr cpsr) noexcept { spsr_hyp_ = cpsr; }

  /// Per-core HYP stack bounds; the trap-context pointer always lies in
  /// this window on an uncorrupted entry, which is what the hypervisor's
  /// sanity check (and our wild-pointer detection) relies on.
  [[nodiscard]] Word hyp_stack_base() const noexcept;
  [[nodiscard]] Word hyp_stack_top() const noexcept;

  /// Exact register values the entry stub produces for this core: the
  /// on-stack trap-context address (r0), the HYP stack pointer (sp) and
  /// the per-CPU block pointer (r12).
  [[nodiscard]] Word expected_trap_context() const noexcept {
    return hyp_stack_top() - 0x40;
  }
  [[nodiscard]] Word expected_hyp_sp() const noexcept {
    return hyp_stack_top() - 0x80;
  }
  [[nodiscard]] Word expected_percpu() const noexcept { return percpu_base(id_); }

  // --- power FSM --------------------------------------------------------
  [[nodiscard]] PowerState power_state() const noexcept { return state_; }
  [[nodiscard]] bool is_online() const noexcept { return state_ == PowerState::On; }
  [[nodiscard]] bool is_parked() const noexcept { return state_ == PowerState::Parked; }

  /// PSCI-style CPU_ON: Off/Failed → Booting at `entry`. EBUSY if running.
  util::Status power_on(Word entry) noexcept;

  /// Complete hot-plug bring-up: Booting → On. The board calls this after
  /// the bring-up latency; a corrupted entry gate makes it fail instead.
  util::Status complete_boot() noexcept;

  /// Mark hot-plug bring-up as failed: Booting → Failed ("the CPU fails to
  /// come online as per the swap feature of the CPU hot plug", §III).
  void fail_boot(std::string reason);

  /// cpu_park(): spin the core in HYP until reset. Terminal for the guest.
  void park(std::string reason);

  /// PSCI-style CPU_OFF / cell destruction: any state → Off, state cleared.
  void power_off() noexcept;

  [[nodiscard]] const std::string& halt_reason() const noexcept { return halt_reason_; }
  [[nodiscard]] Word entry_point() const noexcept { return entry_point_; }

  // --- snapshot / restore (testbed warm-start) --------------------------
  /// Everything run-mutable on a core: a restore_from() of a snapshot
  /// taken at state S makes the core observably identical to when S was
  /// captured. Taken right after construction, S is power-on: registers
  /// clear, SVC mode, state Off, profiling counters zero.
  struct Snapshot {
    RegisterBank regs{};
    Cpsr cpsr{};
    Syndrome hsr{};
    Word elr_hyp = 0;
    Cpsr spsr_hyp{};
    PowerState state = PowerState::Off;
    Word entry_point = 0;
    std::string halt_reason;
    std::uint64_t trap_entries = 0;
    std::uint64_t hvc_entries = 0;
    std::uint64_t irq_entries = 0;
  };

  void snapshot_to(Snapshot& out) const {
    out.regs = regs_;
    out.cpsr = cpsr_;
    out.hsr = hsr_;
    out.elr_hyp = elr_hyp_;
    out.spsr_hyp = spsr_hyp_;
    out.state = state_;
    out.entry_point = entry_point_;
    out.halt_reason = halt_reason_;
    out.trap_entries = trap_entries;
    out.hvc_entries = hvc_entries;
    out.irq_entries = irq_entries;
  }

  void restore_from(const Snapshot& snapshot) {
    regs_ = snapshot.regs;
    cpsr_ = snapshot.cpsr;
    hsr_ = snapshot.hsr;
    elr_hyp_ = snapshot.elr_hyp;
    spsr_hyp_ = snapshot.spsr_hyp;
    state_ = snapshot.state;
    entry_point_ = snapshot.entry_point;
    halt_reason_ = snapshot.halt_reason;
    trap_entries = snapshot.trap_entries;
    hvc_entries = snapshot.hvc_entries;
    irq_entries = snapshot.irq_entries;
  }

  // --- entry frames -----------------------------------------------------
  /// Build the architecturally-correct entry frame for a hypervisor trap
  /// with syndrome `hsr`, hypercall/abort arguments already in r0-r3 of
  /// the *guest* bank. Mirrors the Jailhouse vectors: the entry stub saves
  /// the guest registers, then loads r0 with the trap-context pointer.
  [[nodiscard]] EntryFrame make_trap_frame(Syndrome hsr) const;

  // --- bookkeeping used by profiling (golden runs) ----------------------
  std::uint64_t trap_entries = 0;  ///< arch_handle_trap invocations
  std::uint64_t hvc_entries = 0;   ///< arch_handle_hvc invocations
  std::uint64_t irq_entries = 0;   ///< irqchip_handle_irq invocations

 private:
  int id_;
  RegisterBank regs_{};
  Cpsr cpsr_{};
  Syndrome hsr_{};
  Word elr_hyp_ = 0;
  Cpsr spsr_hyp_{};
  PowerState state_ = PowerState::Off;
  Word entry_point_ = 0;
  std::string halt_reason_;
};

}  // namespace mcs::arch
