#include "arch/cpu.hpp"

#include <utility>

namespace mcs::arch {

std::string_view power_state_name(PowerState state) noexcept {
  switch (state) {
    case PowerState::Off: return "off";
    case PowerState::Booting: return "booting";
    case PowerState::On: return "on";
    case PowerState::Parked: return "parked";
    case PowerState::Failed: return "failed";
  }
  return "?";
}

Cpu::Cpu(int id) noexcept : id_(id) {
  cpsr_.set_mode(Mode::Supervisor);
}

Word Cpu::hyp_stack_base() const noexcept {
  return kHypFirmwareBase + static_cast<Word>(id_) * kHypStackSize;
}

Word Cpu::hyp_stack_top() const noexcept {
  return hyp_stack_base() + kHypStackSize;
}

util::Status Cpu::power_on(Word entry) noexcept {
  switch (state_) {
    case PowerState::On:
    case PowerState::Booting:
      return util::busy("cpu already on");
    case PowerState::Parked:
      return util::busy("cpu parked; reset required");
    case PowerState::Off:
    case PowerState::Failed:
      break;
  }
  entry_point_ = entry;
  state_ = PowerState::Booting;
  halt_reason_.clear();
  return util::ok_status();
}

util::Status Cpu::complete_boot() noexcept {
  if (state_ != PowerState::Booting) {
    return util::Status(util::Code::EInval, "cpu not in bring-up");
  }
  state_ = PowerState::On;
  regs_.set(Reg::PC, entry_point_);
  cpsr_.set_mode(Mode::Supervisor);
  return util::ok_status();
}

void Cpu::fail_boot(std::string reason) {
  state_ = PowerState::Failed;
  halt_reason_ = std::move(reason);
}

void Cpu::park(std::string reason) {
  state_ = PowerState::Parked;
  halt_reason_ = std::move(reason);
}

void Cpu::power_off() noexcept {
  state_ = PowerState::Off;
  halt_reason_.clear();
  entry_point_ = 0;
}

EntryFrame Cpu::make_trap_frame(Syndrome hsr) const {
  EntryFrame frame;
  frame.cpu = id_;
  frame.hsr = hsr;
  frame.guest_cpsr = cpsr_;
  frame.guest_pc = regs_.get(Reg::PC);
  FrameWriter stub = frame.writer();
  stub.bank() = regs_;
  // The entry stub materialises the handler's working set: r0 holds the
  // pointer to the on-stack trap context, r1 the HSR value just read,
  // r2-r4 the trap payload (hypercall code/args, or fault address/value —
  // the caller fills them), r12 the per-CPU block pointer, sp the HYP
  // stack pointer, lr the return trampoline, pc the handler itself. The
  // guest return address lives in ELR_hyp (a banked system register), so
  // it is *not* exposed to general-purpose-register bit flips — which is
  // architecturally accurate for HYP-mode entries.
  stub.set(Reg::R0, expected_trap_context());
  stub.set(Reg::R1, hsr.raw());
  stub.set(Reg::R12, expected_percpu());
  stub.set(Reg::SP, expected_hyp_sp());
  stub.set(Reg::LR, kReturnTrampoline);
  stub.set(Reg::PC, kTrapHandlerPc);
  return frame;
}

}  // namespace mcs::arch
