#include "irq/gic.hpp"

#include <algorithm>
#include <bit>

namespace mcs::irq {

Gic::Gic(int num_cpus) : num_cpus_(std::clamp(num_cpus, 1, kMaxCpus)) {
  priority_mask_.fill(kIdlePriority);  // everything unmasked by default
  // Banked per-CPU lines (SGIs and PPIs) come out of reset enabled at a
  // mid-range priority — the state Linux/Jailhouse leave them in before
  // any guest runs, folded into power-on for the functional model.
  for (IrqId irq = 0; irq < kFirstSpi; ++irq) {
    lines_[irq].enabled = true;
    lines_[irq].priority = kDefaultPriority;
  }
}

util::Status Gic::check_irq(IrqId irq) const {
  if (irq >= kNumIrqs) {
    return util::invalid_argument("irq id out of range: " + std::to_string(irq));
  }
  return util::ok_status();
}

util::Status Gic::check_cpu(int cpu) const {
  if (cpu < 0 || cpu >= num_cpus_) {
    return util::invalid_argument("cpu out of range: " + std::to_string(cpu));
  }
  return util::ok_status();
}

util::Status Gic::enable(IrqId irq) {
  MCS_RETURN_IF_ERROR(check_irq(irq));
  note(irq, util::TouchLog::GicField::Enable);
  note(irq, util::TouchLog::GicField::Priority);
  lines_[irq].enabled = true;
  // A line enabled while still at the idle priority would be deliverable
  // never; give it the reset default (guests may override via IPRIORITYR).
  if (lines_[irq].priority == kIdlePriority) {
    lines_[irq].priority = kDefaultPriority;
  }
  return util::ok_status();
}

util::Status Gic::disable(IrqId irq) {
  MCS_RETURN_IF_ERROR(check_irq(irq));
  note(irq, util::TouchLog::GicField::Enable);
  lines_[irq].enabled = false;
  return util::ok_status();
}

bool Gic::is_enabled(IrqId irq) const noexcept {
  if (irq >= kNumIrqs) return false;
  note(irq, util::TouchLog::GicField::Enable);
  return lines_[irq].enabled;
}

util::Status Gic::set_priority(IrqId irq, std::uint8_t priority) {
  MCS_RETURN_IF_ERROR(check_irq(irq));
  note(irq, util::TouchLog::GicField::Priority);
  lines_[irq].priority = priority;
  return util::ok_status();
}

std::uint8_t Gic::priority(IrqId irq) const noexcept {
  if (irq >= kNumIrqs) return kIdlePriority;
  note(irq, util::TouchLog::GicField::Priority);
  return lines_[irq].priority;
}

util::Status Gic::set_target(IrqId irq, int cpu) {
  MCS_RETURN_IF_ERROR(check_irq(irq));
  MCS_RETURN_IF_ERROR(check_cpu(cpu));
  if (!is_spi(irq)) {
    return util::invalid_argument("only SPIs are routable");
  }
  note(irq, util::TouchLog::GicField::Target);
  lines_[irq].target = cpu;
  return util::ok_status();
}

int Gic::target(IrqId irq) const noexcept {
  if (irq >= kNumIrqs) return 0;
  note(irq, util::TouchLog::GicField::Target);
  return lines_[irq].target;
}

util::Status Gic::raise_spi(IrqId irq) {
  // Valid-wiring fast path first: peripherals assert their line on every
  // event, so don't pay the Status validation round-trips per raise.
  if (is_spi(irq)) [[likely]] {
    note(irq, util::TouchLog::GicField::Target);
    mark_pending(lines_[irq].target, irq);
    return util::ok_status();
  }
  MCS_RETURN_IF_ERROR(check_irq(irq));
  return util::invalid_argument("not an SPI");
}

util::Status Gic::raise_ppi(int cpu, IrqId irq) {
  // The timer raises a PPI every guest tick — same fast path as SPIs.
  if (is_ppi(irq) && cpu >= 0 && cpu < num_cpus_) [[likely]] {
    mark_pending(cpu, irq);
    return util::ok_status();
  }
  MCS_RETURN_IF_ERROR(check_irq(irq));
  MCS_RETURN_IF_ERROR(check_cpu(cpu));
  return util::invalid_argument("not a PPI");
}

util::Status Gic::send_sgi(int source_cpu, int target_cpu, IrqId irq) {
  if (is_sgi(irq) && source_cpu >= 0 && source_cpu < num_cpus_ &&
      target_cpu >= 0 && target_cpu < num_cpus_) [[likely]] {
    mark_pending(target_cpu, irq);
    return util::ok_status();
  }
  MCS_RETURN_IF_ERROR(check_cpu(source_cpu));
  MCS_RETURN_IF_ERROR(check_cpu(target_cpu));
  return util::invalid_argument("not an SGI");
}

void Gic::set_priority_mask(int cpu, std::uint8_t mask) noexcept {
  if (cpu >= 0 && cpu < num_cpus_) {
    priority_mask_[static_cast<std::size_t>(cpu)] = mask;
  }
}

std::uint8_t Gic::priority_mask(int cpu) const noexcept {
  return (cpu >= 0 && cpu < num_cpus_)
             ? priority_mask_[static_cast<std::size_t>(cpu)]
             : kIdlePriority;
}

IrqId Gic::peek(int cpu) const noexcept {
  if (cpu < 0 || cpu >= num_cpus_) return kSpuriousIrq;
  if (touches_ != nullptr) [[unlikely]] note_pending_lines(cpu);
  const auto cpu_index = static_cast<std::size_t>(cpu);
  IrqId best = kSpuriousIrq;
  std::uint8_t best_priority = kIdlePriority;
  // Walk only the pending lines (ascending id, so an equal-priority later
  // hit never displaces an earlier one — same best as the full scan).
  for (std::size_t word = 0; word < kPendingWords; ++word) {
    std::uint64_t bits = pending_bits_[cpu_index][word];
    while (bits != 0) {
      const auto irq =
          static_cast<IrqId>(word * 64 + static_cast<unsigned>(std::countr_zero(bits)));
      bits &= bits - 1;
      const Line& line = lines_[irq];
      if (!line.enabled || line.active[cpu_index]) continue;
      if (line.priority >= priority_mask_[cpu_index]) continue;  // masked
      if (line.priority < best_priority) {
        best = irq;
        best_priority = line.priority;
      }
    }
  }
  return best;
}

IrqId Gic::acknowledge(int cpu) noexcept {
  const IrqId irq = peek(cpu);
  if (irq == kSpuriousIrq) return kSpuriousIrq;
  const auto cpu_index = static_cast<std::size_t>(cpu);
  clear_pending(cpu, irq);
  Line& line = lines_[irq];
  line.active[cpu_index] = true;
  ++line.delivered;
  return irq;
}

util::Status Gic::end_of_interrupt(int cpu, IrqId irq) {
  // The hypervisor EOIs every acknowledged IRQ with the GIC's own id, so
  // valid arguments take the same Status-free fast path as the raises.
  if (irq >= kNumIrqs || cpu < 0 || cpu >= num_cpus_) [[unlikely]] {
    MCS_RETURN_IF_ERROR(check_irq(irq));
    return check_cpu(cpu);
  }
  Line& line = lines_[irq];
  const auto cpu_index = static_cast<std::size_t>(cpu);
  if (!line.active[cpu_index]) {
    return util::invalid_argument("EOI for non-active irq " + std::to_string(irq));
  }
  line.active[cpu_index] = false;
  return util::ok_status();
}

bool Gic::is_pending(IrqId irq, int cpu) const noexcept {
  return irq < kNumIrqs && cpu >= 0 && cpu < num_cpus_ &&
         lines_[irq].pending[static_cast<std::size_t>(cpu)];
}

bool Gic::is_active(IrqId irq, int cpu) const noexcept {
  return irq < kNumIrqs && cpu >= 0 && cpu < num_cpus_ &&
         lines_[irq].active[static_cast<std::size_t>(cpu)];
}

void Gic::reset_cpu(int cpu) noexcept {
  if (cpu < 0 || cpu >= num_cpus_) return;
  const auto cpu_index = static_cast<std::size_t>(cpu);
  for (Line& line : lines_) {
    line.pending[cpu_index] = false;
    line.active[cpu_index] = false;
  }
  pending_bits_[cpu_index].fill(0);
}

void Gic::rebuild_pending_bits() noexcept {
  for (PendingBits& bits : pending_bits_) bits.fill(0);
  for (IrqId irq = 0; irq < kNumIrqs; ++irq) {
    for (int cpu = 0; cpu < num_cpus_; ++cpu) {
      if (lines_[irq].pending[static_cast<std::size_t>(cpu)]) {
        pending_bits_[static_cast<std::size_t>(cpu)][irq / 64] |=
            std::uint64_t{1} << (irq % 64);
      }
    }
  }
}

void Gic::note_pending_lines(int cpu) const {
  for (std::size_t word = 0; word < kPendingWords; ++word) {
    for (std::uint64_t bits = pending_bits_[static_cast<std::size_t>(cpu)][word];
         bits != 0; bits &= bits - 1) {
      const auto irq =
          static_cast<IrqId>(word * 64 + static_cast<unsigned>(std::countr_zero(bits)));
      touches_->note(util::TouchLog::gic_key(irq, util::TouchLog::GicField::Enable));
      touches_->note(util::TouchLog::gic_key(irq, util::TouchLog::GicField::Priority));
    }
  }
}

std::uint64_t Gic::delivered(IrqId irq) const noexcept {
  return irq < kNumIrqs ? lines_[irq].delivered : 0;
}

}  // namespace mcs::irq
