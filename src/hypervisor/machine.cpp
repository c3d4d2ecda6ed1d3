#include "hypervisor/machine.hpp"

#include <algorithm>

#include "hypervisor/watchdog.hpp"
#include "util/bitops.hpp"

namespace mcs::jh {

void Machine::bind_guest(CellId cell, GuestImage& image) {
  if (cell < images_.size()) images_[cell] = &image;
}

void Machine::unbind_guest(CellId cell) {
  if (cell < images_.size()) images_[cell] = nullptr;
}

GuestImage* Machine::guest_for(CellId cell) noexcept {
  return cell < images_.size() ? images_[cell] : nullptr;
}

void Machine::run_tick() {
  board_->tick();
  if (watchdog_ != nullptr) watchdog_->on_tick();
  if (hv_->is_panicked()) return;

  for (int cpu = 0; cpu < board_->num_cpus(); ++cpu) {
    arch::Cpu& core = board_->cpu(cpu);
    if (core.power_state() == arch::PowerState::Booting) {
      started_[static_cast<std::size_t>(cpu)] = false;
      hv_->cpu_bringup_entry(cpu);
    }
    if (hv_->is_panicked()) return;
    if (!core.is_online()) continue;

    Cell* cell = hv_->cell_on_cpu(cpu);
    GuestImage* image = cell != nullptr ? guest_for(cell->id()) : nullptr;
    if (cell != nullptr && image != nullptr &&
        !started_[static_cast<std::size_t>(cpu)]) {
      GuestContext ctx(*hv_, *cell, cpu);
      image->on_start(ctx);
      started_[static_cast<std::size_t>(cpu)] = true;
    }
    deliver_irqs(cpu);
    if (hv_->is_panicked()) return;
    run_guest_quantum(cpu);
    if (hv_->is_panicked()) return;
  }
}

void Machine::deliver_irqs(int cpu) {
  const irq::Gic& gic = board_->gic();
  for (int i = 0; i < kMaxIrqsPerTick; ++i) {
    // Exact pre-check: with nothing pending, acknowledge() is spurious and
    // irqchip_handle_irq returns nullopt without any side effect, so the
    // call (most of a busy tick's IRQ polls) can be skipped outright.
    if (!gic.any_pending(cpu)) return;
    const auto delivery = hv_->irqchip_handle_irq(cpu);
    if (!delivery.has_value()) return;
    if (hv_->is_panicked()) return;
    if (!board_->cpu(cpu).is_online()) return;  // parked mid-delivery

    Cell* cell = hv_->cell_on_cpu(cpu);
    GuestImage* image = cell != nullptr ? guest_for(cell->id()) : nullptr;
    if (cell == nullptr || image == nullptr) continue;
    if (!started_[static_cast<std::size_t>(cpu)]) continue;

    GuestContext ctx(*hv_, *cell, cpu);
    switch (delivery->outcome) {
      case IrqOutcome::TimerTick:
        image->on_timer(ctx);
        break;
      case IrqOutcome::Delivered:
        image->on_irq(ctx, delivery->vector);
        break;
      case IrqOutcome::Spurious:
      case IrqOutcome::Unowned:
        break;  // predictable error paths: nothing reaches the guest
    }
  }
}

void Machine::run_guest_quantum(int cpu) {
  arch::Cpu& core = board_->cpu(cpu);
  if (!core.is_online()) return;
  Cell* cell = hv_->cell_on_cpu(cpu);
  if (cell == nullptr || cell->state() != CellState::Running) return;
  GuestImage* image = guest_for(cell->id());
  if (image == nullptr || !started_[static_cast<std::size_t>(cpu)]) return;
  GuestContext ctx(*hv_, *cell, cpu);
  image->run_quantum(ctx);
}

std::uint64_t Machine::inert_span(util::Ticks target) const {
  // A core that is online runs a quantum every tick; a core in bring-up
  // takes its HYP entry next tick. Either forces the per-tick sequence.
  // (A parked/failed/off core is skipped by run_tick entirely, and on a
  // panicked machine nothing executes at all — those spans are inert.)
  if (!hv_->is_panicked()) {
    for (int cpu = 0; cpu < board_->num_cpus(); ++cpu) {
      const arch::PowerState state = board_->cpu(cpu).power_state();
      if (state == arch::PowerState::On || state == arch::PowerState::Booting) {
        return 0;
      }
    }
  }
  const util::Ticks now = board_->now();
  std::uint64_t span = (target - now).value;
  const util::Ticks deadline = board_->next_device_deadline();
  if (deadline != platform::kNoDeadline) {
    span = std::min(span, (deadline - now).value);
  }
  if (watchdog_ != nullptr) {
    span = std::min(span, watchdog_->ticks_to_next_check());
  }
  return span;
}

void Machine::run_until(util::Ticks target) {
  while (board_->now() < target) {
    std::uint64_t leap = 0;
    if (policy_ == TickPolicy::EventDriven) leap = inert_span(target);
    if (leap == 0) {
      run_tick();
      continue;
    }
    // Inert span: leap the board to the next event (devices fire there),
    // then account the elapsed ticks to the watchdog — the same
    // board-then-watchdog order the per-tick sequence uses, at the same
    // board time, so alarms and log records land on identical ticks.
    board_->advance_to(board_->now() + util::Ticks{leap});
    if (watchdog_ != nullptr) watchdog_->on_ticks(leap);
  }
}

void Machine::run_ticks(std::uint64_t n) {
  run_until(board_->now() + util::Ticks{n});
}

// ---------------------------------------------------------------------------
// GuestContext — implemented here where Hypervisor is complete
// ---------------------------------------------------------------------------

util::Ticks GuestContext::now() const noexcept {
  return hv_->board().now();
}

util::Status GuestContext::mmio_write_u32(std::uint64_t addr, std::uint32_t value) {
  // Cached stage-2 walk: console and device rings hit the same region
  // every access, so the cell TLB turns the per-byte walk into two
  // compares. Fault recording on a miss is identical to the full walk.
  auto walk = cell_->address_space().translate_cached(addr, mem::Access::Write, 4);
  if (walk.is_ok()) {
    // Mapped (passthrough or RAM): straight to the bus, no trap.
    return hv_->board().bus().write_u32(walk.value().phys, value);
  }
  // Stage-2 fault: data abort into the hypervisor.
  const TrapOutcome outcome = hv_->guest_data_abort(cpu_, addr, value, true);
  switch (outcome.action) {
    case TrapAction::Resume: return util::ok_status();
    case TrapAction::CpuParked: return util::fault("cpu parked during MMIO write");
    case TrapAction::Panicked: return util::fault("hypervisor panic during MMIO write");
  }
  return util::internal("unreachable");
}

util::Expected<std::uint32_t> GuestContext::mmio_read_u32(std::uint64_t addr) {
  auto walk = cell_->address_space().translate_cached(addr, mem::Access::Read, 4);
  if (walk.is_ok()) {
    return hv_->board().bus().read_u32(walk.value().phys);
  }
  const TrapOutcome outcome = hv_->guest_data_abort(cpu_, addr, 0, false);
  if (outcome.action == TrapAction::Resume) return outcome.mmio_read_value;
  return util::fault("trap failed during MMIO read");
}

util::Status GuestContext::ram_write_u32(std::uint64_t addr, std::uint32_t value) {
  return cell_->address_space().write_u32(addr, value);
}

util::Expected<std::uint32_t> GuestContext::ram_read_u32(std::uint64_t addr) {
  return cell_->address_space().read_u32(addr);
}

HvcResult GuestContext::hypercall(std::uint32_t code, std::uint32_t arg0,
                                  std::uint32_t arg1) {
  return hv_->guest_hypercall(cpu_, code, arg0, arg1);
}

void GuestContext::console_putc(char c) {
  const ConsoleConfig& console = cell_->config().console;
  if (console.kind == ConsoleKind::None) return;
  // Both passthrough and trapped consoles are plain MMIO writes from the
  // guest's point of view; the stage-2 walk decides whether a trap
  // happens. console_bytes for passthrough is counted here (the trapped
  // path counts inside the hypervisor's emulation).
  const util::Status status = mmio_write_u32(
      console.uart_base + platform::kUartThr, static_cast<std::uint32_t>(
          static_cast<unsigned char>(c)));
  if (status.is_ok() && console.kind == ConsoleKind::Passthrough) {
    ++cell_->console_bytes;
  }
}

void GuestContext::console_puts(std::string_view text) {
  for (const char c : text) {
    console_putc(c);
    // A parked/panicked CPU stops transmitting mid-line, like the board.
    if (!hv_->board().cpu(cpu_).is_online()) return;
  }
}

void GuestContext::start_periodic_timer(std::uint32_t period_ticks) {
  hv_->board().timer().start(cpu_, period_ticks);
}

void GuestContext::stop_periodic_timer() { hv_->board().timer().stop(cpu_); }

void GuestContext::set_led(bool on) {
  const std::uint64_t data_addr = platform::kGpioBase + platform::kGpioData;
  auto current = mmio_read_u32(data_addr);
  if (!current.is_ok()) return;
  std::uint32_t bits = current.value();
  bits = on ? util::set_bit(bits, platform::kGreenLedLine)
            : util::clear_bit(bits, platform::kGreenLedLine);
  (void)mmio_write_u32(data_addr, bits);
}

}  // namespace mcs::jh
