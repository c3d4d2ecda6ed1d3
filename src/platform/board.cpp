#include "platform/board.hpp"

#include <algorithm>

namespace mcs::platform {

namespace {

// Enforced before any member sizes itself from the spec: the GIC, the
// hypervisor's per-CPU ownership tables and the machine's bring-up flags
// are all bounded by irq::kMaxCpus, so a registered variant can never
// exceed it (or go below one core).
BoardSpec sanitize(BoardSpec spec) {
  spec.num_cpus = std::clamp(spec.num_cpus, 1, irq::kMaxCpus);
  return spec;
}

}  // namespace

BoardSpec bananapi_spec() {
  BoardSpec spec;
  spec.name = "bananapi";
  spec.model = "Banana Pi (Allwinner A20, dual-core Cortex-A7, 1 GiB)";
  spec.num_cpus = 2;
  spec.ram_size = mem::kDramSize;
  spec.devices = {"uart0", "uart1", "timer", "gpio"};
  return spec;
}

BoardSpec quad_a7_spec() {
  BoardSpec spec;
  spec.name = "quad-a7";
  spec.model = "quad-core Cortex-A7 (A20 peripheral block, 1 GiB)";
  spec.num_cpus = 4;
  spec.ram_size = mem::kDramSize;
  spec.devices = {"uart0", "uart1", "timer", "gpio"};
  return spec;
}

Board::Board(BoardSpec spec)
    : spec_(sanitize(std::move(spec))),
      dram_(mem::kDramBase, spec_.ram_size),
      gic_(spec_.num_cpus),
      bus_(dram_),
      uart0_("uart0", kUart0Base, &gic_, kUart0Irq),
      uart1_("uart1", kUart1Base, &gic_, kUart1Irq),
      timer_("timer", kTimerBase, gic_, spec_.num_cpus, clock_),
      gpio_("gpio", kGpioBase) {
  cpus_.reserve(static_cast<std::size_t>(spec_.num_cpus));
  // CPU blocks live in the board arena: one bump-allocated block instead
  // of a heap node per core, freed wholesale with the board.
  for (int i = 0; i < spec_.num_cpus; ++i) {
    cpus_.push_back(arena_.create<arch::Cpu>(i));
  }
  // Window overlaps are a wiring bug, not a runtime condition.
  (void)bus_.attach(uart0_);
  (void)bus_.attach(uart1_);
  (void)bus_.attach(timer_);
  (void)bus_.attach(gpio_);
  scheduled_ = {&uart0_, &uart1_, &timer_, &gpio_};
  // Wire every scheduled device into the deadline cache: a re-arm bumps
  // the generation, so next_device_deadline() re-polls only then.
  for (Device* device : scheduled_) device->bind_deadline_gen(&deadline_gen_);
}

Board::~Board() {
  // Arena storage is freed wholesale; the objects inside still need their
  // destructors (Cpu owns a halt-reason string).
  for (arch::Cpu* cpu : cpus_) cpu->~Cpu();
}

util::Ticks Board::next_device_deadline() const {
  // Deadlines are absolute and devices bump the generation on every
  // re-arm, so a matching generation means the cached minimum is exact.
  if (cached_deadline_gen_ != deadline_gen_) {
    const util::Ticks now = clock_.now();
    util::Ticks earliest = kNoDeadline;
    for (const Device* device : scheduled_) {
      earliest = std::min(earliest, device->next_deadline(now));
    }
    cached_deadline_ = earliest;
    cached_deadline_gen_ = deadline_gen_;
    ++deadline_refreshes_;
  }
  return cached_deadline_;
}

void Board::service_due_devices(util::Ticks now) {
  // Nothing due: one cached compare instead of a virtual poll per device
  // — the dominant case on busy per-tick spans between timer fires.
  if (next_device_deadline() > now) return;
  for (Device* device : scheduled_) {
    if (device->next_deadline(now) <= now) device->tick(now);
  }
}

void Board::tick() {
  clock_.tick();
  service_due_devices(clock_.now());
}

void Board::advance_to(util::Ticks target) {
  while (clock_.now() < target) {
    const util::Ticks deadline = next_device_deadline();
    if (deadline > target) {
      // Nothing can fire before the window closes: one leap.
      clock_.advance(target - clock_.now());
      return;
    }
    // Deadlines are strictly future by contract; guard against a device
    // that violates it so time always makes progress.
    const util::Ticks stop = std::max(deadline, clock_.now() + util::Ticks{1});
    clock_.advance(stop - clock_.now());
    service_due_devices(clock_.now());
  }
}

void Board::run_ticks(std::uint64_t n) {
  advance_to(clock_.now() + util::Ticks{n});
}

void Board::snapshot_to(Snapshot& out, util::Arena& page_arena) const {
  out.clock_now = clock_.now();
  out.cpus.resize(cpus_.size());
  for (std::size_t i = 0; i < cpus_.size(); ++i) cpus_[i]->snapshot_to(out.cpus[i]);
  gic_.snapshot_to(out.gic);
  uart0_.snapshot_to(out.uart0);
  uart1_.snapshot_to(out.uart1);
  timer_.snapshot_to(out.timer);
  gpio_.snapshot_to(out.gpio);
  dram_.snapshot_to(out.dram, page_arena);
  out.log_records = log_.size();
}

void Board::restore_from(const Snapshot& snapshot) {
  clock_.restore(snapshot.clock_now);
  for (std::size_t i = 0; i < cpus_.size() && i < snapshot.cpus.size(); ++i) {
    cpus_[i]->restore_from(snapshot.cpus[i]);
  }
  gic_.restore_from(snapshot.gic);
  uart0_.restore_from(snapshot.uart0);
  uart1_.restore_from(snapshot.uart1);
  timer_.restore_from(snapshot.timer);
  gpio_.restore_from(snapshot.gpio);
  dram_.restore_from(snapshot.dram);
  log_.truncate(snapshot.log_records);
}

}  // namespace mcs::platform
