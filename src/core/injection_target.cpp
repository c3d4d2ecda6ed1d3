#include "core/injection_target.hpp"

#include "hypervisor/hypervisor.hpp"
#include "hypervisor/ivshmem.hpp"
#include "irq/gic.hpp"
#include "platform/board.hpp"
#include "platform/timer.hpp"
#include "platform/uart.hpp"
#include "util/bitops.hpp"

namespace mcs::fi {

FaultRecord inject_dram_fault(util::Xoshiro256& rng,
                              mem::PhysicalMemory& memory, mem::PhysAddr base,
                              std::uint64_t size) {
  FaultRecord record;
  record.domain = FaultDomain::Dram;
  record.addr = base + rng.below(size);
  record.bit = static_cast<unsigned>(rng.below(8));
  const auto before = memory.read_u8(record.addr);
  record.before = before.is_ok() ? before.value() : 0;
  record.after = util::flip_bit(record.before, record.bit);
  if (memory.write_u8(record.addr, static_cast<std::uint8_t>(record.after)).is_ok()) {
    record.changed = kChangedDramPage;
  }
  return record;
}

namespace {

/// The original behaviour: the plan's register fault model over the live
/// entry frame. The model's records already carry domain = Register.
class RegisterTarget final : public InjectionTarget {
 public:
  explicit RegisterTarget(std::unique_ptr<FaultModel> model)
      : model_(std::move(model)) {}

  [[nodiscard]] FaultDomain domain() const noexcept override {
    return FaultDomain::Register;
  }

  std::vector<FaultRecord> inject(util::Xoshiro256& rng,
                                  arch::EntryFrame& frame,
                                  jh::Hypervisor* /*hv*/) const override {
    std::vector<FaultRecord> records = model_->apply(rng, frame.writer().bank());
    for (FaultRecord& record : records) {
      // A stuck-at on a register already stuck changes nothing.
      if (record.after != record.before) record.changed = kChangedRegister;
    }
    return records;
  }

 private:
  std::unique_ptr<FaultModel> model_;
};

/// GIC distributor corruption: one of four mutations against a random
/// line — enable flip, priority bit flip, SPI retarget, pending set.
/// All state changes go through the Gic's own API, so the pending-bitmap
/// mirror and the snapshot contents stay coherent.
class GicTarget final : public InjectionTarget {
 public:
  [[nodiscard]] FaultDomain domain() const noexcept override {
    return FaultDomain::Gic;
  }

  std::vector<FaultRecord> inject(util::Xoshiro256& rng,
                                  arch::EntryFrame& /*frame*/,
                                  jh::Hypervisor* hv) const override {
    if (hv == nullptr) return {};
    irq::Gic& gic = hv->board().gic();
    FaultRecord record;
    record.domain = FaultDomain::Gic;
    switch (rng.below(4)) {
      case 0: {  // enable-bit flip (GICD_ISENABLER/ICENABLER corruption)
        const auto irq = static_cast<irq::IrqId>(rng.below(irq::kNumIrqs));
        record.addr = irq;
        record.before = gic.is_enabled(irq) ? 1 : 0;
        const std::uint8_t priority = gic.priority(irq);
        if (record.before != 0) {
          (void)gic.disable(irq);
        } else {
          (void)gic.enable(irq);
        }
        record.after = record.before ^ 1u;
        record.changed = kChangedGicEnable;
        // Enabling a line at the idle priority also gives it the default.
        if (gic.priority(irq) != priority) record.changed |= kChangedGicPriority;
        break;
      }
      case 1: {  // priority bit flip (GICD_IPRIORITYR corruption)
        const auto irq = static_cast<irq::IrqId>(rng.below(irq::kNumIrqs));
        record.addr = irq;
        record.bit = static_cast<unsigned>(rng.below(8));
        record.before = gic.priority(irq);
        record.after = util::flip_bit(record.before, record.bit);
        (void)gic.set_priority(irq, static_cast<std::uint8_t>(record.after));
        record.changed = kChangedGicPriority;
        break;
      }
      case 2: {  // SPI retarget (GICD_ITARGETSR corruption)
        const auto irq = static_cast<irq::IrqId>(
            irq::kFirstSpi + rng.below(irq::kNumIrqs - irq::kFirstSpi));
        const int cpu = static_cast<int>(rng.below(gic.num_cpus()));
        record.addr = irq;
        record.before = static_cast<std::uint64_t>(gic.target(irq));
        (void)gic.set_target(irq, cpu);
        record.after = static_cast<std::uint64_t>(cpu);
        if (record.after != record.before) record.changed = kChangedGicTarget;
        break;
      }
      default: {  // pending-bit set (GICD_ISPENDR corruption)
        const auto irq = static_cast<irq::IrqId>(rng.below(irq::kNumIrqs));
        const int cpu = static_cast<int>(rng.below(gic.num_cpus()));
        record.addr = irq;
        record.before = gic.is_pending(irq, cpu) ? 1 : 0;
        gic.force_pending(cpu, irq);
        record.after = 1;
        if (record.before == 0) record.changed = kChangedPending;
        break;
      }
    }
    return {record};
  }
};

/// IRQ-delivery faults: a pending SPI silently lost at its routed CPU, or
/// a spurious assertion — an SPI at a random CPU or an ivshmem doorbell
/// SGI that no peer ever rang.
class IrqDeliveryTarget final : public InjectionTarget {
 public:
  [[nodiscard]] FaultDomain domain() const noexcept override {
    return FaultDomain::IrqDelivery;
  }

  std::vector<FaultRecord> inject(util::Xoshiro256& rng,
                                  arch::EntryFrame& /*frame*/,
                                  jh::Hypervisor* hv) const override {
    if (hv == nullptr) return {};
    irq::Gic& gic = hv->board().gic();
    FaultRecord record;
    record.domain = FaultDomain::IrqDelivery;
    switch (rng.below(3)) {
      case 0: {  // lost interrupt: squash the line at its routed CPU
        const auto irq = static_cast<irq::IrqId>(
            irq::kFirstSpi + rng.below(irq::kNumIrqs - irq::kFirstSpi));
        const int cpu = gic.target(irq);
        record.addr = irq;
        record.before = gic.is_pending(irq, cpu) ? 1 : 0;
        gic.squash_pending(cpu, irq);
        record.after = 0;
        if (record.before != 0) record.changed = kChangedPending;
        break;
      }
      case 1: {  // spurious SPI at a random CPU
        const auto irq = static_cast<irq::IrqId>(
            irq::kFirstSpi + rng.below(irq::kNumIrqs - irq::kFirstSpi));
        const int cpu = static_cast<int>(rng.below(gic.num_cpus()));
        record.addr = irq;
        record.before = gic.is_pending(irq, cpu) ? 1 : 0;
        gic.force_pending(cpu, irq);
        record.after = 1;
        if (record.before == 0) record.changed = kChangedPending;
        break;
      }
      default: {  // spurious ivshmem doorbell SGI
        const int cpu = static_cast<int>(rng.below(gic.num_cpus()));
        record.addr = jh::kIvshmemDoorbellSgi;
        record.before = gic.is_pending(jh::kIvshmemDoorbellSgi, cpu) ? 1 : 0;
        gic.force_pending(cpu, jh::kIvshmemDoorbellSgi);
        record.after = 1;
        if (record.before == 0) record.changed = kChangedPending;
        break;
      }
    }
    return {record};
  }
};

/// Device MMIO-state faults: flip one bit of a writable device register —
/// a per-CPU timer control or interval word, or the UART1 interrupt
/// enable — through the device's own mmio_read/mmio_write path, so the
/// timer's deadline-generation bump (and any other write side effect)
/// fires exactly as for a guest store.
class DeviceMmioTarget final : public InjectionTarget {
 public:
  [[nodiscard]] FaultDomain domain() const noexcept override {
    return FaultDomain::DeviceMmio;
  }

  std::vector<FaultRecord> inject(util::Xoshiro256& rng,
                                  arch::EntryFrame& /*frame*/,
                                  jh::Hypervisor* hv) const override {
    if (hv == nullptr) return {};
    platform::Board& board = hv->board();
    // The menu of attackable registers, fixed per board: 2 timer words
    // per CPU plus the UART1 IER. Board shape is identical between a
    // fresh boot and a snapshot restore, so the draw is deterministic.
    struct Slot {
      platform::Device* device;
      std::uint64_t offset;
    };
    std::vector<Slot> menu;
    menu.reserve(static_cast<std::size_t>(board.num_cpus()) * 2 + 1);
    for (int cpu = 0; cpu < board.num_cpus(); ++cpu) {
      const std::uint64_t stride =
          static_cast<std::uint64_t>(cpu) * platform::kTimerStride;
      menu.push_back({&board.timer(), stride + platform::kTimerCtl});
      menu.push_back({&board.timer(), stride + platform::kTimerInterval});
    }
    menu.push_back({&board.uart1(), platform::kUartIer});

    const Slot slot = menu[rng.below(menu.size())];
    FaultRecord record;
    record.domain = FaultDomain::DeviceMmio;
    record.addr = slot.device->base() + slot.offset;
    record.bit = static_cast<unsigned>(rng.below(32));
    const auto before = slot.device->mmio_read(slot.offset);
    record.before = before.is_ok() ? before.value() : 0;
    const auto flipped =
        util::flip_bit(static_cast<std::uint32_t>(record.before), record.bit);
    (void)slot.device->mmio_write(slot.offset, flipped);
    // Devices mask reserved bits on write, so record what the register
    // actually holds now — the fault the guest will observe — not the
    // raw xor we attempted.
    const auto after = slot.device->mmio_read(slot.offset);
    record.after = after.is_ok() ? after.value() : flipped;
    if (record.after != record.before) record.changed = kChangedDevice;
    return {record};
  }
};

/// DRAM bit flips confined to the guest under test: the lowest-id
/// non-root cell's "ram" region when one exists (the workload's memory),
/// else the root cell's, else the whole DRAM window. Writes go through
/// PhysicalMemory, so pages are dirty-marked and restore() reverts them.
class DramTarget final : public InjectionTarget {
 public:
  [[nodiscard]] FaultDomain domain() const noexcept override {
    return FaultDomain::Dram;
  }

  std::vector<FaultRecord> inject(util::Xoshiro256& rng,
                                  arch::EntryFrame& /*frame*/,
                                  jh::Hypervisor* hv) const override {
    if (hv == nullptr) return {};
    mem::PhysicalMemory& dram = hv->board().dram();
    mem::PhysAddr base = dram.base();
    std::uint64_t size = dram.size();
    if (const mem::MemRegion* ram = pick_window(*hv, dram)) {
      base = ram->phys_start;
      size = ram->size;
    }
    return {inject_dram_fault(rng, dram, base, size)};
  }

 private:
  static const mem::MemRegion* pick_window(jh::Hypervisor& hv,
                                           const mem::PhysicalMemory& dram) {
    const mem::MemRegion* root_ram = nullptr;
    for (jh::Cell* cell : hv.cells()) {  // ascending id; root first
      for (const mem::MemRegion& region : cell->config().mem_regions) {
        if (region.name != "ram" || region.size == 0) continue;
        if (!dram.contains(region.phys_start, region.size)) continue;
        if (cell->id() != jh::kRootCellId) return &region;
        if (root_ram == nullptr) root_ram = &region;
      }
    }
    return root_ram;
  }
};

}  // namespace

bool dead_in_golden(const FaultRecord& record, std::uint32_t index,
                    const util::TouchLog& golden, const mem::PhysicalMemory& dram) {
  using Field = util::TouchLog::GicField;
  if ((record.changed & (kChangedPending | kChangedDevice)) != 0) return false;
  const auto touched = [&](std::uint64_t key) { return golden.touched_since(key, index); };
  if ((record.changed & kChangedDramPage) != 0 &&
      touched(util::TouchLog::page_key((record.addr - dram.base()) / mem::kPageSize))) {
    return false;
  }
  const auto irq = static_cast<std::uint32_t>(record.addr);
  if ((record.changed & kChangedGicEnable) != 0 &&
      touched(util::TouchLog::gic_key(irq, Field::Enable))) {
    return false;
  }
  if ((record.changed & kChangedGicPriority) != 0 &&
      touched(util::TouchLog::gic_key(irq, Field::Priority))) {
    return false;
  }
  return (record.changed & kChangedGicTarget) == 0 ||
         !touched(util::TouchLog::gic_key(irq, Field::Target));
}

void write_back(const FaultRecord& record, jh::Hypervisor& hv) {
  irq::Gic& gic = hv.board().gic();
  const auto irq = static_cast<irq::IrqId>(record.addr);
  if ((record.changed & kChangedDramPage) != 0) {
    (void)hv.board().dram().write_u8(record.addr, static_cast<std::uint8_t>(record.after));
  }
  if ((record.changed & kChangedGicEnable) != 0) gic.set_enabled(irq, record.after != 0);
  if ((record.changed & kChangedGicPriority) != 0) {
    // An enable flip that also changed the priority lifted it from idle
    // to the default; a priority flip's `after` is the priority itself.
    (void)gic.set_priority(irq, (record.changed & kChangedGicEnable) != 0
                                    ? irq::kDefaultPriority
                                    : static_cast<std::uint8_t>(record.after));
  }
  if ((record.changed & kChangedGicTarget) != 0) {
    (void)gic.set_target(irq, static_cast<int>(record.after));
  }
}

std::unique_ptr<InjectionTarget> make_injection_target(const TestPlan& plan) {
  switch (plan.fault_domain) {
    case FaultDomain::Register:
      return std::make_unique<RegisterTarget>(
          make_fault_model(plan.fault, plan.fault_registers, plan.fault_count));
    case FaultDomain::Gic:
      return std::make_unique<GicTarget>();
    case FaultDomain::IrqDelivery:
      return std::make_unique<IrqDeliveryTarget>();
    case FaultDomain::DeviceMmio:
      return std::make_unique<DeviceMmioTarget>();
    case FaultDomain::Dram:
      return std::make_unique<DramTarget>();
  }
  return nullptr;
}

}  // namespace mcs::fi
