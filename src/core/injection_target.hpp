// Pluggable fault domains: where an injection lands.
//
// The original injector was hard-wired to one domain — FaultModel::apply
// against the trapped register frame. InjectionTarget generalises that
// into the §V "wider and customizable set of fault models": each domain
// is a strategy that corrupts a different layer of the machine at the
// same deterministic cadence (every Nth filtered call of the hooked
// hypervisor function):
//
//   register      the classical bit-flip models over the EntryFrame bank
//   gic           GIC distributor corruption: enable/priority/target/
//                 pending state of a random line
//   irq-delivery  lost SPIs (squash a pending assertion) and spurious
//                 SPI/doorbell-SGI deliveries
//   device-mmio   device register state: timer control/interval words and
//                 the UART1 interrupt-enable register, via the devices'
//                 own MMIO paths (so deadline caches stay coherent)
//   dram          single-bit flips in the target cell's DRAM window (the
//                 former MemoryFaultInjector, now a first-class domain)
//
// Every mutation goes through the owning model's public API — GIC writes
// keep the pending-bitmap mirror, timer writes bump the deadline
// generation, DRAM writes mark pages dirty — so snapshots, caches and
// restore() see injected state exactly like guest-written state.
//
// Each record names the locations it changed (FaultRecord::changed) and
// names none for a no-op, so the executor can tell a dead injection — one
// the fault-free run never looks at again — from a live one.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "arch/cpu.hpp"
#include "core/fault_model.hpp"
#include "core/plan.hpp"
#include "mem/phys_mem.hpp"
#include "util/rng.hpp"
#include "util/touch_log.hpp"

namespace mcs::fi {

/// Strategy interface: corrupt one domain of the live machine, report
/// what changed. `hv` is the machine under attack; targets that need it
/// (every domain but register) inject nothing when it is null, so tests
/// driving Injector::on_entry without a hypervisor still work.
class InjectionTarget {
 public:
  virtual ~InjectionTarget() = default;
  [[nodiscard]] virtual FaultDomain domain() const noexcept = 0;
  [[nodiscard]] std::string_view name() const noexcept {
    return fault_domain_name(domain());
  }
  virtual std::vector<FaultRecord> inject(util::Xoshiro256& rng,
                                          arch::EntryFrame& frame,
                                          jh::Hypervisor* hv) const = 0;
};

/// Flip one random bit of one random byte in [base, base+size). The write
/// goes through PhysicalMemory::write_u8, so the page is materialised and
/// dirty-marked — snapshot restore reverts the flip like any guest write.
[[nodiscard]] FaultRecord inject_dram_fault(util::Xoshiro256& rng,
                                            mem::PhysicalMemory& memory,
                                            mem::PhysAddr base,
                                            std::uint64_t size);

/// The dead-location rule for a non-register record made at the plan's
/// injecting call `index`: true when every location it changed is one the
/// golden suffix never touches from that call on. Pending bits and device
/// registers are always live; a no-op is dead. Register flips are judged
/// by the injector's tracked reads instead (fi::Injector::dead).
[[nodiscard]] bool dead_in_golden(const FaultRecord& record, std::uint32_t index,
                                  const util::TouchLog& golden,
                                  const mem::PhysicalMemory& dram);

/// Write a dead record's `after` values back into `hv`'s machine — after
/// a ladder rung restore put the golden run's values there. Only the
/// locations the record names are written, with no side effects.
void write_back(const FaultRecord& record, jh::Hypervisor& hv);

/// Factory: the plan's fault_domain (plus, for the register domain, its
/// fault model kind and register restriction) → target instance.
[[nodiscard]] std::unique_ptr<InjectionTarget> make_injection_target(
    const TestPlan& plan);

}  // namespace mcs::fi
