#include "core/injection_target.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <utility>
#include <vector>

#include "core/testbed.hpp"
#include "hypervisor/cell_config.hpp"
#include "hypervisor/hypervisor.hpp"
#include "irq/gic.hpp"
#include "platform/board.hpp"
#include "platform/timer.hpp"
#include "platform/uart.hpp"

namespace mcs::fi {
namespace {

TestPlan plan_for(FaultDomain domain) {
  TestPlan plan;
  plan.fault_domain = domain;
  return plan;
}

TEST(InjectionTarget, FactoryMapsEveryDomain) {
  for (std::size_t d = 0; d < kNumFaultDomains; ++d) {
    const auto domain = static_cast<FaultDomain>(d);
    const auto target = make_injection_target(plan_for(domain));
    ASSERT_NE(target, nullptr) << fault_domain_name(domain);
    EXPECT_EQ(target->domain(), domain);
    EXPECT_EQ(target->name(), fault_domain_name(domain));
  }
}

TEST(InjectionTarget, DomainNamesRoundTrip) {
  for (std::size_t d = 0; d < kNumFaultDomains; ++d) {
    const auto domain = static_cast<FaultDomain>(d);
    FaultDomain back;
    ASSERT_TRUE(fault_domain_from_name(fault_domain_name(domain), back));
    EXPECT_EQ(back, domain);
  }
  FaultDomain unused;
  EXPECT_FALSE(fault_domain_from_name("no-such-domain", unused));
  EXPECT_FALSE(fault_domain_from_name("", unused));
}

TEST(InjectionTarget, RegisterTargetCorruptsTheEntryFrame) {
  const auto target = make_injection_target(plan_for(FaultDomain::Register));
  util::Xoshiro256 rng(11);
  arch::EntryFrame frame;
  const auto records = target->inject(rng, frame, nullptr);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].domain, FaultDomain::Register);
  EXPECT_EQ(records[0].after, records[0].before ^ (1u << records[0].bit));
  EXPECT_EQ(frame.writer().get(records[0].reg), records[0].after);
}

TEST(InjectionTarget, MachineDomainsInjectNothingWithoutAHypervisor) {
  // Tests that drive the injector without a live machine must stay valid:
  // every non-register domain declines to inject rather than crash.
  for (const auto domain : {FaultDomain::Gic, FaultDomain::IrqDelivery,
                            FaultDomain::DeviceMmio, FaultDomain::Dram}) {
    const auto target = make_injection_target(plan_for(domain));
    util::Xoshiro256 rng(1);
    arch::EntryFrame frame;
    EXPECT_TRUE(target->inject(rng, frame, nullptr).empty())
        << fault_domain_name(domain);
  }
}

TEST(InjectionTarget, GicTargetMutatesDistributorStateCoherently) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  const auto target = make_injection_target(plan_for(FaultDomain::Gic));
  util::Xoshiro256 rng(21);
  arch::EntryFrame frame;
  const irq::Gic& gic = testbed.board().gic();
  for (int i = 0; i < 64; ++i) {
    const auto records =
        target->inject(rng, frame, &testbed.hypervisor());
    ASSERT_EQ(records.size(), 1u);
    const FaultRecord& record = records[0];
    EXPECT_EQ(record.domain, FaultDomain::Gic);
    EXPECT_LT(record.addr, irq::kNumIrqs);  // addr carries the line id
  }
  // The machine keeps running after sustained distributor corruption —
  // faults are injected through the GIC's public API, never UB.
  testbed.run(500);
  EXPECT_FALSE(testbed.hypervisor().is_panicked());
  (void)gic;
}

TEST(InjectionTarget, GicTargetIsDeterministicForSeed) {
  auto run_sequence = [] {
    Testbed testbed;
    EXPECT_TRUE(testbed.enable_hypervisor().is_ok());
    testbed.boot_freertos_cell();
    const auto target = make_injection_target(plan_for(FaultDomain::Gic));
    util::Xoshiro256 rng(77);
    arch::EntryFrame frame;
    std::vector<FaultRecord> all;
    for (int i = 0; i < 32; ++i) {
      for (const FaultRecord& r :
           target->inject(rng, frame, &testbed.hypervisor())) {
        all.push_back(r);
      }
    }
    return all;
  };
  const auto a = run_sequence();
  const auto b = run_sequence();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].addr, b[i].addr);
    EXPECT_EQ(a[i].bit, b[i].bit);
    EXPECT_EQ(a[i].before, b[i].before);
    EXPECT_EQ(a[i].after, b[i].after);
  }
}

TEST(InjectionTarget, IrqDeliveryTargetTogglesPendingState) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  const auto target =
      make_injection_target(plan_for(FaultDomain::IrqDelivery));
  util::Xoshiro256 rng(31);
  arch::EntryFrame frame;
  bool saw_spurious = false;
  bool saw_lost = false;
  for (int i = 0; i < 64; ++i) {
    const auto records =
        target->inject(rng, frame, &testbed.hypervisor());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].domain, FaultDomain::IrqDelivery);
    EXPECT_LT(records[0].addr, irq::kNumIrqs);
    saw_spurious = saw_spurious || records[0].after == 1;
    saw_lost = saw_lost || records[0].after == 0;
  }
  EXPECT_TRUE(saw_spurious);  // spurious assertions happen
  EXPECT_TRUE(saw_lost);      // and so do lost deliveries
  testbed.run(500);
  EXPECT_FALSE(testbed.hypervisor().is_panicked());
}

TEST(InjectionTarget, DeviceMmioTargetWritesThroughTheDevice) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  const auto target =
      make_injection_target(plan_for(FaultDomain::DeviceMmio));
  util::Xoshiro256 rng(41);
  arch::EntryFrame frame;
  platform::Board& board = testbed.board();
  for (int i = 0; i < 32; ++i) {
    const auto records =
        target->inject(rng, frame, &testbed.hypervisor());
    ASSERT_EQ(records.size(), 1u);
    const FaultRecord& record = records[0];
    EXPECT_EQ(record.domain, FaultDomain::DeviceMmio);
    // The flip landed in a device this board actually exposes, and the
    // device reads the flipped value back (the write went through its
    // own MMIO path, not around it).
    platform::Device* device = nullptr;
    if (record.addr >= board.timer().base() &&
        record.addr < board.timer().base() + 0x100) {
      device = &board.timer();
    } else if (record.addr >= board.uart1().base() &&
               record.addr < board.uart1().base() + 0x100) {
      device = &board.uart1();
    }
    ASSERT_NE(device, nullptr) << std::hex << record.addr;
    const auto read = device->mmio_read(record.addr - device->base());
    ASSERT_TRUE(read.is_ok());
    EXPECT_EQ(read.value(), record.after);
  }
}

TEST(InjectionTarget, DramTargetConfinesFlipsToTheWorkloadCell) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  const auto target = make_injection_target(plan_for(FaultDomain::Dram));
  util::Xoshiro256 rng(51);
  arch::EntryFrame frame;
  for (int i = 0; i < 64; ++i) {
    const auto records =
        target->inject(rng, frame, &testbed.hypervisor());
    ASSERT_EQ(records.size(), 1u);
    const FaultRecord& record = records[0];
    EXPECT_EQ(record.domain, FaultDomain::Dram);
    // Flips stay inside the non-root cell's RAM window, never the
    // hypervisor's or the root cell's working set.
    EXPECT_GE(record.addr, jh::kFreeRtosRamBase);
    EXPECT_LT(record.addr, jh::kFreeRtosRamBase + jh::kFreeRtosRamSize);
    EXPECT_EQ(testbed.board().dram().read_u8(record.addr).value(),
              record.after);
  }
}

// --- what each record names ---------------------------------------------------
//
// The golden-suffix verdicts rest on FaultRecord::changed: every target
// must name exactly the locations its injection changed, and none for a
// no-op. These diff the machine state around each injection.

/// Every GIC field an injection can reach, per line (and per CPU).
struct GicState {
  std::array<bool, irq::kNumIrqs> enabled{};
  std::array<std::uint8_t, irq::kNumIrqs> priority{};
  std::array<int, irq::kNumIrqs> target{};
  std::array<std::array<bool, irq::kMaxCpus>, irq::kNumIrqs> pending{};
};

GicState gic_state(const irq::Gic& gic) {
  GicState state;
  for (irq::IrqId irq = 0; irq < irq::kNumIrqs; ++irq) {
    state.enabled[irq] = gic.is_enabled(irq);
    state.priority[irq] = gic.priority(irq);
    state.target[irq] = gic.target(irq);
    for (int cpu = 0; cpu < gic.num_cpus(); ++cpu) {
      state.pending[irq][static_cast<std::size_t>(cpu)] = gic.is_pending(irq, cpu);
    }
  }
  return state;
}

/// The FaultChange bits of everything that differs between `a` and `b`;
/// any difference on a line other than `line` fails the test.
std::uint8_t gic_diff(const GicState& a, const GicState& b, irq::IrqId line) {
  std::uint8_t changed = kChangedNothing;
  for (irq::IrqId irq = 0; irq < irq::kNumIrqs; ++irq) {
    std::uint8_t here = kChangedNothing;
    if (a.enabled[irq] != b.enabled[irq]) here |= kChangedGicEnable;
    if (a.priority[irq] != b.priority[irq]) here |= kChangedGicPriority;
    if (a.target[irq] != b.target[irq]) here |= kChangedGicTarget;
    if (a.pending[irq] != b.pending[irq]) here |= kChangedPending;
    EXPECT_TRUE(here == kChangedNothing || irq == line) << "line " << irq;
    changed |= here;
  }
  return changed;
}

/// Inject `count` times into a booted testbed and check each record's
/// `changed` against the GIC diff; returns how often each value occurred.
std::map<std::uint8_t, int> gic_changes(FaultDomain domain, int count) {
  Testbed testbed;
  EXPECT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  const auto target = make_injection_target(plan_for(domain));
  util::Xoshiro256 rng(61);
  arch::EntryFrame frame;
  const irq::Gic& gic = testbed.board().gic();
  std::map<std::uint8_t, int> seen;
  for (int i = 0; i < count; ++i) {
    const GicState before = gic_state(gic);
    const auto records = target->inject(rng, frame, &testbed.hypervisor());
    EXPECT_EQ(records.size(), 1u);
    if (records.empty()) continue;
    const FaultRecord& record = records[0];
    const auto line = static_cast<irq::IrqId>(record.addr);
    EXPECT_EQ(record.changed, gic_diff(before, gic_state(gic), line)) << "injection " << i;
    ++seen[record.changed];
  }
  return seen;
}

TEST(InjectionTarget, GicRecordsNameExactlyWhatChanged) {
  const std::map<std::uint8_t, int> seen = gic_changes(FaultDomain::Gic, 800);
  EXPECT_GT(seen.count(kChangedGicEnable), 0u);
  EXPECT_GT(seen.count(kChangedGicEnable | kChangedGicPriority), 0u);  // idle line enabled
  EXPECT_GT(seen.count(kChangedGicPriority), 0u);
  EXPECT_GT(seen.count(kChangedGicTarget), 0u);
  EXPECT_GT(seen.count(kChangedPending), 0u);
  // Retargets to the same CPU and sets of an already pending line.
  EXPECT_GT(seen.count(kChangedNothing), 0u);
}

TEST(InjectionTarget, IrqDeliveryRecordsNameExactlyWhatChanged) {
  const std::map<std::uint8_t, int> seen = gic_changes(FaultDomain::IrqDelivery, 800);
  EXPECT_GT(seen.count(kChangedPending), 0u);
  // Squashes of lines that are not pending, sets of lines that are.
  EXPECT_GT(seen.count(kChangedNothing), 0u);
  EXPECT_EQ(seen.size(), 2u);
}

TEST(InjectionTarget, DeviceMmioRecordsNameExactlyWhatChanged) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  platform::Board& board = testbed.board();
  std::vector<std::pair<platform::Device*, std::uint64_t>> registers;
  for (int cpu = 0; cpu < board.num_cpus(); ++cpu) {
    const std::uint64_t stride = static_cast<std::uint64_t>(cpu) * platform::kTimerStride;
    registers.emplace_back(&board.timer(), stride + platform::kTimerCtl);
    registers.emplace_back(&board.timer(), stride + platform::kTimerInterval);
  }
  registers.emplace_back(&board.uart1(), platform::kUartIer);
  const auto read_all = [&registers] {
    std::vector<std::uint32_t> values;
    for (const auto& [device, offset] : registers) values.push_back(device->mmio_read(offset).value());
    return values;
  };
  const auto target = make_injection_target(plan_for(FaultDomain::DeviceMmio));
  util::Xoshiro256 rng(71);
  arch::EntryFrame frame;
  int changes = 0;
  int no_ops = 0;
  for (int i = 0; i < 200; ++i) {
    const std::vector<std::uint32_t> before = read_all();
    const auto records = target->inject(rng, frame, &testbed.hypervisor());
    ASSERT_EQ(records.size(), 1u);
    const bool differs = read_all() != before;
    EXPECT_EQ(records[0].changed, differs ? kChangedDevice : kChangedNothing) << i;
    ++(differs ? changes : no_ops);
  }
  EXPECT_GT(changes, 0);
  EXPECT_GT(no_ops, 0);  // flips of bits the device masks
}

TEST(InjectionTarget, DramAndRegisterRecordsNameExactlyWhatChanged) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  const auto dram = make_injection_target(plan_for(FaultDomain::Dram));
  util::Xoshiro256 rng(81);
  arch::EntryFrame frame;
  for (int i = 0; i < 32; ++i) {
    const auto records = dram->inject(rng, frame, &testbed.hypervisor());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_NE(records[0].before, records[0].after);
    EXPECT_EQ(records[0].changed, kChangedDramPage);
  }

  // A stuck-at on a register already stuck is a no-op.
  TestPlan plan = plan_for(FaultDomain::Register);
  plan.fault = FaultModelKind::StuckAtZero;
  plan.fault_registers = {arch::Reg::R5};
  const auto stuck = make_injection_target(plan);
  frame.writer().set(arch::Reg::R5, 0);
  auto records = stuck->inject(rng, frame, nullptr);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].changed, kChangedNothing);
  frame.writer().set(arch::Reg::R5, 0x40);
  records = stuck->inject(rng, frame, nullptr);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].changed, kChangedRegister);
  EXPECT_EQ(frame.writer().get(arch::Reg::R5), 0u);
}

// --- the dead-location rule and write-back -----------------------------------

TEST(InjectionTarget, DeadInGoldenFollowsTheTouchLog) {
  using util::TouchLog;
  mem::PhysicalMemory dram;
  TouchLog golden;
  golden.begin_interval(1);
  golden.note(TouchLog::page_key(2));
  golden.note(TouchLog::gic_key(40, TouchLog::GicField::Priority));

  FaultRecord page;
  page.domain = FaultDomain::Dram;
  page.changed = kChangedDramPage;
  page.addr = dram.base() + 2 * mem::kPageSize + 17;
  EXPECT_FALSE(dead_in_golden(page, 1, golden, dram));  // read at or after call 1
  EXPECT_TRUE(dead_in_golden(page, 2, golden, dram));   // never after call 2
  page.addr += mem::kPageSize;
  EXPECT_TRUE(dead_in_golden(page, 0, golden, dram));   // another page

  FaultRecord line;
  line.domain = FaultDomain::Gic;
  line.addr = 40;
  line.changed = kChangedGicEnable;
  EXPECT_TRUE(dead_in_golden(line, 0, golden, dram));
  line.changed = kChangedGicEnable | kChangedGicPriority;
  EXPECT_FALSE(dead_in_golden(line, 0, golden, dram));
  line.changed = kChangedGicTarget;
  EXPECT_TRUE(dead_in_golden(line, 0, golden, dram));

  // Pending bits and device registers are always live; a no-op is dead.
  line.changed = kChangedPending;
  EXPECT_FALSE(dead_in_golden(line, 0, TouchLog{}, dram));
  line.changed = kChangedDevice;
  EXPECT_FALSE(dead_in_golden(line, 0, TouchLog{}, dram));
  line.changed = kChangedNothing;
  EXPECT_TRUE(dead_in_golden(line, 0, golden, dram));
}

TEST(InjectionTarget, WriteBackPutsTheNamedAfterValuesBack) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  jh::Hypervisor& hv = testbed.hypervisor();
  irq::Gic& gic = testbed.board().gic();
  mem::PhysicalMemory& dram = testbed.board().dram();

  FaultRecord flip;
  flip.domain = FaultDomain::Dram;
  flip.changed = kChangedDramPage;
  flip.addr = jh::kFreeRtosRamBase + 0x123;
  flip.after = 0x5A;
  write_back(flip, hv);
  EXPECT_EQ(dram.read_u8(flip.addr).value(), 0x5A);

  // An enable flip that lifted an idle priority: both come back; an
  // enable-only flip leaves the priority alone.
  FaultRecord enable;
  enable.domain = FaultDomain::Gic;
  enable.addr = 100;
  enable.after = 1;
  enable.changed = kChangedGicEnable | kChangedGicPriority;
  ASSERT_EQ(gic.priority(100), irq::kIdlePriority);
  write_back(enable, hv);
  EXPECT_TRUE(gic.is_enabled(100));
  EXPECT_EQ(gic.priority(100), irq::kDefaultPriority);
  enable.addr = 101;
  enable.changed = kChangedGicEnable;
  write_back(enable, hv);
  EXPECT_TRUE(gic.is_enabled(101));
  EXPECT_EQ(gic.priority(101), irq::kIdlePriority);

  FaultRecord priority;
  priority.domain = FaultDomain::Gic;
  priority.addr = 102;
  priority.after = 0x42;
  priority.changed = kChangedGicPriority;
  write_back(priority, hv);
  EXPECT_EQ(gic.priority(102), 0x42);

  FaultRecord retarget;
  retarget.domain = FaultDomain::Gic;
  retarget.addr = 103;
  retarget.after = 1;
  retarget.changed = kChangedGicTarget;
  write_back(retarget, hv);
  EXPECT_EQ(gic.target(103), 1);

  // A record that names nothing writes nothing.
  FaultRecord no_op = retarget;
  no_op.after = 0;
  no_op.changed = kChangedNothing;
  write_back(no_op, hv);
  EXPECT_EQ(gic.target(103), 1);
}

}  // namespace
}  // namespace mcs::fi
