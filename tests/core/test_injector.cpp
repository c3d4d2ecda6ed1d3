#include "core/injector.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/testbed.hpp"
#include "hypervisor/hypercall.hpp"

namespace mcs::fi {
namespace {

using arch::Reg;

arch::EntryFrame frame_on_cpu(int cpu) {
  arch::Cpu cpu_model(cpu);
  return cpu_model.make_trap_frame(
      arch::Syndrome::make(arch::ExceptionClass::Hvc, 0));
}

class InjectorTest : public ::testing::Test {
 protected:
  TestPlan plan_ = [] {
    TestPlan plan;
    plan.target = jh::HookPoint::ArchHandleTrap;
    plan.rate = 10;
    plan.cpu_filter = -1;
    return plan;
  }();
  util::SimClock clock_;
};

TEST_F(InjectorTest, CountsOnlyTargetPoint) {
  Injector injector(plan_, 1, clock_);
  arch::EntryFrame frame = frame_on_cpu(0);
  injector.on_entry(jh::HookPoint::ArchHandleHvc, frame);
  injector.on_entry(jh::HookPoint::IrqchipHandleIrq, frame);
  EXPECT_EQ(injector.filtered_calls(), 0u);
  injector.on_entry(jh::HookPoint::ArchHandleTrap, frame);
  EXPECT_EQ(injector.filtered_calls(), 1u);
}

TEST_F(InjectorTest, CpuFilterRestrictsCounting) {
  plan_.cpu_filter = 1;
  Injector injector(plan_, 1, clock_);
  arch::EntryFrame frame0 = frame_on_cpu(0);
  arch::EntryFrame frame1 = frame_on_cpu(1);
  injector.on_entry(jh::HookPoint::ArchHandleTrap, frame0);
  EXPECT_EQ(injector.filtered_calls(), 0u);
  injector.on_entry(jh::HookPoint::ArchHandleTrap, frame1);
  EXPECT_EQ(injector.filtered_calls(), 1u);
}

TEST_F(InjectorTest, InjectsEveryNthCall) {
  Injector injector(plan_, 1, clock_);
  for (int call = 1; call <= 35; ++call) {
    arch::EntryFrame frame = frame_on_cpu(0);
    injector.on_entry(jh::HookPoint::ArchHandleTrap, frame);
  }
  // rate 10, phase 0 → injections at calls 10, 20, 30.
  EXPECT_EQ(injector.injections(), 3u);
  EXPECT_EQ(injector.records()[0].call_index, 10u);
  EXPECT_EQ(injector.records()[1].call_index, 20u);
  EXPECT_EQ(injector.records()[2].call_index, 30u);
}

TEST_F(InjectorTest, PhaseShiftsFirstInjection) {
  plan_.phase = 3;
  Injector injector(plan_, 1, clock_);
  for (int call = 1; call <= 25; ++call) {
    arch::EntryFrame frame = frame_on_cpu(0);
    injector.on_entry(jh::HookPoint::ArchHandleTrap, frame);
  }
  // injections at calls 3, 13, 23.
  ASSERT_EQ(injector.injections(), 3u);
  EXPECT_EQ(injector.records()[0].call_index, 3u);
}

TEST_F(InjectorTest, InjectionMutatesTheFrame) {
  plan_.rate = 1;
  plan_.phase = 1;
  Injector injector(plan_, 42, clock_);
  arch::EntryFrame frame = frame_on_cpu(0);
  const arch::RegisterBank before = frame.writer().bank();
  injector.on_entry(jh::HookPoint::ArchHandleTrap, frame);
  ASSERT_EQ(injector.injections(), 1u);
  const FlipRecord& flip = injector.records()[0].flips[0];
  EXPECT_EQ(before[flip.reg], flip.before);
  EXPECT_EQ(frame.writer().get(flip.reg), flip.after);
}

TEST_F(InjectorTest, DisarmedInjectorCountsButDoesNotInject) {
  plan_.rate = 1;
  plan_.phase = 1;
  Injector injector(plan_, 1, clock_);
  injector.set_armed(false);
  arch::EntryFrame frame = frame_on_cpu(0);
  const arch::RegisterBank before = frame.writer().bank();
  injector.on_entry(jh::HookPoint::ArchHandleTrap, frame);
  EXPECT_EQ(injector.filtered_calls(), 1u);
  EXPECT_EQ(injector.injections(), 0u);
  for (std::size_t i = 0; i < arch::kNumGeneralRegs; ++i) {
    EXPECT_EQ(frame.writer().get(static_cast<Reg>(i)),
              before.get(static_cast<Reg>(i)));
  }
}

TEST_F(InjectorTest, RecordsCarryTimestampAndCpu) {
  plan_.rate = 1;
  plan_.phase = 1;
  clock_.advance(util::Ticks{777});
  Injector injector(plan_, 1, clock_);
  arch::EntryFrame frame = frame_on_cpu(1);
  injector.on_entry(jh::HookPoint::ArchHandleTrap, frame);
  ASSERT_EQ(injector.injections(), 1u);
  EXPECT_EQ(injector.records()[0].tick, 777u);
  EXPECT_EQ(injector.records()[0].cpu, 1);
  EXPECT_EQ(injector.first_injection_tick(), 777u);
}

TEST_F(InjectorTest, SameSeedReplaysIdentically) {
  plan_.rate = 2;
  auto run_once = [&](std::uint64_t seed) {
    Injector injector(plan_, seed, clock_);
    std::vector<std::pair<Reg, unsigned>> flips;
    for (int call = 0; call < 20; ++call) {
      arch::EntryFrame frame = frame_on_cpu(0);
      injector.on_entry(jh::HookPoint::ArchHandleTrap, frame);
    }
    for (const auto& record : injector.records()) {
      for (const auto& flip : record.flips) flips.push_back({flip.reg, flip.bit});
    }
    return flips;
  };
  EXPECT_EQ(run_once(123), run_once(123));
  EXPECT_NE(run_once(123), run_once(456));
}

TEST_F(InjectorTest, AttachDetachHypervisorHook) {
  platform::BananaPiBoard board;
  jh::Hypervisor hv(board);
  ASSERT_TRUE(hv.enable(jh::make_root_cell_config()).is_ok());
  plan_.rate = 1;
  plan_.phase = 1;
  plan_.fault_registers = {Reg::R5};  // dead register: no behavioural change
  Injector injector(plan_, 1, board.clock());
  injector.attach(hv);
  (void)hv.guest_hypercall(
      0, static_cast<std::uint32_t>(jh::Hypercall::HypervisorGetInfo));
  EXPECT_EQ(injector.injections(), 1u);
  injector.detach(hv);
  (void)hv.guest_hypercall(
      0, static_cast<std::uint32_t>(jh::Hypercall::HypervisorGetInfo));
  EXPECT_EQ(injector.injections(), 1u);  // no further injections
}

// --- the masked verdict -------------------------------------------------------
//
// A register-domain injection marks the frame registers it changed;
// handlers read through EntryFrame::reg(), which reports a read of a
// marked register. These drive the hook and the reads by hand.

TEST_F(InjectorTest, ChangedRegisterAHandlerReadsIsNotMasked) {
  plan_.rate = 1;
  plan_.phase = 1;
  plan_.fault_registers = {Reg::R0};
  Injector injector(plan_, 5, clock_);
  arch::EntryFrame frame = frame_on_cpu(0);
  injector.on_entry(jh::HookPoint::ArchHandleTrap, frame);
  ASSERT_EQ(injector.injections(), 1u);
  EXPECT_TRUE(injector.masked());  // nothing has read r0 yet
  (void)frame.reg(Reg::R0);
  EXPECT_FALSE(injector.masked());
}

TEST_F(InjectorTest, ChangedRegisterNobodyReadsIsMasked) {
  plan_.rate = 1;
  plan_.phase = 1;
  plan_.fault_registers = {Reg::R7};
  Injector injector(plan_, 5, clock_);
  arch::EntryFrame frame = frame_on_cpu(0);
  injector.on_entry(jh::HookPoint::ArchHandleTrap, frame);
  ASSERT_EQ(injector.injections(), 1u);
  for (const Reg reg : {Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R12, Reg::SP,
                        Reg::LR, Reg::PC}) {
    (void)frame.reg(reg);
  }
  EXPECT_TRUE(injector.masked());
}

TEST_F(InjectorTest, StuckAtThatChangesNothingIsMasked) {
  plan_.rate = 1;
  plan_.phase = 1;
  plan_.fault = FaultModelKind::StuckAtZero;
  plan_.fault_registers = {Reg::R0};
  Injector injector(plan_, 5, clock_);
  arch::EntryFrame frame = frame_on_cpu(0);
  frame.writer().set(Reg::R0, 0);  // already stuck
  injector.on_entry(jh::HookPoint::ArchHandleTrap, frame);
  ASSERT_EQ(injector.injections(), 1u);
  EXPECT_EQ(frame.injected, 0u);
  (void)frame.reg(Reg::R0);  // the handler reads the value it would have read
  EXPECT_TRUE(injector.masked());
}

TEST_F(InjectorTest, NonRegisterDomainsAreNeverMasked) {
  platform::BananaPiBoard board;
  jh::Hypervisor hv(board);
  ASSERT_TRUE(hv.enable(jh::make_root_cell_config()).is_ok());
  plan_.rate = 1;
  plan_.phase = 1;
  for (const auto domain : {FaultDomain::Gic, FaultDomain::IrqDelivery,
                            FaultDomain::DeviceMmio, FaultDomain::Dram}) {
    plan_.fault_domain = domain;
    Injector injector(plan_, 5, board.clock());
    injector.attach(hv);
    (void)hv.guest_hypercall(
        0, static_cast<std::uint32_t>(jh::Hypercall::HypervisorGetInfo));
    injector.detach(hv);
    ASSERT_EQ(injector.injections(), 1u) << fault_domain_name(domain);
    EXPECT_FALSE(injector.masked()) << fault_domain_name(domain);
  }
}

TEST_F(InjectorTest, TwoInjectionsWithOneReadAreNotMasked) {
  plan_.rate = 1;
  plan_.phase = 1;
  plan_.fault_registers = {Reg::R1};
  Injector injector(plan_, 5, clock_);
  arch::EntryFrame unread = frame_on_cpu(0);
  injector.on_entry(jh::HookPoint::ArchHandleTrap, unread);
  arch::EntryFrame read = frame_on_cpu(0);
  injector.on_entry(jh::HookPoint::ArchHandleTrap, read);
  ASSERT_EQ(injector.injections(), 2u);
  EXPECT_TRUE(injector.masked());
  (void)read.reg(Reg::R1);
  EXPECT_FALSE(injector.masked());
}

TEST_F(InjectorTest, NoInjectionIsNotMasked) {
  Injector injector(plan_, 5, clock_);
  arch::EntryFrame frame = frame_on_cpu(0);
  injector.on_entry(jh::HookPoint::ArchHandleTrap, frame);
  EXPECT_EQ(injector.injections(), 0u);
  EXPECT_FALSE(injector.masked());
}

// --- golden mode and the dead verdict ----------------------------------------

TEST_F(InjectorTest, GoldenModeCountsButNeverInjects) {
  plan_.rate = 3;
  util::TouchLog touches;
  Injector counter(plan_, 1, clock_);
  counter.set_golden(&touches);
  const std::uint64_t key = util::TouchLog::page_key(5);
  for (int call = 1; call <= 10; ++call) {
    clock_.advance(util::Ticks{1});
    arch::EntryFrame frame = frame_on_cpu(0);
    const arch::RegisterBank before = frame.writer().bank();
    counter.on_entry(jh::HookPoint::ArchHandleTrap, frame);
    EXPECT_EQ(frame.writer().bank().r, before.r);  // the frame is untouched
    EXPECT_EQ(frame.injected, 0u);
    if (call == 4) touches.note(key);  // inside interval 0 (calls 3..5)
  }
  EXPECT_EQ(counter.filtered_calls(), 10u);
  EXPECT_EQ(counter.injections(), 0u);
  // Calls 3, 6 and 9 would have injected, at ticks 3, 6 and 9.
  EXPECT_EQ(counter.golden_ticks(), (std::vector<std::uint64_t>{3, 6, 9}));
  EXPECT_TRUE(touches.touched_since(key, 0));
  EXPECT_FALSE(touches.touched_since(key, 1));
}

// The touch log's interval opens at the hook call itself: a golden read
// of the faulted page later in the same handler, before any tick
// boundary, already counts against the injection.
TEST(InjectorGolden, GoldenReadOfTheFaultedPageAfterTheInjectingCallMakesTheRunLive) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  jh::Hypervisor& hv = testbed.hypervisor();
  TestPlan plan;
  plan.target = jh::HookPoint::ArchHandleHvc;
  plan.cpu_filter = -1;
  plan.rate = 1;
  plan.phase = 1;
  plan.fault_domain = FaultDomain::Dram;
  const auto hypercall = [&hv] {
    (void)hv.guest_hypercall(
        0, static_cast<std::uint32_t>(jh::Hypercall::HypervisorGetInfo));
  };
  testbed.capture_snapshot("point");

  Injector faulted(plan, 9, testbed.board().clock());
  faulted.attach(hv);
  hypercall();
  ASSERT_EQ(faulted.injections(), 1u);
  const FaultRecord flip = faulted.records()[0].flips[0];
  ASSERT_EQ(flip.changed, kChangedDramPage);

  const auto golden_run = [&](bool read_page) {
    EXPECT_TRUE(testbed.restore_snapshot());
    util::TouchLog touches;
    Injector counter(plan, 0, testbed.board().clock());
    counter.set_golden(&touches);
    counter.attach(hv);
    testbed.track_touches(&touches);
    hypercall();  // the call the faulted run injected at
    if (read_page) (void)testbed.board().dram().read_u32(flip.addr & ~std::uint64_t{3});
    testbed.track_touches(nullptr);
    counter.detach(hv);
    EXPECT_EQ(counter.injections(), 0u);
    EXPECT_EQ(counter.golden_ticks().size(), 1u);
    return touches;
  };
  EXPECT_TRUE(faulted.dead(golden_run(false)));
  EXPECT_FALSE(faulted.dead(golden_run(true)));
}

}  // namespace
}  // namespace mcs::fi
