#include "arch/cpu.hpp"

#include <gtest/gtest.h>

namespace mcs::arch {
namespace {

TEST(Cpu, StartsOff) {
  Cpu cpu(0);
  EXPECT_EQ(cpu.power_state(), PowerState::Off);
  EXPECT_FALSE(cpu.is_online());
  EXPECT_FALSE(cpu.is_parked());
}

TEST(Cpu, PowerOnThenCompleteBoot) {
  Cpu cpu(1);
  ASSERT_TRUE(cpu.power_on(0x7800'0000).is_ok());
  EXPECT_EQ(cpu.power_state(), PowerState::Booting);
  ASSERT_TRUE(cpu.complete_boot().is_ok());
  EXPECT_TRUE(cpu.is_online());
  EXPECT_EQ(cpu.regs().get(Reg::PC), 0x7800'0000u);
}

TEST(Cpu, PowerOnWhileOnIsBusy) {
  Cpu cpu(0);
  ASSERT_TRUE(cpu.power_on(0x1000).is_ok());
  ASSERT_TRUE(cpu.complete_boot().is_ok());
  EXPECT_EQ(cpu.power_on(0x2000).code(), util::Code::EBusy);
}

TEST(Cpu, ParkedCpuRefusesPowerOn) {
  Cpu cpu(0);
  cpu.park("unhandled trap exception class 0x24");
  EXPECT_TRUE(cpu.is_parked());
  EXPECT_EQ(cpu.power_on(0x1000).code(), util::Code::EBusy);
  EXPECT_EQ(cpu.halt_reason(), "unhandled trap exception class 0x24");
}

TEST(Cpu, PowerOffClearsParkAllowingRestart) {
  // §III: "only destroying the cell and reallocating it fixes the problem"
  // — destroy powers the core off, after which it can boot again.
  Cpu cpu(1);
  cpu.park("stuck");
  cpu.power_off();
  EXPECT_EQ(cpu.power_state(), PowerState::Off);
  EXPECT_TRUE(cpu.power_on(0x3000).is_ok());
}

TEST(Cpu, FailBootModelsHotPlugFailure) {
  Cpu cpu(1);
  ASSERT_TRUE(cpu.power_on(0x1000).is_ok());
  cpu.fail_boot("entry gate not executable");
  EXPECT_EQ(cpu.power_state(), PowerState::Failed);
  EXPECT_FALSE(cpu.is_online());
  // A failed core can be retried (PSCI CPU_ON from Off/Failed).
  EXPECT_TRUE(cpu.power_on(0x1000).is_ok());
}

TEST(Cpu, CompleteBootRequiresBringUp) {
  Cpu cpu(0);
  EXPECT_FALSE(cpu.complete_boot().is_ok());
}

TEST(Cpu, ResetClearsEverything) {
  Cpu cpu(0);
  Cpu::Snapshot power_on;
  cpu.snapshot_to(power_on);
  (void)cpu.power_on(0x1000);
  (void)cpu.complete_boot();
  cpu.regs().set(Reg::R5, 99);
  cpu.cpsr().set_mode(Mode::Hyp);
  cpu.trap_entries = 7;
  cpu.restore_from(power_on);
  EXPECT_EQ(cpu.power_state(), PowerState::Off);
  EXPECT_EQ(cpu.entry_point(), 0u);
  EXPECT_EQ(cpu.regs().get(Reg::R5), 0u);
  EXPECT_EQ(cpu.regs().get(Reg::PC), 0u);
  EXPECT_EQ(cpu.cpsr().mode(), Mode::Supervisor);
  EXPECT_EQ(cpu.trap_entries, 0u);
}

TEST(Cpu, HypStacksArePerCoreAndDisjoint) {
  Cpu cpu0(0);
  Cpu cpu1(1);
  EXPECT_LT(cpu0.hyp_stack_base(), cpu0.hyp_stack_top());
  EXPECT_LE(cpu0.hyp_stack_top(), cpu1.hyp_stack_base());
  EXPECT_NE(cpu0.expected_percpu(), cpu1.expected_percpu());
}

TEST(Cpu, ExpectedEntryValuesLieInTheirWindows) {
  Cpu cpu(1);
  EXPECT_GE(cpu.expected_trap_context(), cpu.hyp_stack_base());
  EXPECT_LT(cpu.expected_trap_context(), cpu.hyp_stack_top());
  EXPECT_GE(cpu.expected_hyp_sp(), cpu.hyp_stack_base());
  EXPECT_LT(cpu.expected_hyp_sp(), cpu.hyp_stack_top());
}

TEST(Cpu, MakeTrapFrameMaterialisesWorkingSet) {
  Cpu cpu(1);
  cpu.regs().set(Reg::R7, 0x77);  // guest register, must be preserved
  const Syndrome hsr = Syndrome::make(ExceptionClass::Hvc, 0);
  EntryFrame frame = cpu.make_trap_frame(hsr);
  EXPECT_EQ(frame.cpu, 1);
  EXPECT_EQ(frame.writer().get(Reg::R0), cpu.expected_trap_context());
  EXPECT_EQ(frame.writer().get(Reg::R1), hsr.raw());
  EXPECT_EQ(frame.writer().get(Reg::R12), cpu.expected_percpu());
  EXPECT_EQ(frame.writer().get(Reg::SP), cpu.expected_hyp_sp());
  EXPECT_EQ(frame.writer().get(Reg::LR), kReturnTrampoline);
  EXPECT_EQ(frame.writer().get(Reg::PC), kTrapHandlerPc);
  EXPECT_EQ(frame.writer().get(Reg::R7), 0x77u);  // dead registers carry guest state
}

TEST(Cpu, PowerStateNames) {
  EXPECT_EQ(power_state_name(PowerState::Off), "off");
  EXPECT_EQ(power_state_name(PowerState::Parked), "parked");
  EXPECT_EQ(power_state_name(PowerState::Failed), "failed");
}

TEST(Cpu, EntryCountersStartAtZero) {
  Cpu cpu(0);
  EXPECT_EQ(cpu.trap_entries, 0u);
  EXPECT_EQ(cpu.hvc_entries, 0u);
  EXPECT_EQ(cpu.irq_entries, 0u);
}

}  // namespace
}  // namespace mcs::arch
