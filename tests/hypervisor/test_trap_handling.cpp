// arch_handle_trap semantics under clean and corrupted entry frames — the
// unit-level ground truth for every outcome class of §III.
#include <gtest/gtest.h>

#include "hypervisor/hypervisor.hpp"
#include "util/bitops.hpp"

namespace mcs::jh {
namespace {

using arch::ExceptionClass;
using arch::Reg;
using arch::Syndrome;

class TrapTest : public ::testing::Test {
 protected:
  TrapTest() : hv_(board_) {
    EXPECT_TRUE(hv_.enable(make_root_cell_config()).is_ok());
  }

  arch::EntryFrame frame_for(int cpu, Syndrome hsr, std::uint32_t r2 = 0,
                             std::uint32_t r3 = 0) {
    arch::EntryFrame frame = board_.cpu(cpu).make_trap_frame(hsr);
    frame.writer().set(Reg::R2, r2);
    frame.writer().set(Reg::R3, r3);
    return frame;
  }

  platform::BananaPiBoard board_;
  Hypervisor hv_;
};

TEST_F(TrapTest, CleanHvcFrameDispatches) {
  arch::EntryFrame frame =
      frame_for(0, Syndrome::make(ExceptionClass::Hvc, 0),
                static_cast<std::uint32_t>(Hypercall::HypervisorGetInfo));
  const TrapOutcome outcome = hv_.arch_handle_trap(frame);
  EXPECT_EQ(outcome.action, TrapAction::Resume);
  EXPECT_EQ(outcome.hvc_result, 1);  // one cell
}

TEST_F(TrapTest, WfxAndSmcResumeQuietly) {
  for (const ExceptionClass ec : {ExceptionClass::Wfx, ExceptionClass::Smc,
                                  ExceptionClass::PrefetchAbortLower}) {
    arch::EntryFrame frame = frame_for(0, Syndrome::make(ec, 0));
    EXPECT_EQ(hv_.arch_handle_trap(frame).action, TrapAction::Resume);
  }
}

TEST_F(TrapTest, CorruptedContextPointerPanics) {
  arch::EntryFrame frame = frame_for(0, Syndrome::make(ExceptionClass::Hvc, 0));
  frame.writer().set(Reg::R0, 0x1234'5678);  // wild pointer
  EXPECT_EQ(hv_.arch_handle_trap(frame).action, TrapAction::Panicked);
  EXPECT_TRUE(hv_.is_panicked());
  EXPECT_NE(hv_.panic_reason().find("wild trap-context"), std::string::npos);
  // Panic park: every core is down.
  EXPECT_TRUE(board_.cpu(0).is_parked());
  EXPECT_TRUE(board_.cpu(1).is_parked());
}

TEST_F(TrapTest, SkewedContextPointerAlsoPanics) {
  arch::EntryFrame frame = frame_for(0, Syndrome::make(ExceptionClass::Hvc, 0));
  frame.writer().set(Reg::R0, frame.writer().get(Reg::R0) ^ 0x8);  // stays in-window
  EXPECT_EQ(hv_.arch_handle_trap(frame).action, TrapAction::Panicked);
  EXPECT_NE(hv_.panic_reason().find("skewed trap-context"), std::string::npos);
}

TEST_F(TrapTest, CorruptedPerCpuPointerPanics) {
  arch::EntryFrame frame = frame_for(1, Syndrome::make(ExceptionClass::Hvc, 0));
  frame.writer().set(Reg::R12, util::flip_bit(frame.writer().get(Reg::R12), 17u));
  EXPECT_EQ(hv_.arch_handle_trap(frame).action, TrapAction::Panicked);
  EXPECT_NE(hv_.panic_reason().find("per-CPU"), std::string::npos);
}

TEST_F(TrapTest, CorruptedStackPointerPanics) {
  arch::EntryFrame frame = frame_for(0, Syndrome::make(ExceptionClass::Hvc, 0));
  frame.writer().set(Reg::SP, util::flip_bit(frame.writer().get(Reg::SP), 3u));
  EXPECT_EQ(hv_.arch_handle_trap(frame).action, TrapAction::Panicked);
}

TEST_F(TrapTest, CorruptedLinkRegisterPanics) {
  arch::EntryFrame frame = frame_for(0, Syndrome::make(ExceptionClass::Hvc, 0));
  frame.writer().set(Reg::LR, util::flip_bit(frame.writer().get(Reg::LR), 30u));
  EXPECT_EQ(hv_.arch_handle_trap(frame).action, TrapAction::Panicked);
}

TEST_F(TrapTest, CorruptedPcPanics) {
  arch::EntryFrame frame = frame_for(0, Syndrome::make(ExceptionClass::Hvc, 0));
  frame.writer().set(Reg::PC, util::flip_bit(frame.writer().get(Reg::PC), 5u));
  EXPECT_EQ(hv_.arch_handle_trap(frame).action, TrapAction::Panicked);
}

TEST_F(TrapTest, UnknownExceptionClassParksCpuOnly) {
  arch::EntryFrame frame = frame_for(1, Syndrome::make(ExceptionClass::Hvc, 0));
  // Manufacture a non-architected EC (0x3F).
  frame.writer().set(Reg::R1, util::deposit_bits(0u, arch::kEcHi, arch::kEcLo, 0x3Fu));
  EXPECT_EQ(hv_.arch_handle_trap(frame).action, TrapAction::CpuParked);
  EXPECT_TRUE(board_.cpu(1).is_parked());
  EXPECT_FALSE(hv_.is_panicked());
  EXPECT_TRUE(board_.cpu(0).is_online());  // the fault stays isolated
  EXPECT_NE(board_.cpu(1).halt_reason().find("unhandled trap exception"),
            std::string::npos);
}

TEST_F(TrapTest, DataAbortWithInvalidIssParks0x24) {
  // The §III signature: "error code 0x24, which is the unhandled trap
  // exception".
  arch::EntryFrame frame =
      frame_for(1, Syndrome::make(ExceptionClass::DataAbortLower, 0));  // no ISV
  EXPECT_EQ(hv_.arch_handle_trap(frame).action, TrapAction::CpuParked);
  EXPECT_NE(board_.cpu(1).halt_reason().find("0x24"), std::string::npos);
}

TEST_F(TrapTest, UnhandledMmioAddressParks0x24) {
  std::uint32_t iss = util::set_bit(0u, arch::kIssIsvBit);
  iss = util::set_bit(iss, arch::kIssWnrBit);
  arch::EntryFrame frame = frame_for(
      1, Syndrome::make(ExceptionClass::DataAbortLower, iss), 0x0666'0000, 0xAB);
  EXPECT_EQ(hv_.arch_handle_trap(frame).action, TrapAction::CpuParked);
  EXPECT_EQ(hv_.counters().unhandled_traps, 1u);
  EXPECT_EQ(hv_.counters().cpu_parks, 1u);
}

TEST_F(TrapTest, UnparkableClassWithNoHandlerParks) {
  arch::EntryFrame frame =
      frame_for(1, Syndrome::make(ExceptionClass::Cp15Access, 0));
  EXPECT_EQ(hv_.arch_handle_trap(frame).action, TrapAction::CpuParked);
}

TEST_F(TrapTest, DeadRegistersAreHarmless) {
  // r5-r11 are dead at entry: corrupting them must change nothing.
  for (const Reg reg : {Reg::R5, Reg::R6, Reg::R7, Reg::R8, Reg::R9, Reg::R10,
                        Reg::R11}) {
    arch::EntryFrame frame =
        frame_for(0, Syndrome::make(ExceptionClass::Hvc, 0),
                  static_cast<std::uint32_t>(Hypercall::HypervisorGetInfo));
    frame.writer().set(reg, 0xFFFF'FFFF);
    const TrapOutcome outcome = hv_.arch_handle_trap(frame);
    EXPECT_EQ(outcome.action, TrapAction::Resume) << reg_name(reg);
    EXPECT_EQ(outcome.hvc_result, 1) << reg_name(reg);
  }
  EXPECT_FALSE(hv_.is_panicked());
}

TEST_F(TrapTest, PanicFreezesFurtherTraps) {
  arch::EntryFrame bad = frame_for(0, Syndrome::make(ExceptionClass::Hvc, 0));
  bad.writer().set(Reg::R0, 0);
  (void)hv_.arch_handle_trap(bad);
  ASSERT_TRUE(hv_.is_panicked());
  arch::EntryFrame clean =
      frame_for(0, Syndrome::make(ExceptionClass::Hvc, 0),
                static_cast<std::uint32_t>(Hypercall::HypervisorGetInfo));
  const TrapOutcome outcome = hv_.arch_handle_trap(clean);
  EXPECT_EQ(outcome.action, TrapAction::Panicked);
  EXPECT_EQ(outcome.hvc_result, kHvcEBusy);
}

TEST_F(TrapTest, PanicWritesLastWordsToUart0) {
  arch::EntryFrame frame = frame_for(0, Syndrome::make(ExceptionClass::Hvc, 0));
  frame.writer().set(Reg::R0, 0xBAD);
  (void)hv_.arch_handle_trap(frame);
  EXPECT_NE(board_.uart0().captured().find("panic"), std::string::npos);
}

TEST_F(TrapTest, CorruptedHypercallCodeIsInvalidArguments) {
  // §III root-context: corrupted management hypercall → EINVAL family,
  // no crash, no cell.
  arch::EntryFrame frame =
      frame_for(0, Syndrome::make(ExceptionClass::Hvc, 0), 0xDEAD'BEEF, 0);
  const TrapOutcome outcome = hv_.arch_handle_trap(frame);
  EXPECT_EQ(outcome.action, TrapAction::Resume);
  EXPECT_TRUE(is_invalid_arguments(outcome.hvc_result));
  EXPECT_FALSE(hv_.is_panicked());
}

TEST_F(TrapTest, CorruptedHypercallArgIsInvalidArguments) {
  arch::EntryFrame frame = frame_for(
      0, Syndrome::make(ExceptionClass::Hvc, 0),
      static_cast<std::uint32_t>(Hypercall::CellCreate), 0x6666'6666);
  const TrapOutcome outcome = hv_.arch_handle_trap(frame);
  EXPECT_EQ(outcome.action, TrapAction::Resume);
  EXPECT_EQ(outcome.hvc_result, kHvcEInval);
}

TEST_F(TrapTest, TrapCountersIncrement) {
  arch::EntryFrame frame =
      frame_for(1, Syndrome::make(ExceptionClass::Wfx, 0));
  (void)hv_.arch_handle_trap(frame);
  EXPECT_EQ(hv_.counters().traps, 1u);
  EXPECT_EQ(board_.cpu(1).trap_entries, 1u);
}

}  // namespace
}  // namespace mcs::jh
