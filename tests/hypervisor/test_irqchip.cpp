// irqchip_handle_irq: acknowledgement, routing, and the §III rationale for
// excluding it from injection — every corrupted vector lands in a
// predictable error path.
#include <gtest/gtest.h>

#include "hypervisor/hypervisor.hpp"

namespace mcs::jh {
namespace {

using arch::Reg;

constexpr std::uint64_t kConfigAddr = 0x4800'0000;

class IrqchipTest : public ::testing::Test {
 protected:
  IrqchipTest() : hv_(board_) {
    EXPECT_TRUE(hv_.enable(make_root_cell_config()).is_ok());
    hv_.register_config(kConfigAddr, make_freertos_cell_config());
  }

  void start_cell() {
    const HvcResult id = hv_.guest_hypercall(
        0, static_cast<std::uint32_t>(Hypercall::CellCreate), kConfigAddr);
    ASSERT_GT(id, 0);
    cell_id_ = static_cast<CellId>(id);
    ASSERT_EQ(hv_.guest_hypercall(
                  0, static_cast<std::uint32_t>(Hypercall::CellStart), cell_id_),
              0);
    hv_.cpu_bringup_entry(1);
    ASSERT_TRUE(board_.cpu(1).is_online());
  }

  platform::BananaPiBoard board_;
  Hypervisor hv_;
  CellId cell_id_ = 0;
};

TEST_F(IrqchipTest, NothingPendingReturnsNullopt) {
  EXPECT_FALSE(hv_.irqchip_handle_irq(0).has_value());
  EXPECT_EQ(hv_.counters().irqs, 0u);
}

TEST_F(IrqchipTest, TimerPpiDeliversAsTimerTick) {
  (void)board_.gic().raise_ppi(0, platform::kVirtualTimerPpi);
  const auto delivery = hv_.irqchip_handle_irq(0);
  ASSERT_TRUE(delivery.has_value());
  EXPECT_EQ(delivery->outcome, IrqOutcome::TimerTick);
  EXPECT_EQ(delivery->vector, platform::kVirtualTimerPpi);
  EXPECT_EQ(delivery->cell, kRootCellId);
  // Acknowledged and EOI'd: nothing remains pending or active.
  EXPECT_FALSE(board_.gic().is_pending(platform::kVirtualTimerPpi, 0));
  EXPECT_FALSE(board_.gic().is_active(platform::kVirtualTimerPpi, 0));
}

TEST_F(IrqchipTest, OwnedSpiDelivers) {
  start_cell();
  (void)board_.gic().enable(platform::kUart1Irq);
  (void)board_.gic().set_target(platform::kUart1Irq, 1);
  (void)board_.gic().raise_spi(platform::kUart1Irq);
  const auto delivery = hv_.irqchip_handle_irq(1);
  ASSERT_TRUE(delivery.has_value());
  EXPECT_EQ(delivery->outcome, IrqOutcome::Delivered);
  EXPECT_EQ(delivery->cell, cell_id_);
}

TEST_F(IrqchipTest, UnownedSpiDropsPredictably) {
  start_cell();
  // Route the root's UART0 interrupt at CPU 1 (now owned by the cell).
  (void)board_.gic().enable(platform::kUart0Irq);
  (void)board_.gic().set_target(platform::kUart0Irq, 1);
  (void)board_.gic().raise_spi(platform::kUart0Irq);
  const auto delivery = hv_.irqchip_handle_irq(1);
  ASSERT_TRUE(delivery.has_value());
  EXPECT_EQ(delivery->outcome, IrqOutcome::Unowned);
  EXPECT_TRUE(board_.log().contains("hypervisor", "unowned vector"));
  // Still EOI'd: the line is not wedged.
  EXPECT_FALSE(board_.gic().is_active(platform::kUart0Irq, 1));
}

TEST_F(IrqchipTest, OfflineCpuTakesNoInterrupts) {
  (void)board_.gic().raise_ppi(1, platform::kVirtualTimerPpi);
  board_.cpu(1).park("test");
  EXPECT_FALSE(hv_.irqchip_handle_irq(1).has_value());
}

TEST_F(IrqchipTest, PanickedHypervisorTakesNoInterrupts) {
  (void)board_.gic().raise_ppi(0, platform::kVirtualTimerPpi);
  arch::EntryFrame bad = board_.cpu(0).make_trap_frame(
      arch::Syndrome::make(arch::ExceptionClass::Hvc, 0));
  bad.writer().set(Reg::R0, 0xBAD);
  (void)hv_.arch_handle_trap(bad);
  EXPECT_FALSE(hv_.irqchip_handle_irq(0).has_value());
}

// --- §III profiling rationale: corrupting the vector parameter ----------

TEST_F(IrqchipTest, CorruptedVectorOutOfRangeIsSpuriousError) {
  (void)board_.gic().raise_ppi(0, platform::kVirtualTimerPpi);
  hv_.set_entry_hook([](HookPoint point, arch::EntryFrame& frame) {
    if (point == HookPoint::IrqchipHandleIrq) {
      frame.writer().set(Reg::R0, frame.writer().get(Reg::R0) | 0x8000);  // huge vector
    }
  });
  const auto delivery = hv_.irqchip_handle_irq(0);
  ASSERT_TRUE(delivery.has_value());
  EXPECT_EQ(delivery->outcome, IrqOutcome::Spurious);
  EXPECT_TRUE(board_.log().contains("hypervisor", "IRQ error"));
  // The original line was EOI'd by hardware id — no stuck active state.
  EXPECT_FALSE(board_.gic().is_active(platform::kVirtualTimerPpi, 0));
  EXPECT_FALSE(hv_.is_panicked());
  EXPECT_TRUE(board_.cpu(0).is_online());
}

TEST_F(IrqchipTest, CorruptedVectorToUnownedLineDropsPredictably) {
  start_cell();
  (void)board_.gic().raise_ppi(1, platform::kVirtualTimerPpi);
  hv_.set_entry_hook([](HookPoint point, arch::EntryFrame& frame) {
    if (point == HookPoint::IrqchipHandleIrq) {
      frame.writer().set(Reg::R0, platform::kUart0Irq);  // a line the cell lacks
    }
  });
  const auto delivery = hv_.irqchip_handle_irq(1);
  ASSERT_TRUE(delivery.has_value());
  EXPECT_EQ(delivery->outcome, IrqOutcome::Unowned);
  EXPECT_TRUE(board_.cpu(1).is_online());  // predictable, non-fatal
}

TEST_F(IrqchipTest, CorruptedVectorToAnotherPpiStillDelivers) {
  (void)board_.gic().raise_ppi(0, platform::kVirtualTimerPpi);
  hv_.set_entry_hook([](HookPoint point, arch::EntryFrame& frame) {
    if (point == HookPoint::IrqchipHandleIrq) frame.writer().set(Reg::R0, 29);
  });
  const auto delivery = hv_.irqchip_handle_irq(0);
  ASSERT_TRUE(delivery.has_value());
  EXPECT_EQ(delivery->outcome, IrqOutcome::Delivered);  // wrong but harmless
  EXPECT_EQ(delivery->vector, 29u);
}

TEST_F(IrqchipTest, IrqCountersIncrement) {
  (void)board_.gic().raise_ppi(0, platform::kVirtualTimerPpi);
  (void)hv_.irqchip_handle_irq(0);
  EXPECT_EQ(hv_.counters().irqs, 1u);
  EXPECT_EQ(board_.cpu(0).irq_entries, 1u);
}

}  // namespace
}  // namespace mcs::jh
