#include "platform/uart.hpp"

#include <gtest/gtest.h>

#include "platform/board.hpp"

namespace mcs::platform {
namespace {

TEST(Uart, CapturesTransmittedBytes) {
  Uart uart("uart0", kUart0Base, nullptr, 0);
  ASSERT_TRUE(uart.mmio_write(kUartThr, 'h').is_ok());
  ASSERT_TRUE(uart.mmio_write(kUartThr, 'i').is_ok());
  EXPECT_EQ(uart.captured(), "hi");
  EXPECT_EQ(uart.total_bytes(), 2u);
}

TEST(Uart, LinesSplitOnNewline) {
  Uart uart("uart1", kUart1Base, nullptr, 0);
  for (const char c : std::string("a\nbb\nccc")) {
    (void)uart.mmio_write(kUartThr, static_cast<std::uint32_t>(c));
  }
  const auto lines = uart.lines();
  ASSERT_EQ(lines.size(), 2u);  // "ccc" has no terminating newline yet
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "bb");
}

TEST(Uart, BytesSinceHighWaterMark) {
  Uart uart("uart1", kUart1Base, nullptr, 0);
  (void)uart.mmio_write(kUartThr, 'x');
  const std::size_t mark = uart.total_bytes();
  (void)uart.mmio_write(kUartThr, 'y');
  (void)uart.mmio_write(kUartThr, 'z');
  EXPECT_EQ(uart.bytes_since(mark), 2u);
  EXPECT_EQ(uart.bytes_since(100), 0u);  // future mark is safe
}

TEST(Uart, LsrReportsTransmitterReady) {
  Uart uart("uart0", kUart0Base, nullptr, 0);
  auto lsr = uart.mmio_read(kUartLsr);
  ASSERT_TRUE(lsr.is_ok());
  EXPECT_TRUE(lsr.value() & kLsrThrEmpty);
  EXPECT_FALSE(lsr.value() & kLsrDataReady);
}

TEST(Uart, RxFifoRoundTrip) {
  Uart uart("uart0", kUart0Base, nullptr, 0);
  uart.feed_rx("ok");
  EXPECT_TRUE(uart.mmio_read(kUartLsr).value() & kLsrDataReady);
  EXPECT_EQ(uart.mmio_read(kUartRbr).value(), static_cast<std::uint32_t>('o'));
  EXPECT_EQ(uart.mmio_read(kUartRbr).value(), static_cast<std::uint32_t>('k'));
  EXPECT_EQ(uart.mmio_read(kUartRbr).value(), 0u);  // empty reads zero
}

TEST(Uart, TxInterruptRaisedWhenEnabled) {
  irq::Gic gic(2);
  Uart uart("uart1", kUart1Base, &gic, kUart1Irq);
  (void)gic.enable(kUart1Irq);
  (void)uart.mmio_write(kUartThr, 'a');
  EXPECT_FALSE(gic.is_pending(kUart1Irq, 0));  // IER disabled: no interrupt
  (void)uart.mmio_write(kUartIer, 1);
  (void)uart.mmio_write(kUartThr, 'b');
  EXPECT_TRUE(gic.is_pending(kUart1Irq, 0));
}

TEST(Uart, InvalidOffsetsRejected) {
  Uart uart("uart0", kUart0Base, nullptr, 0);
  EXPECT_FALSE(uart.mmio_read(0x3FC).is_ok());
  EXPECT_FALSE(uart.mmio_write(0x3FC, 0).is_ok());
  EXPECT_EQ(uart.mmio_write(kUartLsr, 0).code(), util::Code::EPerm);
}

TEST(Uart, ResetDropsCaptureRxAndInterruptEnable) {
  Uart uart("uart0", kUart0Base, nullptr, 0);
  Uart::Snapshot power_on;
  uart.snapshot_to(power_on);
  (void)uart.mmio_write(kUartThr, 'x');
  (void)uart.mmio_write(kUartIer, 1);
  uart.feed_rx("pending");
  uart.restore_from(power_on);
  EXPECT_TRUE(uart.captured().empty());
  EXPECT_FALSE(uart.mmio_read(kUartLsr).value() & kLsrDataReady);
  EXPECT_EQ(uart.mmio_read(kUartIer).value(), 0u);
}

TEST(Uart, ClearCaptureEmptiesLog) {
  Uart uart("uart0", kUart0Base, nullptr, 0);
  Uart::Snapshot power_on;
  uart.snapshot_to(power_on);
  (void)uart.mmio_write(kUartThr, 'x');
  uart.restore_from(power_on);
  EXPECT_TRUE(uart.captured().empty());
  EXPECT_EQ(uart.total_bytes(), 0u);
}

}  // namespace
}  // namespace mcs::platform
