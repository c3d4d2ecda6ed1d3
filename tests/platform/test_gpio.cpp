#include "platform/gpio.hpp"

#include <gtest/gtest.h>

#include "platform/board.hpp"

namespace mcs::platform {
namespace {

TEST(Gpio, LedStartsOff) {
  Gpio gpio("gpio", kGpioBase);
  EXPECT_FALSE(gpio.led_on());
  EXPECT_EQ(gpio.led_toggles(), 0u);
}

TEST(Gpio, SetLineDrivesLed) {
  Gpio gpio("gpio", kGpioBase);
  gpio.set_line(kGreenLedLine, true);
  EXPECT_TRUE(gpio.led_on());
  EXPECT_EQ(gpio.led_toggles(), 1u);
  gpio.set_line(kGreenLedLine, false);
  EXPECT_FALSE(gpio.led_on());
  EXPECT_EQ(gpio.led_toggles(), 2u);
}

TEST(Gpio, RedundantWriteIsNotAToggle) {
  Gpio gpio("gpio", kGpioBase);
  gpio.set_line(kGreenLedLine, true);
  gpio.set_line(kGreenLedLine, true);
  EXPECT_EQ(gpio.led_toggles(), 1u);
}

TEST(Gpio, OtherLinesDoNotCountAsLedToggles) {
  Gpio gpio("gpio", kGpioBase);
  gpio.set_line(3, true);
  EXPECT_EQ(gpio.led_toggles(), 0u);
  EXPECT_TRUE(gpio.line(3));
}

TEST(Gpio, MmioDataReadWrite) {
  Gpio gpio("gpio", kGpioBase);
  ASSERT_TRUE(gpio.mmio_write(kGpioData, 1u << kGreenLedLine).is_ok());
  EXPECT_TRUE(gpio.led_on());
  EXPECT_EQ(gpio.led_toggles(), 1u);
  EXPECT_EQ(gpio.mmio_read(kGpioData).value(), 1u << kGreenLedLine);
}

TEST(Gpio, MmioDirectionRegister) {
  Gpio gpio("gpio", kGpioBase);
  ASSERT_TRUE(gpio.mmio_write(kGpioDir, 0xFF).is_ok());
  EXPECT_EQ(gpio.mmio_read(kGpioDir).value(), 0xFFu);
}

TEST(Gpio, InvalidOffsetsRejected) {
  Gpio gpio("gpio", kGpioBase);
  EXPECT_FALSE(gpio.mmio_read(0x40).is_ok());
  EXPECT_FALSE(gpio.mmio_write(0x40, 1).is_ok());
}

TEST(Gpio, ResetClearsLinesDirectionAndToggleCounter) {
  Gpio gpio("gpio", kGpioBase);
  Gpio::Snapshot power_on;
  gpio.snapshot_to(power_on);
  gpio.set_line(kGreenLedLine, true);
  ASSERT_TRUE(gpio.mmio_write(kGpioDir, 0xFF).is_ok());
  gpio.restore_from(power_on);
  EXPECT_FALSE(gpio.led_on());
  EXPECT_EQ(gpio.mmio_read(kGpioDir).value(), 0u);
  EXPECT_EQ(gpio.led_toggles(), 0u);
}

}  // namespace
}  // namespace mcs::platform
