#include "platform/gpio.hpp"

#include "util/bitops.hpp"
#include "util/strings.hpp"

namespace mcs::platform {

Gpio::Gpio(std::string name, PhysAddr base) : Device(std::move(name), base, 0x100) {}

util::Expected<std::uint32_t> Gpio::mmio_read(std::uint64_t offset) {
  switch (offset) {
    case kGpioData: return data_;
    case kGpioDir: return direction_;
    default:
      return util::invalid_argument("gpio read at bad offset " + util::hex(offset));
  }
}

util::Status Gpio::mmio_write(std::uint64_t offset, std::uint32_t value) {
  switch (offset) {
    case kGpioData: {
      const bool led_before = util::test_bit(data_, kGreenLedLine);
      data_ = value;
      if (util::test_bit(data_, kGreenLedLine) != led_before) ++led_toggles_;
      return util::ok_status();
    }
    case kGpioDir:
      direction_ = value;
      return util::ok_status();
    default:
      return util::invalid_argument("gpio write at bad offset " + util::hex(offset));
  }
}

bool Gpio::led_on() const noexcept { return util::test_bit(data_, kGreenLedLine); }

void Gpio::set_line(unsigned line, bool high) {
  const bool led_before = util::test_bit(data_, kGreenLedLine);
  data_ = high ? util::set_bit(data_, line) : util::clear_bit(data_, line);
  if (util::test_bit(data_, kGreenLedLine) != led_before) ++led_toggles_;
}

bool Gpio::line(unsigned line) const noexcept { return util::test_bit(data_, line); }

}  // namespace mcs::platform
