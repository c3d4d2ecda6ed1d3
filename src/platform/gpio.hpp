// GPIO port with the Banana Pi's green on-board LED (PH24).
//
// The FreeRTOS workload's first task "blink[s] an onboard led"; LED edge
// counts are a liveness observable independent of the UART, used by the
// run monitor to corroborate blank-USART verdicts.
#pragma once

#include <cstdint>

#include "platform/device.hpp"

namespace mcs::platform {

inline constexpr std::uint64_t kGpioData = 0x0;   ///< bit per line, RW
inline constexpr std::uint64_t kGpioDir = 0x4;    ///< 1 = output
inline constexpr unsigned kGreenLedLine = 24;      ///< PH24 on the Banana Pi

/// Time-quiescent device: lines change only under MMIO writes, so the
/// GPIO block publishes no deadline (inherits kNoDeadline) and never
/// constrains the board's event-driven leaps.
class Gpio final : public Device {
 public:
  Gpio(std::string name, PhysAddr base);

  [[nodiscard]] util::Expected<std::uint32_t> mmio_read(std::uint64_t offset) override;
  util::Status mmio_write(std::uint64_t offset, std::uint32_t value) override;

  [[nodiscard]] bool led_on() const noexcept;
  [[nodiscard]] std::uint64_t led_toggles() const noexcept { return led_toggles_; }

  /// Guest-facing helpers (bypass MMIO encoding).
  void set_line(unsigned line, bool high);
  [[nodiscard]] bool line(unsigned line) const noexcept;

  // --- snapshot / restore (testbed warm-start) --------------------------
  struct Snapshot {
    std::uint32_t data = 0;
    std::uint32_t direction = 0;
    std::uint64_t led_toggles = 0;
  };

  void snapshot_to(Snapshot& out) const noexcept {
    out.data = data_;
    out.direction = direction_;
    out.led_toggles = led_toggles_;
  }

  void restore_from(const Snapshot& snapshot) noexcept {
    data_ = snapshot.data;
    direction_ = snapshot.direction;
    led_toggles_ = snapshot.led_toggles;
  }

 private:
  std::uint32_t data_ = 0;
  std::uint32_t direction_ = 0;
  std::uint64_t led_toggles_ = 0;
};

}  // namespace mcs::platform
