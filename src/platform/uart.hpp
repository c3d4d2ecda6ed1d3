// 16550-style UART with full serial capture.
//
// §III: "the outcome is sent to an empty shell where the board serial port
// is connected" and the inconsistent-cell finding is detected by "the
// USART output left completely blank". The capture buffer is therefore a
// first-class experiment observable: the run monitor asserts liveness by
// watching bytes and complete lines emitted per cell.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "irq/gic.hpp"
#include "platform/device.hpp"

namespace mcs::platform {

/// Register offsets (subset of the 16550 map the guests use).
inline constexpr std::uint64_t kUartThr = 0x00;  ///< transmit holding (W)
inline constexpr std::uint64_t kUartRbr = 0x00;  ///< receive buffer (R)
inline constexpr std::uint64_t kUartIer = 0x04;  ///< interrupt enable
inline constexpr std::uint64_t kUartLsr = 0x14;  ///< line status
inline constexpr std::uint32_t kLsrThrEmpty = 1u << 5;
inline constexpr std::uint32_t kLsrDataReady = 1u << 0;

/// Time-quiescent device: transmission is instantaneous in the model, so
/// the UART publishes no deadline (inherits kNoDeadline) and never
/// constrains the board's event-driven leaps.
class Uart final : public Device {
 public:
  /// `gic`/`tx_irq` may be null/0 for a polled-only port.
  Uart(std::string name, PhysAddr base, irq::Gic* gic, irq::IrqId tx_irq);

  [[nodiscard]] util::Expected<std::uint32_t> mmio_read(std::uint64_t offset) override;
  util::Status mmio_write(std::uint64_t offset, std::uint32_t value) override;

  /// Everything ever transmitted (the log the paper collects).
  [[nodiscard]] const std::string& captured() const noexcept { return captured_; }

  /// Transmitted bytes since the given high-water mark; used by the run
  /// monitor to detect a silent (blank-output) cell.
  [[nodiscard]] std::size_t bytes_since(std::size_t mark) const noexcept {
    return captured_.size() >= mark ? captured_.size() - mark : 0;
  }
  [[nodiscard]] std::size_t total_bytes() const noexcept { return captured_.size(); }

  /// Completed lines (split on '\n').
  [[nodiscard]] std::vector<std::string> lines() const;

  /// Host-side input (loopback/test support).
  void feed_rx(std::string_view data);

  // --- snapshot / restore (testbed warm-start) --------------------------
  /// The capture buffer is append-only along a run, so its snapshot is
  /// just a length: restore truncates back to the captured prefix (no
  /// byte copies, no allocations; power-on's length is 0).
  struct Snapshot {
    std::size_t captured_size = 0;
    std::string rx_fifo;
    bool tx_irq_enabled = false;
  };

  void snapshot_to(Snapshot& out) const {
    out.captured_size = captured_.size();
    out.rx_fifo = rx_fifo_;
    out.tx_irq_enabled = tx_irq_enabled_;
  }

  void restore_from(const Snapshot& snapshot) {
    captured_.resize(snapshot.captured_size);
    if (rx_fifo_ != snapshot.rx_fifo) rx_fifo_ = snapshot.rx_fifo;
    tx_irq_enabled_ = snapshot.tx_irq_enabled;
  }

  /// Cut the capture back to `size` bytes, then append `tail`: a ladder
  /// rung restore (fi::Testbed) puts back the bytes its golden run sent
  /// after the rewind point. No allocation once the buffer has held them.
  void restore_capture(std::size_t size, std::string_view tail) {
    captured_.resize(size);
    captured_.append(tail);
  }

 private:
  irq::Gic* gic_;
  irq::IrqId tx_irq_;
  std::string captured_;
  std::string rx_fifo_;
  bool tx_irq_enabled_ = false;
};

}  // namespace mcs::platform
