#include "platform/uart.hpp"

#include "util/strings.hpp"

namespace mcs::platform {

Uart::Uart(std::string name, PhysAddr base, irq::Gic* gic, irq::IrqId tx_irq)
    : Device(std::move(name), base, 0x400), gic_(gic), tx_irq_(tx_irq) {}

util::Expected<std::uint32_t> Uart::mmio_read(std::uint64_t offset) {
  switch (offset) {
    case kUartRbr: {
      if (rx_fifo_.empty()) return std::uint32_t{0};
      const auto byte = static_cast<std::uint32_t>(
          static_cast<unsigned char>(rx_fifo_.front()));
      rx_fifo_.erase(rx_fifo_.begin());
      return byte;
    }
    case kUartIer:
      return static_cast<std::uint32_t>(tx_irq_enabled_ ? 1 : 0);
    case kUartLsr: {
      // Transmitter is always ready in the model; data-ready mirrors the
      // RX FIFO.
      std::uint32_t lsr = kLsrThrEmpty;
      if (!rx_fifo_.empty()) lsr |= kLsrDataReady;
      return lsr;
    }
    default:
      return util::invalid_argument("uart read at bad offset " + util::hex(offset));
  }
}

util::Status Uart::mmio_write(std::uint64_t offset, std::uint32_t value) {
  switch (offset) {
    case kUartThr:
      captured_.push_back(static_cast<char>(value & 0xff));
      if (tx_irq_enabled_ && gic_ != nullptr) {
        MCS_RETURN_IF_ERROR(gic_->raise_spi(tx_irq_));
      }
      return util::ok_status();
    case kUartIer:
      tx_irq_enabled_ = (value & 1) != 0;
      return util::ok_status();
    case kUartLsr:
      return util::perm("uart LSR is read-only");
    default:
      return util::invalid_argument("uart write at bad offset " + util::hex(offset));
  }
}

std::vector<std::string> Uart::lines() const {
  std::vector<std::string> out;
  std::string current;
  for (const char c : captured_) {
    if (c == '\n') {
      out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  return out;
}

void Uart::feed_rx(std::string_view data) { rx_fifo_.append(data); }

}  // namespace mcs::platform
