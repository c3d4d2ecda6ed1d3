// The paper's FreeRTOS non-root cell workload (§III):
//
//   "within FreeRTOS we spawned several tasks to be managed, including a
//    task to blink an onboard led, a couple of send/receive tasks, two
//    floating-point arithmetic tasks, and fifteen integer ones."
//
// Every task prints self-validating heartbeats on the cell console (USART/
// UART1, trapped MMIO), which is the availability observable the run
// monitor classifies: a live cell produces a steady line flow; a broken
// one leaves the USART "completely blank".
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "guests/rtos/kernel.hpp"
#include "hypervisor/guest.hpp"

namespace mcs::guest {

class FreeRtosImage final : public jh::GuestImage {
 public:
  FreeRtosImage() = default;

  [[nodiscard]] std::string_view name() const override { return "freertos"; }
  void on_start(jh::GuestContext& ctx) override;
  void run_quantum(jh::GuestContext& ctx) override;
  void on_timer(jh::GuestContext& ctx) override;
  void on_irq(jh::GuestContext& ctx, std::uint32_t irq) override;

  [[nodiscard]] rtos::Kernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] const rtos::Kernel& kernel() const noexcept { return kernel_; }

  // --- workload health counters (read by tests and the run monitor) ------
  [[nodiscard]] std::uint64_t blink_count() const noexcept { return blinks_; }
  [[nodiscard]] std::uint64_t messages_validated() const noexcept {
    return rx_validated_;
  }
  [[nodiscard]] std::uint64_t data_errors() const noexcept { return data_errors_; }
  [[nodiscard]] std::uint64_t unknown_irqs() const noexcept { return unknown_irqs_; }
  [[nodiscard]] std::uint64_t doorbells() const noexcept { return doorbells_; }

  /// Tick period of the guest tick interrupt (1 board tick = 1 ms).
  static constexpr std::uint32_t kTickPeriod = 1;

  /// Task counts per the paper.
  static constexpr int kIntegerTasks = 15;

  /// Guest-RAM state block: the integer tasks keep their hash chains in
  /// cell memory with a redundant second copy (the classic ASIL
  /// dual-storage pattern), so DRAM faults are *detectable* by the
  /// application — the observable of the memory-fault campaign.
  static constexpr std::uint64_t kStateBase = 0x7800'2000;
  static constexpr std::uint64_t kShadowBase = 0x7800'2200;

  // --- snapshot / restore (testbed warm-start) --------------------------
  struct Snapshot {
    rtos::Kernel::Snapshot kernel;
    bool spawned = false;
    bool led_on = false;
    rtos::QueueId msg_queue = 0;
    std::uint32_t tx_seq = 0;
    std::uint32_t rx_seq = 0;
    std::uint64_t rx_validated = 0;
    std::uint64_t blinks = 0;
    std::uint64_t data_errors = 0;
    std::uint64_t unknown_irqs = 0;
    std::uint64_t doorbells = 0;
    std::uint64_t heartbeat_counter = 0;
    std::array<double, 2> fp_accumulators{};
    std::array<double, 2> fp_shadows{};
    std::array<std::uint64_t, 2> fp_iterations{};
    std::array<std::uint64_t, kIntegerTasks> int_iterations{};
  };

  void snapshot_to(Snapshot& out) const {
    kernel_.snapshot_to(out.kernel);
    out.spawned = spawned_;
    out.led_on = led_on_;
    out.msg_queue = msg_queue_;
    out.tx_seq = tx_seq_;
    out.rx_seq = rx_seq_;
    out.rx_validated = rx_validated_;
    out.blinks = blinks_;
    out.data_errors = data_errors_;
    out.unknown_irqs = unknown_irqs_;
    out.doorbells = doorbells_;
    out.heartbeat_counter = heartbeat_counter_;
    out.fp_accumulators = fp_accumulators_;
    out.fp_shadows = fp_shadows_;
    out.fp_iterations = fp_iterations_;
    out.int_iterations = int_iterations_;
  }

  void restore_from(const Snapshot& snapshot) {
    kernel_.restore_from(snapshot.kernel);
    spawned_ = snapshot.spawned;
    led_on_ = snapshot.led_on;
    msg_queue_ = snapshot.msg_queue;
    tx_seq_ = snapshot.tx_seq;
    rx_seq_ = snapshot.rx_seq;
    rx_validated_ = snapshot.rx_validated;
    blinks_ = snapshot.blinks;
    data_errors_ = snapshot.data_errors;
    unknown_irqs_ = snapshot.unknown_irqs;
    doorbells_ = snapshot.doorbells;
    heartbeat_counter_ = snapshot.heartbeat_counter;
    fp_accumulators_ = snapshot.fp_accumulators;
    fp_shadows_ = snapshot.fp_shadows;
    fp_iterations_ = snapshot.fp_iterations;
    int_iterations_ = snapshot.int_iterations;
  }

 private:
  void spawn_workload();

  /// Reference checksum for the tx/rx stream (Fletcher-style).
  [[nodiscard]] static std::uint32_t message_checksum(std::uint32_t seq) noexcept;

  rtos::Kernel kernel_;
  bool spawned_ = false;
  bool led_on_ = false;

  rtos::QueueId msg_queue_ = 0;
  std::uint32_t tx_seq_ = 0;
  std::uint32_t rx_seq_ = 0;
  std::uint64_t rx_validated_ = 0;
  std::uint64_t blinks_ = 0;
  std::uint64_t data_errors_ = 0;
  std::uint64_t unknown_irqs_ = 0;
  std::uint64_t doorbells_ = 0;
  std::uint64_t heartbeat_counter_ = 0;

  std::array<double, 2> fp_accumulators_{};
  std::array<double, 2> fp_shadows_{};
  std::array<std::uint64_t, 2> fp_iterations_{};
  std::array<std::uint64_t, kIntegerTasks> int_iterations_{};
};

}  // namespace mcs::guest
