// AUTOSAR-classic-style guest image: the OSEK OS running an automotive
// task set (brake-pressure sampling, CAN-ish frame exchange over the cell
// console, and a watchdog-kick task). An alternative non-root payload that
// shows the fault-injection methodology is guest-agnostic — the hypervisor
// entry points, not the guest, define the failure modes.
#pragma once

#include <cstdint>
#include <string>

#include "guests/osek/os.hpp"
#include "hypervisor/guest.hpp"

namespace mcs::guest {

class OsekImage final : public jh::GuestImage {
 public:
  OsekImage() = default;

  [[nodiscard]] std::string_view name() const override { return "autosar-osek"; }
  void on_start(jh::GuestContext& ctx) override;
  void run_quantum(jh::GuestContext& ctx) override;
  void on_timer(jh::GuestContext& ctx) override;
  void on_irq(jh::GuestContext& ctx, std::uint32_t irq) override;

  [[nodiscard]] osek::Os& os() noexcept { return os_; }

  // --- workload health ----------------------------------------------------
  [[nodiscard]] std::uint64_t brake_samples() const noexcept { return samples_; }
  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_; }
  [[nodiscard]] std::uint64_t wdg_kicks() const noexcept { return kicks_; }
  [[nodiscard]] std::uint64_t data_errors() const noexcept { return errors_; }
  [[nodiscard]] std::uint64_t doorbells() const noexcept { return doorbells_; }
  [[nodiscard]] std::uint64_t unknown_irqs() const noexcept { return unknown_irqs_; }

  // --- snapshot / restore (testbed warm-start) --------------------------
  struct Snapshot {
    osek::Os::Snapshot os;
    bool configured = false;
    std::uint64_t samples = 0;
    std::uint64_t frames = 0;
    std::uint64_t kicks = 0;
    std::uint64_t errors = 0;
    std::uint64_t doorbells = 0;
    std::uint64_t unknown_irqs = 0;
    std::uint32_t pressure_raw = 0x800;
    std::uint32_t frame_seq = 0;
    bool pending_frame = false;
    std::uint64_t quantum_counter = 0;
  };

  void snapshot_to(Snapshot& out) const {
    os_.snapshot_to(out.os);
    out.configured = configured_;
    out.samples = samples_;
    out.frames = frames_;
    out.kicks = kicks_;
    out.errors = errors_;
    out.doorbells = doorbells_;
    out.unknown_irqs = unknown_irqs_;
    out.pressure_raw = pressure_raw_;
    out.frame_seq = frame_seq_;
    out.pending_frame = pending_frame_;
    out.quantum_counter = quantum_counter_;
  }

  void restore_from(const Snapshot& snapshot) {
    os_.restore_from(snapshot.os);
    configured_ = snapshot.configured;
    samples_ = snapshot.samples;
    frames_ = snapshot.frames;
    kicks_ = snapshot.kicks;
    errors_ = snapshot.errors;
    doorbells_ = snapshot.doorbells;
    unknown_irqs_ = snapshot.unknown_irqs;
    pressure_raw_ = snapshot.pressure_raw;
    frame_seq_ = snapshot.frame_seq;
    pending_frame_ = snapshot.pending_frame;
    quantum_counter_ = snapshot.quantum_counter;
  }

 private:
  void declare_workload();

  osek::Os os_;
  bool configured_ = false;

  std::uint64_t samples_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t kicks_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t doorbells_ = 0;
  std::uint64_t unknown_irqs_ = 0;
  std::uint32_t pressure_raw_ = 0x800;  ///< simulated ADC mid-scale
  std::uint32_t frame_seq_ = 0;
  bool pending_frame_ = false;
  std::uint64_t quantum_counter_ = 0;
};

}  // namespace mcs::guest
