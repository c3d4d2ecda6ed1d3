// The injector: the paper's "dozen of lines of code added to Jailhouse".
//
// Registers as the hypervisor's entry hook and, for every call of the
// targeted function that passes the CPU filter, counts; every Nth call it
// applies the fault model to the live register frame and records what it
// did. The hypervisor handler then consumes the corrupted frame — outcome
// classes *emerge* from handler semantics, never from the injector.
//
// It also judges whether its injections could matter. A register-domain
// injection marks the frame registers it changed (the model's own read of
// the old value does not count); the handlers read frame registers only
// through arch::EntryFrame::reg(), which reports a read of a marked one
// back here. A run whose injections changed only registers nobody read is
// *masked*: its machine followed the fault-free trajectory. Injections in
// the other domains change live machine state and are never masked.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/cpu.hpp"
#include "core/fault_model.hpp"
#include "core/injection_target.hpp"
#include "core/plan.hpp"
#include "hypervisor/hypervisor.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace mcs::fi {

/// One injection event, as written to the campaign log. `flips` holds
/// the domain-tagged mutations (register flips for the register domain,
/// GIC/device/DRAM records otherwise).
struct InjectionRecord {
  std::uint64_t tick = 0;       ///< board time of the injection
  std::uint64_t call_index = 0; ///< filtered-call counter value
  jh::HookPoint point = jh::HookPoint::ArchHandleTrap;
  int cpu = 0;
  std::vector<FaultRecord> flips;
};

class Injector {
 public:
  /// `clock` must outlive the injector (it stamps records).
  Injector(const TestPlan& plan, std::uint64_t seed, const util::SimClock& clock);

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Install as `hv`'s entry hook. The injector must outlive the
  /// hypervisor's use of the hook (detach() or destroy the hv first).
  void attach(jh::Hypervisor& hv);
  void detach(jh::Hypervisor& hv);

  /// The hook body (public so tests can drive it directly). The RNG is
  /// drawn from only on a call that injects; every earlier call just
  /// counts. So a run's seed cannot reach the machine before its first
  /// injecting call, which is what lets the executor share that prefix
  /// between runs (rewind points).
  void on_entry(jh::HookPoint point, arch::EntryFrame& frame);

  /// Pause/resume injection without losing counters (campaigns disarm
  /// the injector during the observation-only epilogue).
  void set_armed(bool armed) noexcept { armed_ = armed; }
  [[nodiscard]] bool armed() const noexcept { return armed_; }

  /// Continue counting from `calls` filtered calls — the count a run
  /// resumed from a rewind point had reached when it was captured.
  void set_filtered_calls(std::uint64_t calls) noexcept { calls_ = calls; }

  // --- statistics ---------------------------------------------------------
  [[nodiscard]] std::uint64_t filtered_calls() const noexcept { return calls_; }
  [[nodiscard]] std::uint64_t injections() const noexcept {
    return records_.size();
  }
  [[nodiscard]] const std::vector<InjectionRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::uint64_t first_injection_tick() const noexcept {
    return records_.empty() ? 0 : records_.front().tick;
  }

  /// True when the run injected and no injection has taken effect yet:
  /// every one changed only entry-frame registers that no handler read.
  [[nodiscard]] bool masked() const noexcept {
    return !records_.empty() && !effective_;
  }

 private:
  TestPlan plan_;
  std::unique_ptr<InjectionTarget> target_;
  util::Xoshiro256 rng_;
  const util::SimClock* clock_;
  /// The machine under attack; set by attach() so non-register domains
  /// can reach the board. Null until attached (register-domain tests
  /// drive on_entry() bare; other domains then inject nothing).
  jh::Hypervisor* hv_ = nullptr;
  bool armed_ = true;
  /// Some injection reached the machine: it changed live state, or a
  /// handler read a frame register it changed (via EntryFrame::reg()).
  bool effective_ = false;
  std::uint64_t calls_ = 0;
  std::vector<InjectionRecord> records_;
};

}  // namespace mcs::fi
