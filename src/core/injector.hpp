// The injector: the paper's "dozen of lines of code added to Jailhouse".
//
// Registers as the hypervisor's entry hook and, for every call of the
// targeted function that passes the CPU filter, counts; every Nth call it
// applies the fault model to the live register frame and records what it
// did. The hypervisor handler then consumes the corrupted frame — outcome
// classes *emerge* from handler semantics, never from the injector.
//
// It also judges whether its injections could matter yet. A register-
// domain injection marks the frame registers it changed (the model's own
// read of the old value does not count); the handlers read frame
// registers only through arch::EntryFrame::reg(), which reports a read of
// a marked one back here. A run whose injections changed only registers
// nobody read is *masked*: its machine followed the fault-free trajectory.
// In the other domains each record names the machine locations it changed
// (FaultRecord::changed), and dead() checks them against a golden suffix's
// touch log: a change the fault-free run never touches again is dead too.
//
// Golden mode (set_golden) turns the injector into the fault-free run's
// counter: it counts the same calls, never injects or draws from its RNG,
// and at each call that would inject it opens that call's interval in the
// golden suffix's touch log and notes the tick.
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
#include "util/touch_log.hpp"

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

  /// True when every injection so far is dead against the golden suffix
  /// whose touch log is `golden`: a register flip no handler read, a no-op,
  /// or changes to DRAM pages and GIC line fields that the fault-free run
  /// never touches from that injecting call on (fi::dead_in_golden).
  /// Needs the attached hypervisor for the DRAM window.
  [[nodiscard]] bool dead(const util::TouchLog& golden) const;

  /// Golden mode: count calls, never inject; at each call that would
  /// inject, open its interval in `touches` and note the tick. Set before
  /// attach(); the RNG is never drawn.
  void set_golden(util::TouchLog* touches) noexcept { golden_ = touches; }

  /// Golden mode: the board tick of each call that would have injected.
  [[nodiscard]] const std::vector<std::uint64_t>& golden_ticks() const noexcept {
    return golden_ticks_;
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
  util::TouchLog* golden_ = nullptr;  ///< golden mode's touch log
  std::vector<std::uint64_t> golden_ticks_;
};

}  // namespace mcs::fi
