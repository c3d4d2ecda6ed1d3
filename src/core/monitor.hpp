// Run monitor: watches the §III observables and classifies the outcome.
//
// Observables, exactly as the paper's analysts had them: the non-root
// USART byte stream (blank output = dead cell), the on-board LED, the
// hypervisor's cell bookkeeping, the physical CPU power states, the
// management-command results and the hypervisor event log.
#pragma once

#include <cstdint>
#include <string>

#include "core/outcome.hpp"
#include "core/testbed.hpp"

namespace mcs::fi {

class RunMonitor {
 public:
  /// Snapshot the observation baseline (call when the watch window opens).
  /// Also records the opening tick: windows are deadline-driven (the
  /// scenario closes them at open + duration exactly), so the monitor's
  /// marks are comparable run to run and across tick policies.
  void begin(Testbed& testbed);

  /// Adopt the baseline of a window begin() opened earlier — a run
  /// resumed from a rewind point carries the marks of the run that
  /// captured it.
  void resume(const WindowMarks& marks) noexcept { marks_ = marks; }

  /// Classify at window close. Fills outcome/detail/observable fields of
  /// a RunResult (the campaign adds injection bookkeeping on top).
  [[nodiscard]] RunResult finish(Testbed& testbed) const;

  /// The baseline begin() recorded. `workload_console` matters on boards
  /// hosting a concurrent secondary cell: the shared USART aggregates
  /// both consoles, so workload liveness is judged by the cell's counter.
  [[nodiscard]] const WindowMarks& marks() const noexcept { return marks_; }

  /// Board tick at which begin() opened the watch window.
  [[nodiscard]] std::uint64_t window_open_tick() const noexcept {
    return marks_.open_tick;
  }

  /// Minimum USART bytes in the window for the cell to count as live.
  static constexpr std::uint64_t kLiveOutputThreshold = 8;

 private:
  WindowMarks marks_;
};

/// Post-mortem probe for §III's recovery claims: issue `jailhouse cell
/// shutdown` on the (possibly broken) cell and report whether the CPU and
/// peripherals actually returned to the root cell. Mutates the testbed.
[[nodiscard]] bool probe_shutdown_reclaims(Testbed& testbed);

}  // namespace mcs::fi
