// Scenarios: pluggable per-run workload lifecycles for the campaign engine.
//
// The paper's outer loop (Figure 2) is workload-agnostic: a fresh testbed
// per run, a boot phase driven from the root shell, an observation window,
// classification. A Scenario owns the workload-specific parts — which cell
// configs to stage, how to boot, what to do inside the window — so the
// campaign/executor layer, the benches and the examples all share one
// lifecycle instead of each hardcoding `Testbed::boot_freertos_cell()`.
//
// Scenarios are stateless and const: one instance serves every run of
// every campaign, including runs executing concurrently on executor
// worker threads. All per-run state lives in the Testbed.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/plan.hpp"
#include "core/testbed.hpp"
#include "util/status.hpp"

namespace mcs::fi {

class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Registry key, e.g. "freertos-steady".
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// One-line human description (shown by `fault_campaign --list`).
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;

  /// Scenario-specific plan defaults (arming policy, intensity…), applied
  /// on top of a caller-supplied plan by make_plan(). Default: no change.
  virtual void apply_plan_defaults(TestPlan& plan) const { (void)plan; }

  /// Whether the injector must be live during the cell-management boot
  /// sequence (the §III high-intensity shape). Default: the plan decides.
  [[nodiscard]] virtual bool arm_during_boot(const TestPlan& plan) const {
    return plan.inject_during_boot;
  }

  /// Per-run setup before anything can be injected: enable the hypervisor,
  /// stage extra cell configs. A failure here is a harness error, never an
  /// experiment outcome. Default: Testbed::enable_hypervisor().
  [[nodiscard]] virtual util::Status setup(Testbed& testbed) const;

  /// Boot the workload cell(s) through the root shell. The injector may
  /// already be armed (arm_during_boot); every §III failure mode can
  /// surface here.
  virtual void boot(Testbed& testbed) const = 0;

  /// The observation window. Default: aim the machine at the absolute
  /// window-close deadline (now + plan.duration_ticks) in one stretch.
  /// Scenarios may structure the window (e.g. a mid-window cell swap) but
  /// should close it at the same deadline, so windows — and therefore
  /// injection opportunities — land on exact ticks regardless of how the
  /// phases in between are sliced.
  virtual void observe(Testbed& testbed, const TestPlan& plan) const;

  /// Whether observe() on this testbed is the default flat window: one
  /// run_until() to the close and nothing else. The executor may then
  /// split the window at any tick boundary and resume a run mid-window
  /// from a rewind point. A scenario that overrides observe() with
  /// anything more (traffic, a mid-window swap) must return false here;
  /// its runs then rewind only to window open. Default: true.
  [[nodiscard]] virtual bool flat_window(const Testbed& testbed) const {
    (void)testbed;
    return true;
  }

  /// Post-window, pre-classification epilogue (injector already disarmed).
  /// Default: nothing.
  virtual void epilogue(Testbed& testbed) const { (void)testbed; }

  /// A plan pre-tuned for this scenario: `base` (or the paper's medium
  /// plan when omitted) with this scenario's name and defaults applied.
  [[nodiscard]] TestPlan make_plan() const;
  [[nodiscard]] TestPlan make_plan(TestPlan base) const;
};

/// String-keyed scenario registry. The five built-in scenarios are
/// registered on first access:
///
///   freertos-steady     Fig. 3: boot FreeRTOS clean, inject steady state
///   inject-during-boot  §III high intensity: injector live during boot
///   osek-cell           AUTOSAR/OSEK payload in the non-root partition
///   dual-cell           both payloads: concurrent cells on dedicated
///                       cores (≥4-CPU boards), else the managed
///                       mid-window swap on the shared non-root core
///   ivshmem-traffic     two concurrent cells exchanging doorbell +
///                       shared-memory traffic under injection
///                       (quad-a7 by default; needs spare cores)
///
/// Lookup is thread-safe; registration of additional scenarios must happen
/// before campaigns start executing.
class ScenarioRegistry {
 public:
  static ScenarioRegistry& instance();

  /// Register a scenario under its name(). Replaces an existing entry
  /// with the same key (returns the replaced scenario's slot silently).
  void add(std::unique_ptr<Scenario> scenario);

  /// nullptr when unknown.
  [[nodiscard]] const Scenario* find(std::string_view name) const;

  /// Options for make(): a base plan plus workload-cell tuning text in
  /// the config-text vocabulary ("ram 0x200000\nconsole trapped\nboard
  /// quad-a7"). A `board` line selects the testbed hardware variant and
  /// overrides the scenario's default board.
  struct MakeOptions {
    const TestPlan* base = nullptr;  ///< nullptr → the paper's medium plan
    std::string cell_tuning;         ///< validated with parse_cell_tuning
  };

  /// Build a ready-to-execute plan for a registered scenario: scenario
  /// defaults applied on top of the base, cell tuning validated and
  /// attached. EINVAL for an unknown scenario key, malformed tuning, or
  /// an unregistered board key.
  [[nodiscard]] util::Expected<TestPlan> make(std::string_view name,
                                              const MakeOptions& options) const;
  [[nodiscard]] util::Expected<TestPlan> make(std::string_view name) const {
    return make(name, MakeOptions{});
  }

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] std::size_t size() const;

 private:
  ScenarioRegistry();

  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Convenience: look up a scenario in the singleton registry.
[[nodiscard]] const Scenario* find_scenario(std::string_view name);

/// The registry key every TestPlan defaults to.
inline constexpr std::string_view kDefaultScenario = "freertos-steady";

}  // namespace mcs::fi
