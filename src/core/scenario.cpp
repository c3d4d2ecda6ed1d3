#include "core/scenario.hpp"

#include <algorithm>
#include <map>
#include <mutex>

#include "hypervisor/config_text.hpp"
#include "hypervisor/ivshmem.hpp"
#include "platform/board_registry.hpp"

namespace mcs::fi {

util::Status Scenario::setup(Testbed& testbed) const {
  return testbed.enable_hypervisor();
}

void Scenario::observe(Testbed& testbed, const TestPlan& plan) const {
  testbed.run_until(testbed.board().now() + util::Ticks{plan.duration_ticks});
}

TestPlan Scenario::make_plan() const { return make_plan(paper_medium_trap_plan()); }

TestPlan Scenario::make_plan(TestPlan base) const {
  base.scenario = std::string(name());
  apply_plan_defaults(base);
  return base;
}

namespace {

// --- freertos-steady --------------------------------------------------------
// The Figure 3 shape: boot the FreeRTOS cell clean, open the observation
// window, then inject into the steady state.
class FreeRtosSteadyScenario final : public Scenario {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "freertos-steady";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "FreeRTOS cell, clean boot, steady-state injection (Fig. 3)";
  }
  void apply_plan_defaults(TestPlan& plan) const override {
    plan.inject_during_boot = false;
  }
  void boot(Testbed& testbed) const override { testbed.boot_freertos_cell(); }
};

// --- inject-during-boot -----------------------------------------------------
// §III high intensity: the injector is live while the root shell creates
// and starts the cell, so the management hypercalls and the CPU hot-plug
// bring-up are in the fault space.
class InjectDuringBootScenario final : public Scenario {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "inject-during-boot";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "FreeRTOS cell, injector armed across create/start (§III high)";
  }
  void apply_plan_defaults(TestPlan& plan) const override {
    plan.inject_during_boot = true;
  }
  [[nodiscard]] bool arm_during_boot(const TestPlan&) const override {
    return true;
  }
  void boot(Testbed& testbed) const override { testbed.boot_freertos_cell(); }
};

// --- osek-cell --------------------------------------------------------------
// The AUTOSAR-classic payload in the non-root partition: shows the
// methodology is guest-agnostic — the hypervisor entry points, not the
// guest, define the failure modes.
class OsekCellScenario final : public Scenario {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "osek-cell";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "OSEK/AUTOSAR cell on CPU 1 instead of FreeRTOS";
  }
  void boot(Testbed& testbed) const override { testbed.boot_osek_cell(); }
};

// --- dual-cell --------------------------------------------------------------
// Both payloads in one run. On the paper's Banana Pi there is a single
// non-root CPU, so the two cells time-share it through the management
// path: FreeRTOS runs the first half of the window, then the root shell
// performs the full shutdown → destroy → create → start swap to OSEK —
// under injection, the swap itself is part of the fault space. On boards
// with spare cores (quad-a7) both cells are booted up front and stay
// *resident on dedicated cores simultaneously* for the whole window: the
// partitioning-hypervisor deployment the paper's isolation claims are
// about, with no swap in the fault space.
class DualCellScenario final : public Scenario {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "dual-cell";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "FreeRTOS + OSEK: concurrent when the board has a spare core, else managed mid-window swap";
  }
  void boot(Testbed& testbed) const override {
    testbed.boot_freertos_cell();
    if (testbed.supports_concurrent_cells()) testbed.boot_secondary_osek_cell();
  }
  void observe(Testbed& testbed, const TestPlan& plan) const override {
    if (testbed.supports_concurrent_cells()) {
      // True concurrency: both cells already resident, one flat window.
      Scenario::observe(testbed, plan);
      return;
    }
    // Window phases are deadline-driven: whatever the swap costs, the
    // window still closes exactly duration_ticks after it opened, so
    // latencies stay comparable across scenarios.
    const util::Ticks window_close =
        testbed.board().now() + util::Ticks{plan.duration_ticks};
    testbed.run(plan.duration_ticks / 2);
    testbed.shutdown_workload_cell();
    testbed.destroy_workload_cell();
    testbed.boot_osek_cell();
    testbed.run_until(window_close);
  }
  [[nodiscard]] bool flat_window(const Testbed& testbed) const override {
    return testbed.supports_concurrent_cells();
  }
};

// --- ivshmem-traffic --------------------------------------------------------
// The inter-cell communication scenario: two concurrent non-root cells
// exchange request/echo messages over the ivshmem shared window — SPSC
// rings through each cell's stage-2-checked address space, doorbell SGIs
// to wake the peer — while faults land in the hypervisor. The doorbell
// path runs through irqchip_handle_irq, so a corrupted vector loses the
// wake-up; the monitor classifies disrupted traffic (stale/mismatched
// payloads, lost doorbells, ring faults) as cross-cell-corruption, the
// isolation-threat bucket single-cell observables cannot see.
class IvshmemTrafficScenario final : public Scenario {
 public:
  /// One request/echo exchange per slice; the window is sliced so traffic
  /// is spread across the whole observation period.
  static constexpr std::uint64_t kSliceTicks = 500;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "ivshmem-traffic";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "two concurrent cells exchanging ivshmem doorbell+ring traffic (quad-a7)";
  }
  void apply_plan_defaults(TestPlan& plan) const override {
    plan.board = "quad-a7";  // needs spare cores; tuning may override
    plan.inject_during_boot = false;
    // The doorbell fault space: irqchip_handle_irq on whichever CPU
    // acknowledges. The model's full register surface stays in play —
    // only r0 (the vector) is live at this entry, so which injections
    // actually lose a wake-up varies run to run, like the paper's
    // register-liveness findings.
    plan.target = jh::HookPoint::IrqchipHandleIrq;
    plan.fault_registers.clear();
    plan.cpu_filter = -1;
  }
  [[nodiscard]] util::Status setup(Testbed& testbed) const override {
    if (!testbed.supports_concurrent_cells()) {
      return util::invalid_argument(
          "ivshmem-traffic needs a board with two spare cores (try 'board "
          "quad-a7')");
    }
    testbed.set_ivshmem(true);
    return testbed.enable_hypervisor();
  }
  void boot(Testbed& testbed) const override {
    testbed.boot_freertos_cell();
    testbed.boot_secondary_osek_cell();
    // Producer-side ring formatting, one ring per direction. A failure
    // here (cell never allocated, window unmapped) is counted as a
    // protocol error and surfaces at classification.
    jh::Cell* a = testbed.workload_cell();
    jh::Cell* b = testbed.secondary_cell();
    IvshmemTrafficStats& stats = testbed.ivshmem_stats();
    if (a == nullptr || b == nullptr) {
      ++stats.protocol_errors;
      return;
    }
    jh::IvshmemChannel a_to_b(a->address_space(), jh::kIvshmemRingAToB,
                              jh::kIvshmemRingCapacity);
    jh::IvshmemChannel b_to_a(b->address_space(), jh::kIvshmemRingBToA,
                              jh::kIvshmemRingCapacity);
    if (!a_to_b.init().is_ok()) ++stats.protocol_errors;
    if (!b_to_a.init().is_ok()) ++stats.protocol_errors;
  }
  void observe(Testbed& testbed, const TestPlan& plan) const override {
    const util::Ticks window_close =
        testbed.board().now() + util::Ticks{plan.duration_ticks};
    jh::Cell* a = testbed.workload_cell();
    jh::Cell* b = testbed.secondary_cell();
    if (a == nullptr || b == nullptr) {
      // Nothing to exchange; run the window out so classification sees
      // the same deadline every scenario promises.
      testbed.run_until(window_close);
      return;
    }

    const int cpu_a = Testbed::kFreeRtosCpu;
    const int cpu_b = testbed.osek_cpu();
    jh::IvshmemChannel a_tx(a->address_space(), jh::kIvshmemRingAToB,
                            jh::kIvshmemRingCapacity);
    jh::IvshmemChannel b_rx(b->address_space(), jh::kIvshmemRingAToB,
                            jh::kIvshmemRingCapacity);
    jh::IvshmemChannel b_tx(b->address_space(), jh::kIvshmemRingBToA,
                            jh::kIvshmemRingCapacity);
    jh::IvshmemChannel a_rx(a->address_space(), jh::kIvshmemRingBToA,
                            jh::kIvshmemRingCapacity);
    IvshmemTrafficStats& stats = testbed.ivshmem_stats();
    irq::Gic& gic = testbed.board().gic();

    std::uint32_t seq = 0;
    while (testbed.board().now() + util::Ticks{kSliceTicks} <= window_close) {
      ++seq;
      // Stagger each exchange inside its slice (deterministically, by
      // sequence number) so the doorbell acknowledgements sweep across
      // the injector's every-Nth-call grid instead of phase-locking with
      // it — real traffic is not synchronous with the fault process.
      const std::uint64_t stagger = (seq * 37) % (kSliceTicks / 4);
      testbed.run(stagger);
      // A → B: request, doorbell, the rest of the half-slice to deliver.
      const std::string ping = "ping " + std::to_string(seq);
      const std::uint64_t b_bells = testbed.osek().doorbells();
      if (a_tx.send_text(ping).is_ok()) {
        ++stats.sent;
        (void)a_tx.ring_doorbell(gic, cpu_a, cpu_b);
      } else {
        ++stats.send_failures;
      }
      testbed.run(kSliceTicks / 2 - stagger);

      // B drains only when its doorbell actually arrived — a corrupted
      // vector in irqchip_handle_irq silently loses the wake-up, and the
      // next drained message is stale (payload mismatch).
      bool echoed = false;
      std::string pong;
      std::uint64_t a_bells = 0;
      if (testbed.osek().doorbells() == b_bells) {
        ++stats.lost_doorbells;
      } else {
        auto got = b_rx.receive_text();
        if (!got.is_ok()) {
          ++stats.protocol_errors;
        } else if (got.value() != ping) {
          ++stats.corrupted;
        } else {
          ++stats.received;
          // B → A: echo, doorbell back.
          pong = "pong " + std::to_string(seq);
          a_bells = testbed.freertos().doorbells();
          if (b_tx.send_text(pong).is_ok()) {
            ++stats.sent;
            (void)b_tx.ring_doorbell(gic, cpu_b, cpu_a);
            echoed = true;
          } else {
            ++stats.send_failures;
          }
        }
      }
      testbed.run(kSliceTicks / 2);

      if (echoed) {
        if (testbed.freertos().doorbells() == a_bells) {
          ++stats.lost_doorbells;
        } else {
          auto got = a_rx.receive_text();
          if (!got.is_ok()) {
            ++stats.protocol_errors;
          } else if (got.value() != pong) {
            ++stats.corrupted;
          } else {
            ++stats.received;
          }
        }
      }
    }
    testbed.run_until(window_close);
  }
  [[nodiscard]] bool flat_window(const Testbed&) const override {
    return false;
  }
};

}  // namespace

struct ScenarioRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Scenario>, std::less<>> scenarios;
};

ScenarioRegistry::ScenarioRegistry() : impl_(std::make_shared<Impl>()) {}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry = [] {
    ScenarioRegistry r;
    r.add(std::make_unique<FreeRtosSteadyScenario>());
    r.add(std::make_unique<InjectDuringBootScenario>());
    r.add(std::make_unique<OsekCellScenario>());
    r.add(std::make_unique<DualCellScenario>());
    r.add(std::make_unique<IvshmemTrafficScenario>());
    return r;
  }();
  return registry;
}

void ScenarioRegistry::add(std::unique_ptr<Scenario> scenario) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::string key(scenario->name());
  impl_->scenarios.insert_or_assign(std::move(key), std::move(scenario));
}

const Scenario* ScenarioRegistry::find(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->scenarios.find(name);
  return it == impl_->scenarios.end() ? nullptr : it->second.get();
}

util::Expected<TestPlan> ScenarioRegistry::make(std::string_view name,
                                                const MakeOptions& options) const {
  const Scenario* scenario = find(name);
  if (scenario == nullptr) {
    return util::invalid_argument("unknown scenario '" + std::string(name) + "'");
  }
  // Validate the tuning up front: a bad knob should fail plan
  // construction, not surface as per-run harness errors later.
  std::string tuned_board;
  std::string tuned_domain;
  FaultDomain tuned_domain_value = FaultDomain::Register;
  if (!options.cell_tuning.empty()) {
    auto tuning = jh::parse_cell_tuning(options.cell_tuning);
    if (!tuning.is_ok()) {
      return util::invalid_argument("cell tuning: " +
                                    tuning.status().message());
    }
    tuned_board = tuning.value().board;
    if (!tuned_board.empty() &&
        platform::find_board_spec(tuned_board) == nullptr) {
      return util::invalid_argument("unknown board '" + tuned_board + "'");
    }
    tuned_domain = tuning.value().fault_domain;
    if (!tuned_domain.empty() &&
        !fault_domain_from_name(tuned_domain, tuned_domain_value)) {
      return util::invalid_argument("unknown fault domain '" + tuned_domain +
                                    "'");
    }
  }
  TestPlan plan = options.base != nullptr ? scenario->make_plan(*options.base)
                                          : scenario->make_plan();
  plan.cell_tuning = options.cell_tuning;
  // The tuning's board and fault-domain keys override the scenario/base
  // defaults.
  if (!tuned_board.empty()) plan.board = tuned_board;
  if (!tuned_domain.empty()) plan.fault_domain = tuned_domain_value;
  return plan;
}

std::vector<std::string> ScenarioRegistry::names() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> out;
  out.reserve(impl_->scenarios.size());
  for (const auto& [key, scenario] : impl_->scenarios) out.push_back(key);
  return out;  // std::map iteration is already sorted
}

std::size_t ScenarioRegistry::size() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->scenarios.size();
}

const Scenario* find_scenario(std::string_view name) {
  return ScenarioRegistry::instance().find(name);
}

}  // namespace mcs::fi
