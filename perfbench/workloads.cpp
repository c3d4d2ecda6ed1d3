// The four workloads and the outcome distributions they reproduce at the
// default seed. README.md gives the reason for each.
#include <algorithm>

#include "core/scenario.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

// Runs per campaign: every 1-worker pass holds at least 100 timed runs,
// so the p90 has ten samples beyond it, and is short enough that a timed
// run repeats it many times.
constexpr std::uint32_t kFig3Runs = 100;
constexpr std::uint32_t kIvshmemRuns = 100;
constexpr std::uint32_t kHighRootRuns = 400;
constexpr std::uint32_t kGridRunsPerCell = 4;  // 30 cells: 120 runs

// Seconds per timed repetition in the slowest host phase observed (a
// shared 4-vCPU machine at N = 4), so a 50-second run stays near 50 s.
constexpr double kFig3RepSeconds = 4.0;
constexpr double kIvshmemRepSeconds = 6.0;
constexpr double kHighRootRepSeconds = 3.0;
constexpr double kGridRepSeconds = 4.0;

// The self-test size.
constexpr std::uint32_t kTinyRuns = 4;
constexpr std::uint32_t kTinyGridRuns = 2;
constexpr std::uint64_t kTinyWindow = 3'000;

struct Pin {
  std::string_view workload;
  bool tiny;
  OutcomeCounts counts;  ///< indexed by fi::Outcome
};

// Outcome counts at the default seed, in fi::Outcome order: correct,
// invalid-arguments, inconsistent-cell, panic-park, cpu-park, silent-hang,
// harness-error, cross-cell-corruption. The model is not validated
// against a real Banana Pi, so these pin regressions and carry no error
// figure.
constexpr Pin kPins[] = {
    {"fig3-steady", false, {64, 0, 0, 31, 5, 0, 0, 0}},
    {"ivshmem-quad", false, {79, 0, 0, 0, 0, 0, 0, 21}},
    {"high-root-boot", false, {0, 400, 0, 0, 0, 0, 0, 0}},
    {"paper-grid", false, {110, 0, 0, 8, 2, 0, 0, 0}},
    {"fig3-steady", true, {4, 0, 0, 0, 0, 0, 0, 0}},
    {"ivshmem-quad", true, {4, 0, 0, 0, 0, 0, 0, 0}},
    {"high-root-boot", true, {0, 4, 0, 0, 0, 0, 0, 0}},
    {"paper-grid", true, {60, 0, 0, 0, 0, 0, 0, 0}},
};

/// One campaign from the scenario registry, on top of `base`.
mcs::util::Expected<Workload> campaign(std::string_view name,
                                       const std::string& scenario,
                                       const fi::TestPlan& base,
                                       std::uint32_t runs, std::uint64_t seed,
                                       std::uint64_t window, double rep_seconds) {
  fi::ScenarioRegistry::MakeOptions options;
  options.base = &base;
  auto made = fi::ScenarioRegistry::instance().make(scenario, options);
  if (!made.is_ok()) return made.status();
  Workload workload;
  workload.name = std::string(name);
  workload.rep_seconds = rep_seconds;
  fi::TestPlan plan = std::move(made).value();
  plan.runs = runs;
  plan.seed = seed;
  plan.duration_ticks = window;
  // The nearest one-cell sweep: same scenario and rate (the sweep
  // vocabulary cannot express the root-context plan's target or filter).
  workload.spec.name = workload.name;
  workload.spec.scenarios = {scenario};
  workload.spec.rates = {plan.rate};
  workload.spec.runs = runs;
  workload.spec.seed = seed;
  workload.spec.duration_ticks = window;
  workload.plans.push_back(std::move(plan));
  return workload;
}

}  // namespace

mcs::util::Expected<Workload> make_workload(std::string_view name,
                                            std::uint64_t seed, bool tiny) {
  const std::uint64_t window = tiny ? kTinyWindow : fi::kOneMinuteTicks;
  const auto runs = [tiny](std::uint32_t full) { return tiny ? kTinyRuns : full; };

  mcs::util::Expected<Workload> made = mcs::util::invalid_argument(
      "unknown workload '" + std::string(name) +
      "' (fig3-steady, ivshmem-quad, high-root-boot, paper-grid)");
  if (name == "fig3-steady") {
    // Figure 3: the paper's medium plan, one bit in arch_handle_trap on
    // CPU 1 every 100 calls, against the steady FreeRTOS cell.
    made = campaign(name, "freertos-steady", fi::paper_medium_trap_plan(),
                    runs(kFig3Runs), seed, window, kFig3RepSeconds);
  } else if (name == "ivshmem-quad") {
    // The scenario's own defaults: irqchip_handle_irq, every register,
    // any CPU, quad-a7, on the medium rate.
    made = campaign(name, "ivshmem-traffic", fi::paper_medium_trap_plan(),
                    runs(kIvshmemRuns), seed, window, kIvshmemRepSeconds);
  } else if (name == "high-root-boot") {
    // §III root context: multi-register flips in arch_handle_hvc on CPU 0,
    // armed at the first management hypercall, 1/50 calls.
    made = campaign(name, "inject-during-boot", fi::paper_high_root_hvc_plan(),
                    runs(kHighRootRuns), seed, window, kHighRootRepSeconds);
  } else if (name == "paper-grid") {
    Workload workload;
    workload.name = "paper-grid";
    workload.grid = true;
    workload.rep_seconds = kGridRepSeconds;
    workload.spec.name = "paper-grid";
    workload.spec.scenarios = {"freertos-steady", "inject-during-boot",
                               "osek-cell"};
    workload.spec.rates = {fi::kMediumRate, fi::kHighRate};
    workload.spec.domains = {"register", "gic", "irq-delivery", "device-mmio",
                             "dram"};
    workload.spec.runs = tiny ? kTinyGridRuns : kGridRunsPerCell;
    workload.spec.seed = seed;
    workload.spec.duration_ticks = window;
    auto plans = fi::SweepDriver(workload.spec).expand();
    if (!plans.is_ok()) return plans.status();
    workload.plans = std::move(plans).value();
    made = std::move(workload);
  }
  if (!made.is_ok() || seed != kDefaultSeed) return made;

  Workload& workload = made.value();
  for (const Pin& pin : kPins) {
    if (pin.workload == name && pin.tiny == tiny) {
      workload.pin = pin.counts;
      workload.pinned = std::any_of(pin.counts.begin(), pin.counts.end(),
                                    [](std::uint64_t n) { return n != 0; });
    }
  }
  return made;
}

}  // namespace perfbench
