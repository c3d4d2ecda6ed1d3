#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/executor.hpp"
#include "core/monitor.hpp"
#include "platform/board_registry.hpp"

namespace mcs::fi {
namespace {

TEST(ScenarioRegistry, ShipsAtLeastFiveScenarios) {
  ScenarioRegistry& registry = ScenarioRegistry::instance();
  EXPECT_GE(registry.size(), 5u);
  const std::vector<std::string> names = registry.names();
  for (const char* expected :
       {"freertos-steady", "inject-during-boot", "osek-cell", "dual-cell",
        "ivshmem-traffic"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(ScenarioRegistry, FindReturnsNullForUnknownName) {
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
  EXPECT_NE(find_scenario("freertos-steady"), nullptr);
}

TEST(ScenarioRegistry, NamesAreSorted) {
  const std::vector<std::string> names = ScenarioRegistry::instance().names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Scenario, MakePlanAppliesScenarioDefaults) {
  const Scenario* steady = find_scenario("freertos-steady");
  const Scenario* boot = find_scenario("inject-during-boot");
  ASSERT_NE(steady, nullptr);
  ASSERT_NE(boot, nullptr);

  TestPlan base = paper_medium_trap_plan();
  base.inject_during_boot = true;  // scenario default must override
  const TestPlan steady_plan = steady->make_plan(base);
  EXPECT_EQ(steady_plan.scenario, "freertos-steady");
  EXPECT_FALSE(steady_plan.inject_during_boot);

  const TestPlan boot_plan = boot->make_plan(paper_medium_trap_plan());
  EXPECT_EQ(boot_plan.scenario, "inject-during-boot");
  EXPECT_TRUE(boot_plan.inject_during_boot);
}

TEST(Scenario, EveryRegisteredScenarioCompletesASmokeCampaign) {
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    const Scenario* scenario = find_scenario(name);
    ASSERT_NE(scenario, nullptr) << name;

    TestPlan plan = scenario->make_plan();
    plan.runs = 3;
    plan.duration_ticks = 2'000;
    plan.phase = 2;
    CampaignExecutor executor(plan);
    const CampaignResult result = executor.execute();
    ASSERT_EQ(result.runs.size(), 3u) << name;
    for (const RunResult& run : result.runs) {
      // Whatever the fault did, the harness itself must never break.
      EXPECT_NE(run.outcome, Outcome::HarnessError) << name << ": " << run.detail;
    }
  }
}

TEST(Scenario, OsekScenarioBootsTheOsekCell) {
  const Scenario* scenario = find_scenario("osek-cell");
  ASSERT_NE(scenario, nullptr);
  Testbed testbed;
  ASSERT_TRUE(scenario->setup(testbed).is_ok());
  scenario->boot(testbed);
  jh::Cell* cell = testbed.workload_cell();
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->name(), "osek-cell");
  testbed.run(2'000);
  EXPECT_GT(testbed.osek().brake_samples(), 0u);
  EXPECT_GE(testbed.board().uart1().total_bytes(),
            RunMonitor::kLiveOutputThreshold);
}

TEST(Scenario, DualCellScenarioSwapsPayloadMidWindow) {
  const Scenario* scenario = find_scenario("dual-cell");
  ASSERT_NE(scenario, nullptr);
  Testbed testbed;
  ASSERT_TRUE(scenario->setup(testbed).is_ok());
  scenario->boot(testbed);
  jh::Cell* first = testbed.workload_cell();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->name(), "freertos-cell");
  EXPECT_EQ(testbed.secondary_cell(), nullptr);  // 2 CPUs: no spare core

  TestPlan plan = scenario->make_plan();
  plan.duration_ticks = 4'000;
  scenario->observe(testbed, plan);

  jh::Cell* second = testbed.workload_cell();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->name(), "osek-cell");
  // Both payloads actually ran in the fault-free window.
  EXPECT_GT(testbed.freertos().blink_count(), 0u);
  EXPECT_GT(testbed.osek().brake_samples(), 0u);
}

TEST(Scenario, DualCellRunsBothCellsConcurrentlyOnQuadBoard) {
  const Scenario* scenario = find_scenario("dual-cell");
  ASSERT_NE(scenario, nullptr);
  Testbed testbed(platform::make_board("quad-a7"));
  ASSERT_TRUE(testbed.supports_concurrent_cells());
  ASSERT_TRUE(scenario->setup(testbed).is_ok());
  scenario->boot(testbed);

  // Both non-root cells resident at once, on dedicated cores — no swap.
  jh::Cell* freertos = testbed.workload_cell();
  jh::Cell* osek = testbed.secondary_cell();
  ASSERT_NE(freertos, nullptr);
  ASSERT_NE(osek, nullptr);
  EXPECT_EQ(freertos->name(), "freertos-cell");
  EXPECT_EQ(osek->name(), "osek-cell");
  EXPECT_NE(freertos->id(), osek->id());
  EXPECT_EQ(testbed.hypervisor().cpu_owner(Testbed::kFreeRtosCpu), freertos->id());
  EXPECT_EQ(testbed.hypervisor().cpu_owner(testbed.osek_cpu()), osek->id());
  EXPECT_NE(testbed.osek_cpu(), Testbed::kFreeRtosCpu);

  TestPlan plan = scenario->make_plan();
  plan.duration_ticks = 4'000;
  scenario->observe(testbed, plan);

  // Still both resident after the window (the swap never happened), both
  // CPUs online, both payloads having made progress *simultaneously*.
  EXPECT_EQ(testbed.workload_cell(), freertos);
  EXPECT_EQ(testbed.secondary_cell(), osek);
  EXPECT_TRUE(testbed.board().cpu(Testbed::kFreeRtosCpu).is_online());
  EXPECT_TRUE(testbed.board().cpu(testbed.osek_cpu()).is_online());
  EXPECT_GT(testbed.freertos().blink_count(), 0u);
  EXPECT_GT(testbed.osek().brake_samples(), 0u);
  EXPECT_EQ(freertos->state(), jh::CellState::Running);
  EXPECT_EQ(osek->state(), jh::CellState::Running);
}

TEST(Scenario, SecondaryCellFailureIsNotMaskedByHealthyWorkload) {
  // Concurrent deployment: the FreeRTOS cell keeps printing, but the
  // OSEK cell's core gets parked — the monitor must classify the park,
  // not report Correct off the surviving cell's output.
  const Scenario* scenario = find_scenario("dual-cell");
  Testbed testbed(platform::make_board("quad-a7"));
  ASSERT_TRUE(scenario->setup(testbed).is_ok());
  scenario->boot(testbed);
  ASSERT_NE(testbed.secondary_cell(), nullptr);
  RunMonitor monitor;
  monitor.begin(testbed);
  testbed.run(500);
  testbed.board().cpu(testbed.osek_cpu()).park("secondary probe");
  testbed.run(500);
  const RunResult result = monitor.finish(testbed);
  EXPECT_EQ(result.outcome, Outcome::CpuPark) << result.detail;
  EXPECT_NE(result.detail.find("secondary"), std::string::npos) << result.detail;
}

TEST(Scenario, IvshmemTrafficExchangesMessagesFaultFree) {
  const Scenario* scenario = find_scenario("ivshmem-traffic");
  ASSERT_NE(scenario, nullptr);
  TestPlan plan = scenario->make_plan();
  EXPECT_EQ(plan.board, "quad-a7");  // scenario default: needs spare cores
  plan.duration_ticks = 3'000;

  Testbed testbed(platform::make_board(plan.board));
  ASSERT_TRUE(scenario->setup(testbed).is_ok());
  ASSERT_TRUE(testbed.ivshmem_enabled());
  scenario->boot(testbed);
  scenario->observe(testbed, plan);

  // Fault-free: every request delivered, echoed and validated; doorbells
  // arrived in both directions.
  const IvshmemTrafficStats& stats = testbed.ivshmem_stats();
  EXPECT_GT(stats.sent, 0u);
  EXPECT_EQ(stats.received, stats.sent);
  EXPECT_FALSE(stats.traffic_disrupted());
  EXPECT_GT(testbed.osek().doorbells(), 0u);
  EXPECT_GT(testbed.freertos().doorbells(), 0u);

  RunMonitor monitor;
  const RunResult result = monitor.finish(testbed);
  EXPECT_EQ(result.outcome, Outcome::Correct) << result.detail;
}

TEST(Scenario, IvshmemTrafficRefusesBoardsWithoutSpareCores) {
  TestPlan plan = find_scenario("ivshmem-traffic")->make_plan();
  plan.board = "bananapi";  // force the paper's 2-CPU board
  plan.runs = 1;
  const CampaignResult result = CampaignExecutor(plan).execute();
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_EQ(result.runs[0].outcome, Outcome::HarnessError);
  EXPECT_NE(result.runs[0].detail.find("spare cores"), std::string::npos)
      << result.runs[0].detail;
}

TEST(Scenario, IvshmemTrafficCampaignClassifiesCrossCellCorruption) {
  // Under irqchip injection some runs must land in the new bucket — the
  // doorbell wake-ups run through the corrupted handler — and the
  // campaign must stay deterministic across thread counts.
  TestPlan plan = find_scenario("ivshmem-traffic")->make_plan();
  plan.runs = 10;
  plan.rate = 50;
  plan.phase = 2;
  plan.duration_ticks = 6'000;
  plan.seed = 0xC0FFEE;
  const CampaignResult one =
      CampaignExecutor(plan, {.threads = 1, .probe_recovery = false}).execute();
  const CampaignResult four =
      CampaignExecutor(plan, {.threads = 4, .probe_recovery = false}).execute();
  const CampaignResult eight =
      CampaignExecutor(plan, {.threads = 8, .probe_recovery = false}).execute();
  const OutcomeDistribution dist = one.distribution();
  EXPECT_GT(dist.count(Outcome::CrossCellCorruption), 0u);
  EXPECT_EQ(dist.count(Outcome::HarnessError), 0u);
  ASSERT_EQ(one.runs.size(), four.runs.size());
  ASSERT_EQ(one.runs.size(), eight.runs.size());
  for (std::size_t i = 0; i < one.runs.size(); ++i) {
    EXPECT_EQ(one.runs[i].outcome, four.runs[i].outcome) << i;
    EXPECT_EQ(one.runs[i].outcome, eight.runs[i].outcome) << i;
    EXPECT_EQ(one.runs[i].detail, eight.runs[i].detail) << i;
    EXPECT_EQ(one.runs[i].uart1_bytes, eight.runs[i].uart1_bytes) << i;
  }
}

// The satellite bugfix: a harness that cannot even start its experiment
// reports HarnessError — a bucket the paper's taxonomy never contains —
// instead of polluting SilentHang.
class BrokenSetupScenario final : public Scenario {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "test-broken-setup";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "setup always fails (test only)";
  }
  [[nodiscard]] util::Status setup(Testbed&) const override {
    return util::internal("rig power supply unplugged");
  }
  void boot(Testbed&) const override { FAIL() << "boot must not be reached"; }
};

TEST(Scenario, SetupFailureIsAHarnessErrorNotASilentHang) {
  ScenarioRegistry::instance().add(std::make_unique<BrokenSetupScenario>());
  TestPlan plan = paper_medium_trap_plan();
  plan.scenario = "test-broken-setup";
  plan.runs = 2;
  CampaignExecutor executor(plan);
  const CampaignResult result = executor.execute();
  ASSERT_EQ(result.runs.size(), 2u);
  for (const RunResult& run : result.runs) {
    EXPECT_EQ(run.outcome, Outcome::HarnessError);
    EXPECT_NE(run.detail.find("rig power supply"), std::string::npos);
  }
  const OutcomeDistribution dist = result.distribution();
  EXPECT_EQ(dist.count(Outcome::SilentHang), 0u);
  EXPECT_EQ(dist.count(Outcome::HarnessError), 2u);
}

// --- ScenarioRegistry::make: parameterised plans ----------------------------

TEST(ScenarioRegistry, MakeBuildsTunedPlans) {
  ScenarioRegistry& registry = ScenarioRegistry::instance();
  ScenarioRegistry::MakeOptions options;
  options.cell_tuning = "ram 0x00400000\nconsole trapped\n";
  const auto plan = registry.make("freertos-steady", options);
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan.value().scenario, "freertos-steady");
  EXPECT_EQ(plan.value().cell_tuning, options.cell_tuning);
}

TEST(ScenarioRegistry, MakeRejectsUnknownScenarioAndBadTuning) {
  ScenarioRegistry& registry = ScenarioRegistry::instance();
  EXPECT_FALSE(registry.make("no-such-scenario").is_ok());
  ScenarioRegistry::MakeOptions bad;
  bad.cell_tuning = "ram banana";
  EXPECT_FALSE(registry.make("freertos-steady", bad).is_ok());
}

TEST(ScenarioRegistry, MakeThreadsBoardSelectionThroughTuning) {
  ScenarioRegistry& registry = ScenarioRegistry::instance();
  ScenarioRegistry::MakeOptions options;
  options.cell_tuning = "board quad-a7\n";
  const auto plan = registry.make("dual-cell", options);
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan.value().board, "quad-a7");

  // No board line → the scenario/base default survives.
  const auto untuned = registry.make("dual-cell");
  ASSERT_TRUE(untuned.is_ok());
  EXPECT_EQ(untuned.value().board, std::string(platform::kDefaultBoard));

  // An unregistered board key fails plan construction, not the runs.
  ScenarioRegistry::MakeOptions bad;
  bad.cell_tuning = "board octo-a72";
  const auto rejected = registry.make("dual-cell", bad);
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_NE(rejected.status().message().find("octo-a72"), std::string::npos);
}

TEST(Scenario, TunedCellBootsWithResizedRamAndTrappedConsole) {
  Testbed testbed;
  jh::CellTuning tuning;
  tuning.ram_size = 0x0040'0000;  // 4 MiB
  tuning.has_console_kind = true;
  tuning.console_kind = jh::ConsoleKind::Trapped;
  testbed.set_cell_tuning(tuning);
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  jh::Cell* cell = testbed.workload_cell();
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->config().console.kind, jh::ConsoleKind::Trapped);
  bool found_ram = false;
  for (const mem::MemRegion& region : cell->config().mem_regions) {
    if (region.name == "ram") {
      EXPECT_EQ(region.size, 0x0040'0000u);
      found_ram = true;
    }
  }
  EXPECT_TRUE(found_ram);

  const std::uint64_t traps_before = testbed.hypervisor().counters().traps;
  const std::size_t bytes_before = testbed.board().uart1().total_bytes();
  testbed.run(1'000);
  // Every console byte now takes the stage-2 trap path, yet still reaches
  // the USART capture — the observable the monitor classifies.
  EXPECT_GT(testbed.board().uart1().total_bytes(), bytes_before);
  EXPECT_GT(testbed.hypervisor().counters().traps - traps_before, 100u);
}

TEST(Scenario, TunedCampaignRunsWithoutHarnessErrors) {
  ScenarioRegistry::MakeOptions options;
  options.cell_tuning = "ram 0x00200000\nconsole trapped\n";
  auto made = ScenarioRegistry::instance().make("freertos-steady", options);
  ASSERT_TRUE(made.is_ok());
  TestPlan plan = made.value();
  plan.runs = 2;
  plan.duration_ticks = 1'500;
  plan.phase = 2;
  CampaignExecutor executor(plan);
  const CampaignResult result = executor.execute();
  ASSERT_EQ(result.runs.size(), 2u);
  for (const RunResult& run : result.runs) {
    EXPECT_NE(run.outcome, Outcome::HarnessError) << run.detail;
  }
}

TEST(Scenario, MalformedTuningIsAHarnessError) {
  TestPlan plan = paper_medium_trap_plan();
  plan.cell_tuning = "ram banana";
  plan.runs = 1;
  CampaignExecutor executor(plan);
  const CampaignResult result = executor.execute();
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_EQ(result.runs[0].outcome, Outcome::HarnessError);
  EXPECT_NE(result.runs[0].detail.find("cell tuning"), std::string::npos);
}

TEST(Scenario, UnknownScenarioKeyIsAHarnessError) {
  TestPlan plan = paper_medium_trap_plan();
  plan.scenario = "typo-scenario";
  plan.runs = 1;
  CampaignExecutor executor(plan);
  const CampaignResult result = executor.execute();
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_EQ(result.runs[0].outcome, Outcome::HarnessError);
  EXPECT_NE(result.runs[0].detail.find("typo-scenario"), std::string::npos);
}

}  // namespace
}  // namespace mcs::fi
