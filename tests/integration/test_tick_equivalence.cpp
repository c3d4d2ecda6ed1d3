// Golden equivalence for the event-driven tick scheduler.
//
// The deadline scheduler may only leap spans in which nothing can
// execute, so a campaign run under TickPolicy::EventDriven must be
// *bit-identical* to the legacy per-tick loop: same run-log lines, same
// outcome distribution, same injection and failure timestamps. This
// suite pins that property on every registered scenario, and pins the
// executor's companion guarantee — thread-count-independent results —
// on the event-driven path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/log_sink.hpp"
#include "core/executor.hpp"
#include "core/monitor.hpp"
#include "hypervisor/watchdog.hpp"
#include "platform/board_registry.hpp"

namespace mcs::fi {
namespace {

struct CampaignCapture {
  CampaignResult result;
  std::string log_text;
};

TestPlan equivalence_plan(const std::string& scenario) {
  TestPlan plan = find_scenario(scenario)->make_plan();
  plan.runs = 5;
  plan.duration_ticks = 3'000;
  plan.phase = 2;  // inject early so failed runs leave long inert tails
  return plan;
}

CampaignCapture run_campaign(const TestPlan& plan, jh::TickPolicy policy,
                             unsigned threads) {
  CampaignCapture capture;
  CampaignExecutor executor(plan, {.threads = threads,
                                   .probe_recovery = true,
                                   .tick_policy = policy});
  analysis::LogSink sink;
  executor.set_progress([&sink](std::uint32_t index, const RunResult& run) {
    sink.record(index, run);
  });
  capture.result = executor.execute();
  capture.log_text = sink.text();
  return capture;
}

void expect_identical_runs(const CampaignCapture& a, const CampaignCapture& b,
                           const std::string& label) {
  EXPECT_EQ(a.log_text, b.log_text) << label;
  ASSERT_EQ(a.result.runs.size(), b.result.runs.size()) << label;
  for (std::size_t i = 0; i < a.result.runs.size(); ++i) {
    const RunResult& x = a.result.runs[i];
    const RunResult& y = b.result.runs[i];
    const std::string at = label + ", run " + std::to_string(i);
    EXPECT_EQ(x.outcome, y.outcome) << at;
    EXPECT_EQ(x.detail, y.detail) << at;
    EXPECT_EQ(x.injections, y.injections) << at;
    EXPECT_EQ(x.flipped_bits, y.flipped_bits) << at;
    EXPECT_EQ(x.first_injection_tick, y.first_injection_tick) << at;
    EXPECT_EQ(x.failure_tick, y.failure_tick) << at;
    EXPECT_EQ(x.uart1_bytes, y.uart1_bytes) << at;
    EXPECT_EQ(x.led_toggles, y.led_toggles) << at;
    EXPECT_EQ(x.traps, y.traps) << at;
    EXPECT_EQ(x.hvcs, y.hvcs) << at;
    EXPECT_EQ(x.irqs, y.irqs) << at;
    EXPECT_EQ(x.create_result, y.create_result) << at;
    EXPECT_EQ(x.start_result, y.start_result) << at;
    EXPECT_EQ(x.cell_exists, y.cell_exists) << at;
    EXPECT_EQ(x.shutdown_reclaimed, y.shutdown_reclaimed) << at;
  }
  for (std::size_t o = 0; o < kNumOutcomes; ++o) {
    const auto outcome = static_cast<Outcome>(o);
    EXPECT_EQ(a.result.distribution().count(outcome),
              b.result.distribution().count(outcome))
        << label << ": " << outcome_name(outcome);
  }
}

TEST(TickEquivalence, EventDrivenMatchesPerTickOnEveryScenario) {
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    if (name.rfind("test-", 0) == 0) continue;  // suite-local fixtures
    const TestPlan plan = equivalence_plan(name);
    const CampaignCapture legacy =
        run_campaign(plan, jh::TickPolicy::PerTick, 1);
    const CampaignCapture event =
        run_campaign(plan, jh::TickPolicy::EventDriven, 1);
    expect_identical_runs(legacy, event, "scenario " + name);
  }
}

TEST(TickEquivalence, EventDrivenCampaignsExerciseFailingRuns) {
  // The equivalence above is only meaningful if the plans actually drive
  // runs into the failure states whose tails the scheduler leaps.
  const TestPlan plan = equivalence_plan("freertos-steady");
  const CampaignCapture event =
      run_campaign(plan, jh::TickPolicy::EventDriven, 1);
  const OutcomeDistribution dist = event.result.distribution();
  EXPECT_GT(dist.total() - dist.count(Outcome::Correct), 0u)
      << "plan produced no failures; tighten rate/phase";
}

TEST(TickEquivalence, AggregateIdenticalAcrossOneFourEightThreads) {
  // {board} × {threads}: the executor's thread-count independence must
  // hold on every registered board variant, including the 4-CPU board
  // hosting two concurrent cells.
  for (const std::string& board : platform::BoardRegistry::instance().names()) {
    TestPlan plan = equivalence_plan("dual-cell");
    plan.board = board;
    const CampaignCapture one =
        run_campaign(plan, jh::TickPolicy::EventDriven, 1);
    const CampaignCapture four =
        run_campaign(plan, jh::TickPolicy::EventDriven, 4);
    const CampaignCapture eight =
        run_campaign(plan, jh::TickPolicy::EventDriven, 8);
    expect_identical_runs(one, four, board + ": threads 1 vs 4");
    expect_identical_runs(one, eight, board + ": threads 1 vs 8");
  }
  const TestPlan plan = equivalence_plan("freertos-steady");
  const CampaignCapture one = run_campaign(plan, jh::TickPolicy::EventDriven, 1);
  const CampaignCapture four = run_campaign(plan, jh::TickPolicy::EventDriven, 4);
  const CampaignCapture eight =
      run_campaign(plan, jh::TickPolicy::EventDriven, 8);
  expect_identical_runs(one, four, "threads 1 vs 4");
  expect_identical_runs(one, eight, "threads 1 vs 8");
}

TEST(TickEquivalence, WindowsCloseExactlyAtOpenPlusDuration) {
  // Deadline-driven windows: whatever a scenario does inside its window
  // (dual-cell's mid-window swap, ivshmem-traffic's staggered exchange
  // slices — phases with their own tick costs), the window must close
  // exactly duration ticks after the monitor opened it, under either
  // tick policy, on the scenario's own default board.
  for (const char* name : {"freertos-steady", "dual-cell", "ivshmem-traffic"}) {
    for (const jh::TickPolicy policy :
         {jh::TickPolicy::PerTick, jh::TickPolicy::EventDriven}) {
      const Scenario* scenario = find_scenario(name);
      ASSERT_NE(scenario, nullptr);
      TestPlan plan = scenario->make_plan();
      plan.duration_ticks = 2'500;
      Testbed testbed(platform::make_board(plan.board));
      testbed.set_tick_policy(policy);
      ASSERT_TRUE(scenario->setup(testbed).is_ok()) << name;
      scenario->boot(testbed);
      RunMonitor monitor;
      monitor.begin(testbed);
      scenario->observe(testbed, plan);
      EXPECT_EQ(testbed.board().now().value,
                monitor.window_open_tick() + plan.duration_ticks)
          << name;
    }
  }
}

TEST(TickEquivalence, WatchdogAlarmsLandOnIdenticalTicks) {
  // The watchdog's batched accounting must keep check rounds — and the
  // alarms they raise — on the same board ticks as per-tick accounting.
  std::vector<std::uint64_t> alarm_ticks[2];
  const jh::TickPolicy policies[2] = {jh::TickPolicy::PerTick,
                                      jh::TickPolicy::EventDriven};
  for (int mode = 0; mode < 2; ++mode) {
    Testbed testbed;
    testbed.set_tick_policy(policies[mode]);
    ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
    jh::CellWatchdog watchdog(testbed.hypervisor(), {});
    testbed.machine().install_watchdog(&watchdog);
    testbed.boot_freertos_cell();
    testbed.run(150);
    // Park every core and quiesce the timers: the remaining window is
    // fully inert, so the event-driven path leaps from watchdog check to
    // watchdog check — and must still observe identical boundaries.
    testbed.board().cpu(0).park("equivalence probe");
    testbed.board().cpu(1).park("equivalence probe");
    testbed.board().timer().stop(0);
    testbed.board().timer().stop(1);
    testbed.run(500);
    for (const jh::WatchdogEvent& event : watchdog.events()) {
      alarm_ticks[mode].push_back(event.tick);
    }
    testbed.machine().install_watchdog(nullptr);
  }
  EXPECT_EQ(alarm_ticks[0], alarm_ticks[1]);
  EXPECT_FALSE(alarm_ticks[0].empty());
}

}  // namespace
}  // namespace mcs::fi
