// Decided runs in the register domain: a restored run stops at each
// injecting tick its point's golden suffix saw, when its result is
// already known there.
//
//   * masked — its injections changed only entry-frame registers no
//     handler read, so it is on the golden trajectory: at its last
//     injecting call in the window it takes the golden result (plus its
//     own injection fields), before that it jumps to the next ladder rung;
//   * panicked — nothing executes on a panicked machine, so the rest of
//     the window is skipped.
//
// Both shortcuts must be invisible: every campaign here is compared with
// the fresh oracle (CampaignExecutor::execute_one), which always runs
// whole windows. The per-register sweep also pins which registers each
// entry point reads, since the masked verdict rests on those reads. The
// other domains' verdicts are in test_decided_domains.cpp.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/injector.hpp"
#include "decided_runs_support.hpp"
#include "util/rng.hpp"

namespace mcs::fi {
namespace {

using arch::Reg;
using decided::Capture;
using decided::expect_identical;
using decided::fresh_campaign;
using decided::run_campaign;
using decided::Shortcuts;
using decided::shortcuts_since;

// --- per-register sweep ------------------------------------------------------

/// A 2 000-tick window on the workload cell's CPU (the OSEK cell sits on
/// CPU 2 of quad-a7), one register, the first injection at call 2.
TestPlan register_plan(const std::string& scenario, const std::string& board,
                       jh::HookPoint target, Reg reg, std::uint32_t rate) {
  TestPlan plan = find_scenario(scenario)->make_plan();
  plan.board = board;
  plan.target = target;
  plan.cpu_filter = scenario == "osek-cell" && board == "quad-a7" ? 2 : 1;
  plan.fault = FaultModelKind::SingleBitFlip;
  plan.fault_registers = {reg};
  plan.duration_ticks = 2'000;
  plan.rate = rate;
  plan.phase = 2;
  plan.runs = 8;
  return plan;
}

/// The masked verdict of each run of `plan` that injected, each run
/// whole on a reset testbed.
std::vector<bool> masked_verdicts(const TestPlan& plan, Testbed& testbed) {
  const Scenario& scenario = *find_scenario(plan.scenario);
  std::vector<bool> verdicts;
  util::SplitMix64 seeder(plan.seed);
  for (std::uint32_t run = 0; run < plan.runs; ++run) {
    testbed.reset();
    EXPECT_TRUE(scenario.setup(testbed).is_ok());
    scenario.boot(testbed);
    Injector injector(plan, seeder.next(), testbed.board().clock());
    injector.attach(testbed.hypervisor());
    scenario.observe(testbed, plan);
    injector.detach(testbed.hypervisor());
    if (injector.injections() != 0) verdicts.push_back(injector.masked());
  }
  return verdicts;
}

/// The verdict a flip in `reg` must get at an entry point; nullopt where
/// it depends on what the entry was for.
using Pattern = std::function<std::optional<bool>(Reg)>;

/// Every register × {freertos-steady, osek-cell} × {bananapi, quad-a7} at
/// `target`: the production path matches the fresh oracle, and each
/// run's masked verdict follows `pattern` (when given). Returns the
/// shortcuts the snapshot campaigns took.
Shortcuts sweep_registers(jh::HookPoint target, const Pattern& pattern,
                          std::uint32_t rate = kMediumRate) {
  TestbedPool::instance().clear();
  const TestbedPool::Stats before = TestbedPool::instance().stats();
  for (const std::string scenario : {"freertos-steady", "osek-cell"}) {
    for (const std::string board : {"bananapi", "quad-a7"}) {
      Testbed testbed(platform::BoardRegistry::instance().entry(board)->factory());
      for (std::size_t r = 0; r < arch::kNumGeneralRegs; ++r) {
        const auto reg = static_cast<Reg>(r);
        const TestPlan plan = register_plan(scenario, board, target, reg, rate);
        const std::string label = scenario + " on " + board + ", " +
                                  std::string(jh::hook_point_name(target)) +
                                  ", " + std::string(arch::reg_name(reg));
        expect_identical(fresh_campaign(plan), run_campaign(plan), label);
        if (!pattern) continue;
        const std::optional<bool> want = pattern(reg);
        if (!want.has_value()) continue;
        const std::vector<bool> verdicts = masked_verdicts(plan, testbed);
        EXPECT_FALSE(verdicts.empty()) << label << ": no run injected";
        for (const bool masked : verdicts) EXPECT_EQ(masked, *want) << label;
      }
    }
  }
  return shortcuts_since(before);
}

// The comparisons are only meaningful if the shortcuts fired. At the
// trap and hypercall entries the window holds a handful of calls, so
// each run injects once.

TEST(DecidedRuns, EveryRegisterAtArchHandleTrapMatchesTheOracle) {
  // The entry check reads r0, r12, sp, lr and pc, so a flip there always
  // panics; r4-r11 are never read. r1-r3 depend on the trap's class.
  const Shortcuts taken = sweep_registers(
      jh::HookPoint::ArchHandleTrap, [](Reg reg) -> std::optional<bool> {
        if (reg >= Reg::R4 && reg <= Reg::R11) return true;
        if (reg >= Reg::R1 && reg <= Reg::R3) return std::nullopt;
        return false;
      });
  EXPECT_GT(taken.golden_results, 0u);
  EXPECT_GT(taken.panic_stops, 0u);
}

TEST(DecidedRuns, EveryRegisterAtArchHandleHvcMatchesTheOracle) {
  const Shortcuts taken = sweep_registers(jh::HookPoint::ArchHandleHvc, nullptr);
  EXPECT_GT(taken.golden_results, 0u);
  EXPECT_GT(taken.panic_stops, 0u);
}

TEST(DecidedRuns, EveryRegisterAtIrqchipHandleIrqMatchesTheOracle) {
  // The IRQ handler reads only the vector in r0. Timer interrupts enter
  // it about once a tick, so at the medium rate every run injects about
  // twenty times inside the window, more than the ladder has rungs, and
  // no run reaches the golden result; with the rate past the window
  // each run injects once and the golden result serves.
  const Pattern pattern = [](Reg reg) -> std::optional<bool> {
    return reg != Reg::R0;
  };
  const Shortcuts medium = sweep_registers(jh::HookPoint::IrqchipHandleIrq, pattern);
  EXPECT_EQ(medium.golden_results, 0u);
  EXPECT_GT(medium.ladder_restores, 0u);  // masked runs climb all the rungs
  EXPECT_GT(sweep_registers(jh::HookPoint::IrqchipHandleIrq, pattern, 100'000)
                .golden_results,
            0u);
}

// --- pool counters -----------------------------------------------------------

/// On the CPU 1 trap stream (~480, 730, 1 480, 1 980 ticks after window
/// open) call 4 injects, and no call after it in the window does.
TestPlan steady_plan() {
  TestPlan plan = find_scenario("freertos-steady")->make_plan();
  plan.board = "bananapi";
  plan.runs = 12;
  plan.duration_ticks = 3'000;
  plan.phase = 4;
  return plan;
}

TEST(DecidedRuns, SteadyPlanTakesBothShortcuts) {
  const TestPlan plan = steady_plan();
  TestbedPool::instance().clear();
  const TestbedPool::Stats before = TestbedPool::instance().stats();
  const Capture warm = run_campaign(plan);
  const Shortcuts taken = shortcuts_since(before);
  EXPECT_GT(taken.golden_results, 0u);
  EXPECT_GT(taken.panic_stops, 0u);
  expect_identical(fresh_campaign(plan), warm, "12-run steady plan");
}

TEST(DecidedRuns, SecondInjectionInsideTheWindowClimbsTheLadder) {
  // Every call from the 4th injects into r7, which no handler reads: each
  // run is masked at every injection, so it jumps from rung to rung until
  // its last injecting call in the window, then takes the golden result.
  TestPlan plan = steady_plan();
  plan.rate = 1;
  plan.fault_registers = {Reg::R7};
  TestbedPool::instance().clear();
  const TestbedPool::Stats before = TestbedPool::instance().stats();
  const Capture warm = run_campaign(plan);
  const Shortcuts taken = shortcuts_since(before);
  EXPECT_EQ(taken.golden_results, plan.runs);
  std::uint64_t later_injections = 0;
  for (const RunResult& run : warm.result.runs) {
    EXPECT_GT(run.injections, 1u);
    later_injections += run.injections - 1;
  }
  // One rung per later injection, learning run included.
  EXPECT_EQ(taken.ladder_restores, later_injections);
  expect_identical(fresh_campaign(plan), warm, "rate 1");
}

TEST(DecidedRuns, CachedResultSurvivesNeitherAnotherCaptureNorAProbeChange) {
  // Without a console the fault-free run classifies as a silent hang, so
  // the recovery probe runs and its answer is part of the golden result.
  // Every run flips r7 (never read): all runs are masked.
  TestPlan plan = steady_plan();
  plan.fault_registers = {Reg::R7};
  plan.cell_tuning = "console none";
  TestPlan other_key = plan;  // same slot, another rewind key
  other_key.duration_ticks = 3'100;

  TestbedPool::instance().clear();
  const TestbedPool::Stats before = TestbedPool::instance().stats();
  const Capture first = run_campaign(plan);
  EXPECT_GT(shortcuts_since(before).golden_results, 0u);
  const Capture fresh = fresh_campaign(plan);
  expect_identical(fresh, first, "learning campaign");
  EXPECT_NE(fresh.log.find("shutdown_reclaimed=yes"), std::string::npos);

  // A capture under another rewind key on the same slot forgets the result.
  expect_identical(fresh_campaign(other_key),
                   run_campaign(other_key), "other rewind key");
  expect_identical(fresh, run_campaign(plan), "back on the key");

  // The same point with the probe off must not read the probed result.
  expect_identical(fresh_campaign(plan, /*probe_recovery=*/false),
                   run_campaign(plan, /*probe_recovery=*/false),
                   "probe off");
  expect_identical(fresh, run_campaign(plan), "probe back on");
}

TEST(DecidedRuns, CaptureAndResetForgetWhatThePointLearned) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  const auto learn = [&testbed] {
    testbed.golden_suffix().valid = true;
    testbed.golden_suffix().injecting_ticks = {42};
    const RunPoint point = testbed.snapshot().point;
    testbed.run(10);
    ASSERT_TRUE(testbed.capture_rung(point));
  };
  testbed.capture_snapshot("point a");
  learn();
  ASSERT_TRUE(testbed.restore_snapshot());
  EXPECT_TRUE(testbed.golden_suffix().valid);  // restores keep it
  EXPECT_EQ(testbed.golden_suffix().injecting_ticks.size(), 1u);
  EXPECT_EQ(testbed.rungs(), 1u);

  testbed.capture_snapshot("point b");
  EXPECT_FALSE(testbed.golden_suffix().valid);
  EXPECT_TRUE(testbed.golden_suffix().injecting_ticks.empty());
  EXPECT_EQ(testbed.rungs(), 0u);

  learn();
  testbed.reset();
  EXPECT_FALSE(testbed.golden_suffix().valid);
  EXPECT_TRUE(testbed.golden_suffix().injecting_ticks.empty());
  EXPECT_EQ(testbed.rungs(), 0u);
}

}  // namespace
}  // namespace mcs::fi
