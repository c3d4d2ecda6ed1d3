// Decided runs: a restored run stops at the tick of its plan's first
// injecting call when its result is already known there.
//
//   * masked — its injections changed only entry-frame registers no
//     handler read, so it takes the result the point's first masked run
//     computed (plus its own injection fields);
//   * panicked — nothing executes on a panicked machine, so the rest of
//     the window is skipped.
//
// Both shortcuts must be invisible: every campaign here is compared with
// the reset-per-run oracle (or fresh construction), which always runs
// whole windows. The per-register sweep also pins which registers each
// entry point reads, since the masked verdict rests on those reads.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/injector.hpp"
#include "core/testbed_pool.hpp"
#include "util/rng.hpp"

namespace mcs::fi {
namespace {

using arch::Reg;

struct Capture {
  CampaignResult result;
  std::string log;
};

enum class Mode { Fresh, ResetPerRun, Snapshot };

Capture run_campaign(const TestPlan& plan, Mode mode, bool probe_recovery = true) {
  ExecutorConfig config;
  config.threads = 1;  // one slot: the shortcut counts are deterministic
  config.probe_recovery = probe_recovery;
  config.reuse_testbeds = mode != Mode::Fresh;
  config.use_snapshots = mode == Mode::Snapshot;
  CampaignExecutor executor(plan, config);
  Capture out;
  executor.set_progress([&out](std::uint32_t index, const RunResult& run) {
    out.log += run_log_line(index, run) + "\n";
  });
  out.result = executor.execute();
  return out;
}

void expect_identical(const Capture& want, const Capture& got,
                      const std::string& label) {
  EXPECT_EQ(want.log, got.log) << label;
  ASSERT_EQ(want.result.runs.size(), got.result.runs.size()) << label;
  for (std::size_t i = 0; i < want.result.runs.size(); ++i) {
    const RunResult& x = want.result.runs[i];
    const RunResult& y = got.result.runs[i];
    const std::string at = label + ", run " + std::to_string(i);
    EXPECT_EQ(x.outcome, y.outcome) << at;
    EXPECT_EQ(x.detail, y.detail) << at;
    EXPECT_EQ(x.fault_domain, y.fault_domain) << at;
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
}

struct Shortcuts {
  std::uint64_t masked_reuses = 0;
  std::uint64_t panic_stops = 0;
};

Shortcuts shortcuts_since(const TestbedPool::Stats& before) {
  const TestbedPool::Stats after = TestbedPool::instance().stats();
  return {after.masked_reuses - before.masked_reuses,
          after.panic_stops - before.panic_stops};
}

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
/// `target`: the snapshot path matches the reset-per-run oracle, and each
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
        expect_identical(run_campaign(plan, Mode::ResetPerRun),
                         run_campaign(plan, Mode::Snapshot), label);
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
  EXPECT_GT(taken.masked_reuses, 0u);
  EXPECT_GT(taken.panic_stops, 0u);
}

TEST(DecidedRuns, EveryRegisterAtArchHandleHvcMatchesTheOracle) {
  const Shortcuts taken = sweep_registers(jh::HookPoint::ArchHandleHvc, nullptr);
  EXPECT_GT(taken.masked_reuses, 0u);
  EXPECT_GT(taken.panic_stops, 0u);
}

TEST(DecidedRuns, EveryRegisterAtIrqchipHandleIrqMatchesTheOracle) {
  // The IRQ handler reads only the vector in r0. Timer interrupts enter
  // it about once a tick, so at the medium rate every run injects again
  // inside the window and no masked verdict decides a run early; with
  // the rate past the window each run injects once and the cache serves.
  const Pattern pattern = [](Reg reg) -> std::optional<bool> {
    return reg != Reg::R0;
  };
  EXPECT_EQ(sweep_registers(jh::HookPoint::IrqchipHandleIrq, pattern).masked_reuses,
            0u);
  EXPECT_GT(sweep_registers(jh::HookPoint::IrqchipHandleIrq, pattern, 100'000)
                .masked_reuses,
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
  const Capture warm = run_campaign(plan, Mode::Snapshot);
  const Shortcuts taken = shortcuts_since(before);
  EXPECT_GT(taken.masked_reuses, 0u);
  EXPECT_GT(taken.panic_stops, 0u);
  expect_identical(run_campaign(plan, Mode::Fresh), warm, "12-run steady plan");
}

TEST(DecidedRuns, SecondInjectionInsideTheWindowNeverReusesTheResult) {
  // Every call from the 4th injects into r7, which no handler reads: each
  // run is masked, but its later injections fall inside the window, so a
  // masked verdict at the first one decides nothing.
  TestPlan plan = steady_plan();
  plan.rate = 1;
  plan.fault_registers = {Reg::R7};
  TestbedPool::instance().clear();
  const TestbedPool::Stats before = TestbedPool::instance().stats();
  const Capture warm = run_campaign(plan, Mode::Snapshot);
  EXPECT_EQ(shortcuts_since(before).masked_reuses, 0u);
  for (const RunResult& run : warm.result.runs) EXPECT_GT(run.injections, 1u);
  expect_identical(run_campaign(plan, Mode::Fresh), warm, "rate 1");
}

TEST(DecidedRuns, CachedResultSurvivesNeitherAnotherCaptureNorAProbeChange) {
  // Without a console the fault-free run classifies as a silent hang, so
  // the recovery probe runs and its answer is part of the cached result.
  // Every run flips r7 (never read): all runs are masked.
  TestPlan plan = steady_plan();
  plan.fault_registers = {Reg::R7};
  plan.cell_tuning = "console none";
  TestPlan other_key = plan;  // same slot, another rewind key
  other_key.duration_ticks = 3'100;

  TestbedPool::instance().clear();
  const TestbedPool::Stats before = TestbedPool::instance().stats();
  const Capture first = run_campaign(plan, Mode::Snapshot);
  EXPECT_GT(shortcuts_since(before).masked_reuses, 0u);
  const Capture fresh = run_campaign(plan, Mode::Fresh);
  expect_identical(fresh, first, "filling campaign");
  EXPECT_NE(fresh.log.find("shutdown_reclaimed=yes"), std::string::npos);

  // A capture under another rewind key on the same slot forgets the result.
  expect_identical(run_campaign(other_key, Mode::Fresh),
                   run_campaign(other_key, Mode::Snapshot), "other rewind key");
  expect_identical(fresh, run_campaign(plan, Mode::Snapshot), "back on the key");

  // The same point with the probe off must not read the probed result.
  expect_identical(run_campaign(plan, Mode::Fresh, /*probe_recovery=*/false),
                   run_campaign(plan, Mode::Snapshot, /*probe_recovery=*/false),
                   "probe off");
  expect_identical(fresh, run_campaign(plan, Mode::Snapshot), "probe back on");
}

TEST(DecidedRuns, CaptureAndResetForgetWhatThePointLearned) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  const auto learn = [&testbed] {
    testbed.learned().first_injection_tick = 42;
    testbed.learned().masked_result = RunResult{};
  };
  testbed.capture_snapshot("point a");
  learn();
  ASSERT_TRUE(testbed.restore_snapshot());
  EXPECT_EQ(testbed.learned().first_injection_tick, 42u);  // restores keep it
  EXPECT_TRUE(testbed.learned().masked_result.has_value());

  testbed.capture_snapshot("point b");
  EXPECT_EQ(testbed.learned().first_injection_tick, 0u);
  EXPECT_FALSE(testbed.learned().masked_result.has_value());

  learn();
  testbed.reset();
  EXPECT_EQ(testbed.learned().first_injection_tick, 0u);
  EXPECT_FALSE(testbed.learned().masked_result.has_value());
}

}  // namespace
}  // namespace mcs::fi
