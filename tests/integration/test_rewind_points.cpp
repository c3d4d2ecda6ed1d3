// Rewind points: the executor's slot snapshot sits at the latest tick
// boundary every run of a plan shares, and restored runs resume there.
//
// Two properties beyond the campaign-level equivalence suite:
//   * a snapshot taken at *any* tick boundary of a flat window, restored
//     twice and run to the close, reproduces the uninterrupted run — its
//     run-log line, UART bytes, event log, hypervisor and guest counters;
//   * the rewind key holds exactly the fields that shape the shared
//     prefix: changing one forces a new learning run, changing anything
//     else reuses the point.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/injector.hpp"
#include "core/monitor.hpp"
#include "core/testbed_pool.hpp"
#include "util/rng.hpp"

namespace mcs::fi {
namespace {

// --- random-tick captures ------------------------------------------------------

/// Everything a run leaves behind that a bad restore could corrupt.
struct Observed {
  std::string line;  ///< the run-log line (outcome, detail, injections, ...)
  std::string uart1;
  std::vector<std::string> log;
  jh::Counters hv;
  std::vector<std::uint64_t> guests;
};

Observed close_run(Testbed& testbed, const Scenario& scenario,
                   const RunMonitor& monitor, Injector& injector,
                   const Injector* earlier) {
  injector.set_armed(false);
  scenario.epilogue(testbed);
  RunResult result = monitor.finish(testbed);
  // A run resumed after injections took them from the injector that made
  // them (`earlier`); the resumed one only counted.
  const Injector& made = earlier != nullptr ? *earlier : injector;
  result.injections = made.injections();
  result.first_injection_tick = made.first_injection_tick();
  for (const InjectionRecord& record : made.records()) {
    result.flipped_bits += record.flips.size();
  }
  injector.detach(testbed.hypervisor());

  Observed seen;
  seen.line = run_log_line(0, result);
  seen.uart1 = testbed.board().uart1().captured();
  for (const util::LogRecord& record : testbed.board().log().records()) {
    seen.log.push_back(std::to_string(record.timestamp.value) + " " +
                       record.component + " " +
                       std::to_string(static_cast<int>(record.severity)) + " " +
                       std::to_string(record.cpu) + " " + record.message);
  }
  seen.hv = testbed.hypervisor().counters();
  const guest::FreeRtosImage& freertos = testbed.freertos();
  guest::OsekImage& osek = testbed.osek();
  seen.guests = {freertos.messages_validated(), freertos.blink_count(),
                 freertos.data_errors(),        freertos.doorbells(),
                 freertos.kernel().ticks(),     freertos.kernel().dispatches(),
                 osek.brake_samples(),          osek.frames_sent(),
                 osek.wdg_kicks(),              osek.data_errors(),
                 osek.os().dispatches(),        osek.os().counter(),
                 testbed.linux_root().jiffies()};
  return seen;
}

void expect_same(const Observed& want, const Observed& got, const std::string& at) {
  EXPECT_EQ(want.line, got.line) << at;
  EXPECT_EQ(want.uart1, got.uart1) << at;
  EXPECT_EQ(want.log, got.log) << at;
  EXPECT_EQ(want.hv.traps, got.hv.traps) << at;
  EXPECT_EQ(want.hv.hvcs, got.hv.hvcs) << at;
  EXPECT_EQ(want.hv.irqs, got.hv.irqs) << at;
  EXPECT_EQ(want.hv.mmio_emulations, got.hv.mmio_emulations) << at;
  EXPECT_EQ(want.hv.unhandled_traps, got.hv.unhandled_traps) << at;
  EXPECT_EQ(want.hv.cpu_parks, got.hv.cpu_parks) << at;
  EXPECT_EQ(want.hv.panics, got.hv.panics) << at;
  EXPECT_EQ(want.hv.hypercall_errors, got.hv.hypercall_errors) << at;
  EXPECT_EQ(want.guests, got.guests) << at;
}

/// Reset, set up and boot `testbed`, then open the window.
void open_window(Testbed& testbed, const Scenario& scenario, RunMonitor& monitor,
                 Injector& injector) {
  testbed.reset();
  ASSERT_TRUE(scenario.setup(testbed).is_ok());
  scenario.boot(testbed);
  monitor.begin(testbed);
  injector.attach(testbed.hypervisor());
}

TEST(RewindPointProperty, RandomTickCapturesRestoreToTheUninterruptedRun) {
  // Flat windows only: the executor never splits any other. CPU 1 traps
  // land ~480, 730, 1 480, 1 980, 2 230, 2 980 … ticks into the window;
  // call 5 injects first, then every 2nd call, so captures fall before,
  // between and after injections (and osek-cell on quad-a7, whose cell
  // runs on CPU 2, never injects). A capture before the first injection
  // resumes a same-seed injector from the saved call count — the
  // executor's rewind point, anywhere in the shared prefix. After an
  // injection the injector's RNG has moved, so the reference disarms at
  // the capture tick and the resumed run only counts: what is compared
  // then is the machine state the snapshot carried.
  struct Shape {
    const char* scenario;
    const char* board;
  };
  constexpr Shape kShapes[] = {{"freertos-steady", "bananapi"},
                               {"freertos-steady", "quad-a7"},
                               {"osek-cell", "bananapi"},
                               {"osek-cell", "quad-a7"},
                               {"dual-cell", "quad-a7"}};
  constexpr int kSamplesPerShape = 25;
  util::Xoshiro256 rng(0x5EED'7E57);
  int resumed_before_injection = 0;
  int resumed_after_injection = 0;

  for (const Shape& shape : kShapes) {
    const Scenario* scenario = find_scenario(shape.scenario);
    ASSERT_NE(scenario, nullptr);
    TestPlan plan = scenario->make_plan();
    plan.board = shape.board;
    plan.duration_ticks = 4'000;
    plan.phase = 5;
    plan.rate = 2;
    const auto entry = platform::BoardRegistry::instance().entry(shape.board);
    ASSERT_NE(entry, nullptr);
    Testbed reference(entry->factory());
    Testbed testbed(entry->factory());
    ASSERT_TRUE(scenario->flat_window(testbed)) << shape.scenario;

    for (int sample = 0; sample < kSamplesPerShape; ++sample) {
      const std::uint64_t seed = rng.next();
      const std::uint64_t offset = 1 + rng.below(plan.duration_ticks - 1);
      const std::string at = std::string(shape.scenario) + " on " + shape.board +
                             ", capture at +" + std::to_string(offset);

      // The run, captured at the offset.
      RunMonitor monitor;
      Injector injector(plan, seed, testbed.board().clock());
      open_window(testbed, *scenario, monitor, injector);
      const util::Ticks window_open = testbed.board().now();
      const util::Ticks close = window_open + util::Ticks{plan.duration_ticks};
      testbed.run_until(window_open + util::Ticks{offset});
      testbed.capture_snapshot(
          "property", RunPoint{monitor.marks(), injector.filtered_calls(), close.value});
      const bool injected = injector.injections() > 0;
      ++(injected ? resumed_after_injection : resumed_before_injection);

      // The same run uninterrupted: the scenario's own window, or, when
      // the capture followed an injection, one disarmed at the offset.
      RunMonitor ref_monitor;
      Injector ref_injector(plan, seed, reference.board().clock());
      open_window(reference, *scenario, ref_monitor, ref_injector);
      ASSERT_EQ(reference.board().now().value, window_open.value) << at;
      if (injected) {
        reference.run_until(window_open + util::Ticks{offset});
        ref_injector.set_armed(false);
        reference.run_until(close);
      } else {
        scenario->observe(reference, plan);
      }
      const Observed want =
          close_run(reference, *scenario, ref_monitor, ref_injector, nullptr);

      for (int restore = 0; restore < 2; ++restore) {
        ASSERT_TRUE(testbed.restore_snapshot()) << at;
        const RunPoint& point = testbed.snapshot().point;
        RunMonitor resumed_monitor;
        resumed_monitor.resume(point.marks);
        Injector resumed(plan, seed, testbed.board().clock());
        resumed.set_filtered_calls(point.filtered_calls);
        resumed.set_armed(!injected);
        resumed.attach(testbed.hypervisor());
        testbed.run_until(util::Ticks{point.window_close});
        expect_same(want,
                    close_run(testbed, *scenario, resumed_monitor, resumed,
                              injected ? &injector : nullptr),
                    at + ", restore " + std::to_string(restore + 1));
      }
    }
  }
  // Both halves of the property were exercised.
  EXPECT_GT(resumed_before_injection, 20);
  EXPECT_GT(resumed_after_injection, 20);
}

// --- the rewind key -------------------------------------------------------------

/// A plan with its first injection mid-window (call 3, ~1 480 ticks in).
TestPlan key_plan() {
  TestPlan plan = find_scenario("freertos-steady")->make_plan();
  plan.board = "bananapi";
  plan.runs = 3;
  plan.duration_ticks = 2'500;
  plan.phase = 3;
  plan.rate = 2;
  return plan;
}

struct Campaign {
  std::string log;
  std::uint64_t resets = 0;    ///< learning runs (reset + boot)
  std::uint64_t restores = 0;  ///< runs resumed from a rewind point
};

Campaign run(const TestPlan& plan, ExecutorConfig config) {
  config.threads = 1;
  CampaignExecutor executor(plan, config);
  Campaign out;
  executor.set_progress([&out](std::uint32_t index, const RunResult& result) {
    out.log += run_log_line(index, result) + "\n";
  });
  const TestbedPool::Stats before = TestbedPool::instance().stats();
  (void)executor.execute();
  const TestbedPool::Stats after = TestbedPool::instance().stats();
  out.resets = after.run_resets - before.run_resets;
  out.restores = after.run_restores - before.run_restores;
  return out;
}

/// The oracle's log: every run whole on a fresh testbed.
std::string fresh_log(const TestPlan& plan, const ExecutorConfig& config) {
  const CampaignExecutor executor(plan, config);
  util::SplitMix64 seeds(plan.seed);
  std::string log;
  for (std::uint32_t i = 0; i < plan.runs; ++i) {
    log += run_log_line(i, executor.execute_one(seeds.next())) + "\n";
  }
  return log;
}

struct Variant {
  const char* field;
  std::function<void(TestPlan&, ExecutorConfig&)> change;
};

TEST(RewindKey, ChangingAnyKeyFieldForcesANewLearningRun) {
  using Plan = TestPlan&;
  using Config = ExecutorConfig&;
  const std::vector<Variant> variants = {
      {"hook target", [](Plan p, Config) { p.target = jh::HookPoint::ArchHandleHvc; }},
      {"CPU filter", [](Plan p, Config) { p.cpu_filter = -1; }},
      {"first injecting call", [](Plan p, Config) { p.phase = 4; }},
      {"arm during boot", [](Plan p, Config) { p.inject_during_boot = true; }},
      {"window length", [](Plan p, Config) { p.duration_ticks = 2'600; }},
      {"board", [](Plan p, Config) { p.board = "quad-a7"; }},
      {"RAM size", [](Plan p, Config) { p.cell_tuning = "ram 0x200000"; }},
      {"console kind", [](Plan p, Config) { p.cell_tuning = "console trapped"; }},
      {"scenario", [](Plan p, Config) { p.scenario = "osek-cell"; }},
      {"tick policy", [](Plan, Config c) { c.tick_policy = jh::TickPolicy::PerTick; }},
  };

  TestbedPool::instance().clear();
  const TestPlan base = key_plan();
  for (const Variant& variant : variants) {
    // The slot holds the base plan's point; the variant must not use it.
    const Campaign warm = run(base, ExecutorConfig{});
    EXPECT_LE(warm.resets, 1u) << variant.field;
    TestPlan plan = base;
    ExecutorConfig config;
    variant.change(plan, config);
    const Campaign changed = run(plan, config);
    EXPECT_EQ(changed.resets, 1u) << variant.field;
    EXPECT_EQ(changed.restores, plan.runs - 1) << variant.field;
  }
}

TEST(RewindKey, SeedAndInjectionFieldsReuseThePoint) {
  using Plan = TestPlan&;
  using Config = ExecutorConfig&;
  const std::vector<Variant> variants = {
      {"seed", [](Plan p, Config) { p.seed ^= 0x9E37'79B9; }},
      {"fault model", [](Plan p, Config) { p.fault = FaultModelKind::RandomMultiFlip; }},
      {"registers",
       [](Plan p, Config) { p.fault_registers = {arch::Reg::R0, arch::Reg::LR}; }},
      {"count",
       [](Plan p, Config) {
         p.fault = FaultModelKind::RandomMultiFlip;
         p.fault_count = 4;
       }},
      {"domain", [](Plan p, Config) { p.fault_domain = FaultDomain::Gic; }},
      {"domain tuning", [](Plan p, Config) { p.cell_tuning = "fault domain dram"; }},
      {"rate with phase fixed", [](Plan p, Config) { p.rate = 1; }},
  };

  TestbedPool::instance().clear();
  const TestPlan base = key_plan();
  for (const Variant& variant : variants) {
    (void)run(base, ExecutorConfig{});
    TestPlan plan = base;
    ExecutorConfig config;
    variant.change(plan, config);
    const Campaign reused = run(plan, config);
    EXPECT_EQ(reused.resets, 0u) << variant.field;
    EXPECT_EQ(reused.restores, plan.runs) << variant.field;
    // Reusing the point is exact: the same runs on fresh testbeds.
    EXPECT_EQ(reused.log, fresh_log(plan, config)) << variant.field;
  }
}

}  // namespace
}  // namespace mcs::fi
