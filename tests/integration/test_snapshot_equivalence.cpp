// Restored ≡ fresh: the equivalence suite of the campaign executor.
//
// Pooled slots, power-on restores, rewind points and decided runs may
// only ever be an *optimisation*: a campaign must be bit-identical to its
// oracle, every run whole on a freshly constructed testbed
// (CampaignExecutor::execute_one) — same run-log lines, same outcomes and
// details, same aggregates — on every scenario, every board variant,
// every thread count and on slots other campaigns used first. This suite
// pins that, checks the restore path is actually exercised (not silently
// falling back to power-on + boot), pins the sweep driver's
// interrupt/resume byte-identity, and compares every run log of a
// five-domain rewind grid with the oracle's lines. Its ReuseEquivalence
// tests and RestoredMatchesPooledResetPerRun drive runs through the
// power-on restore of slots that other plans dirtied.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/log_sink.hpp"
#include "analysis/report.hpp"
#include "core/executor.hpp"
#include "core/injection_target.hpp"
#include "core/sweep.hpp"
#include "core/testbed_pool.hpp"
#include "hypervisor/cell_config.hpp"
#include "util/rng.hpp"

namespace mcs::fi {
namespace {

struct CampaignCapture {
  CampaignResult result;
  std::string log_text;
  analysis::CampaignAggregate aggregate;
};

TestPlan snapshot_plan(const std::string& scenario, const std::string& board) {
  TestPlan plan = find_scenario(scenario)->make_plan();
  plan.board = board;
  plan.runs = 4;
  plan.duration_ticks = 2'000;
  plan.phase = 2;  // inject early so failure states are actually reached
  return plan;
}

/// The production path: pooled slots, rewind points, decided runs.
CampaignCapture run_campaign(const TestPlan& plan, unsigned threads) {
  CampaignCapture capture;
  CampaignExecutor executor(plan, {.threads = threads});
  analysis::LogSink sink;
  executor.set_progress([&sink](std::uint32_t index, const RunResult& run) {
    sink.record(index, run);
  });
  capture.result = executor.execute();
  capture.log_text = sink.text();
  capture.aggregate = sink.aggregate();
  return capture;
}

/// The oracle: execute()'s run seeds, each run on a fresh testbed.
CampaignCapture fresh_campaign(const TestPlan& plan) {
  CampaignCapture capture;
  const CampaignExecutor executor(plan);
  analysis::LogSink sink;
  util::SplitMix64 seeds(plan.seed);
  for (std::uint32_t i = 0; i < plan.runs; ++i) {
    capture.result.runs.push_back(executor.execute_one(seeds.next()));
    sink.record(i, capture.result.runs.back());
  }
  capture.log_text = sink.text();
  capture.aggregate = sink.aggregate();
  return capture;
}

void expect_identical(const CampaignCapture& fresh, const CampaignCapture& warm,
                      const std::string& label) {
  // Bit-identical run logs are the headline: every observable a run
  // reports is rendered into its log line.
  EXPECT_EQ(fresh.log_text, warm.log_text) << label;
  ASSERT_EQ(fresh.result.runs.size(), warm.result.runs.size()) << label;
  for (std::size_t i = 0; i < fresh.result.runs.size(); ++i) {
    const RunResult& x = fresh.result.runs[i];
    const RunResult& y = warm.result.runs[i];
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
    EXPECT_EQ(fresh.aggregate.distribution.count(outcome),
              warm.aggregate.distribution.count(outcome))
        << label << ": " << outcome_name(outcome);
  }
  EXPECT_EQ(fresh.aggregate.injections, warm.aggregate.injections) << label;
  EXPECT_EQ(fresh.aggregate.cell_failures, warm.aggregate.cell_failures) << label;
  EXPECT_EQ(fresh.aggregate.reclaimed, warm.aggregate.reclaimed) << label;
}

TEST(SnapshotEquivalence, RestoredMatchesFreshOnEveryScenarioBoardAndThreadCount) {
  // {scenario} × {board} × {1, 4, 8} threads against one oracle per
  // (scenario, board): the oracle has no threads and no pool.
  for (const std::string& scenario : ScenarioRegistry::instance().names()) {
    if (scenario.rfind("test-", 0) == 0) continue;  // suite-local fixtures
    for (const std::string& board : {std::string("bananapi"), std::string("quad-a7")}) {
      const TestPlan plan = snapshot_plan(scenario, board);
      const CampaignCapture fresh = fresh_campaign(plan);
      for (const unsigned threads : {1u, 4u, 8u}) {
        const CampaignCapture warm = run_campaign(plan, threads);
        expect_identical(fresh, warm,
                         scenario + " on " + board + ", " +
                             std::to_string(threads) + " threads");
      }
    }
  }
}

TEST(SnapshotEquivalence, CrossScenarioSlotReuseStaysIdentical) {
  // Sweeps interleave campaigns on one pool: run campaign B after
  // campaign A dirtied it and require B to still match its oracle.
  const TestPlan first = snapshot_plan("ivshmem-traffic", "quad-a7");
  const TestPlan second = snapshot_plan("dual-cell", "quad-a7");
  const CampaignCapture baseline = fresh_campaign(second);
  (void)run_campaign(first, 1);  // dirty the pool
  expect_identical(baseline, run_campaign(second, 1),
                   "dual-cell after ivshmem-traffic slots");
}

TEST(SnapshotEquivalence, SteadyScenariosActuallyRestore) {
  // The identity above is vacuous if every run silently falls back to
  // reset + boot: require the pool to report restores, and more restores
  // than full resets for a steady single-slot campaign (boot once,
  // restore plan.runs - 1 times). An emptied pool makes the capture this
  // campaign's own: an earlier test in the same process may have parked
  // a slot that already holds this plan's rewind point.
  TestbedPool::instance().clear();
  const TestbedPool::Stats before = TestbedPool::instance().stats();
  TestPlan plan = snapshot_plan("freertos-steady", "bananapi");
  plan.runs = 6;
  (void)run_campaign(plan, 1);
  const TestbedPool::Stats after = TestbedPool::instance().stats();
  EXPECT_GE(after.captures, before.captures + 1);
  EXPECT_GE(after.run_restores, before.run_restores + plan.runs - 1);
  EXPECT_GT(after.snapshot_bytes, 0u);
  EXPECT_GT(after.dirty_pages, 0u);
}

TEST(SnapshotEquivalence, InjectDuringBootNeverRestores) {
  // Scenarios that inject during boot are snapshot-ineligible: the
  // injected boot *is* the experiment. Every run must be a full reset.
  const TestbedPool::Stats before = TestbedPool::instance().stats();
  const TestPlan plan = snapshot_plan("inject-during-boot", "bananapi");
  (void)run_campaign(plan, 1);
  const TestbedPool::Stats after = TestbedPool::instance().stats();
  EXPECT_EQ(after.run_restores, before.run_restores);
  EXPECT_GE(after.run_resets, before.run_resets + plan.runs);
}

TEST(SnapshotEquivalence, SnapshotCampaignsExerciseFailingRuns) {
  // The identity is only meaningful if the plans actually reach the
  // failure states whose residue a bad restore would leak.
  const TestPlan plan = snapshot_plan("freertos-steady", "bananapi");
  const CampaignCapture warm = run_campaign(plan, 1);
  const OutcomeDistribution dist = warm.result.distribution();
  EXPECT_GT(dist.total() - dist.count(Outcome::Correct), 0u)
      << "plan produced no failures; tighten rate/phase";
}

TEST(SnapshotEquivalence, DomainFaultCampaignsRestoreIdentically) {
  // The unified injection layer: every non-register fault domain, the
  // fresh oracle vs the production path at {1, 4, 8} threads. A
  // restore that leaked injected GIC/device/DRAM state into the next run
  // breaks the bit-identity here.
  for (const auto domain : {FaultDomain::Gic, FaultDomain::IrqDelivery,
                            FaultDomain::DeviceMmio, FaultDomain::Dram}) {
    TestPlan plan = snapshot_plan("freertos-steady", "bananapi");
    plan.fault_domain = domain;
    const std::string label(fault_domain_name(domain));
    const CampaignCapture fresh = fresh_campaign(plan);
    for (const unsigned threads : {1u, 4u, 8u}) {
      const CampaignCapture warm = run_campaign(plan, threads);
      expect_identical(fresh, warm,
                       label + " domain, " + std::to_string(threads) +
                           " threads");
    }
  }
}

TEST(SnapshotEquivalence, DomainTuningSelectsTheDomainThroughTheExecutor) {
  // The config-text path: `fault domain gic` in the cell tuning must be
  // equivalent to setting the plan field directly — same runs, same
  // domain-tagged log lines.
  TestPlan direct = snapshot_plan("freertos-steady", "bananapi");
  direct.fault_domain = FaultDomain::Gic;
  TestPlan tuned = snapshot_plan("freertos-steady", "bananapi");
  tuned.cell_tuning = "fault domain gic";
  const CampaignCapture a = fresh_campaign(direct);
  const CampaignCapture b = fresh_campaign(tuned);
  EXPECT_EQ(a.log_text, b.log_text);
  EXPECT_NE(a.log_text.find("domain=gic"), std::string::npos);

  // An unknown domain name in the tuning is a HarnessError, not UB.
  TestPlan bad = snapshot_plan("freertos-steady", "bananapi");
  bad.cell_tuning = "fault domain warp-core";
  const CampaignCapture broken = fresh_campaign(bad);
  EXPECT_EQ(broken.result.distribution().count(Outcome::HarnessError),
            broken.result.runs.size());
}

TEST(SnapshotEquivalence, DramFaultsNeverSurviveRestore) {
  // Satellite of the DRAM domain: injected bits go through
  // PhysicalMemory::write_u8, so they dirty-mark their pages and
  // Testbed::restore_snapshot() reverts every one of them.
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  testbed.run(500);
  testbed.capture_snapshot("dram-domain-revert");

  util::Xoshiro256 rng(9);
  std::vector<FaultRecord> flips;
  for (int i = 0; i < 32; ++i) {
    flips.push_back(inject_dram_fault(rng, testbed.board().dram(),
                                      jh::kFreeRtosRamBase, 0x10'0000));
  }
  // Every flip is visible pre-restore (walk in reverse: the last write
  // to an address wins).
  for (auto it = flips.rbegin(); it != flips.rend(); ++it) {
    EXPECT_EQ(testbed.board().dram().read_u8(it->addr).value(), it->after);
    break;
  }

  ASSERT_TRUE(testbed.restore_snapshot());
  // The first flip at each address recorded the pristine byte; after
  // restore, that is exactly what must be there again.
  std::vector<std::uint64_t> seen;
  for (const FaultRecord& flip : flips) {
    bool first = true;
    for (const std::uint64_t addr : seen) first = first && addr != flip.addr;
    if (!first) continue;
    seen.push_back(flip.addr);
    EXPECT_EQ(testbed.board().dram().read_u8(flip.addr).value(), flip.before)
        << std::hex << flip.addr;
  }
}

// --- sweeps: resume byte-identity, and run logs against the oracle ----------

std::string render_sweep_report(const SweepResult& sweep) {
  std::vector<analysis::ComparisonColumn> columns;
  columns.reserve(sweep.cells.size());
  for (const SweepCellResult& cell : sweep.cells) {
    columns.push_back({cell.id, cell.aggregate});
  }
  return analysis::render_comparison_report(columns, "snapshot-sweep");
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

SweepSpec small_sweep(const std::string& log_dir) {
  SweepSpec spec;
  spec.scenarios = {"freertos-steady", "inject-during-boot"};
  spec.rates = {100, 50};
  spec.runs = 3;
  spec.duration_ticks = 1'500;
  spec.log_dir = log_dir;
  return spec;
}

TEST(SnapshotEquivalence, SweepResumeStaysByteIdenticalWithSnapshots) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "mcs_snapshot_sweep";
  std::filesystem::remove_all(dir);

  const ExecutorConfig warm{.threads = 2};
  SweepDriver driver(small_sweep(dir.string()), warm);
  auto first = driver.execute();
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  const std::string warm_report = render_sweep_report(first.value());

  // Interrupt: drop one cell's log mid-line, delete another's, then
  // resume with a different thread count — the resumed report must be
  // byte-identical, and untouched cells must resume via the fingerprint
  // path (not re-execute).
  const std::filesystem::path cut = dir / "freertos-steady_r50.runlog";
  {
    const std::string text = read_file(cut).substr(0, 40);
    std::ofstream out(cut, std::ios::trunc);
    out << text;
  }
  std::filesystem::remove(dir / "freertos-steady_r50.runlog.meta");
  std::filesystem::remove(dir / "inject-during-boot_r100.runlog");

  ExecutorConfig resumer = warm;
  resumer.threads = 4;
  SweepDriver resume_driver(small_sweep(dir.string()), resumer);
  auto resumed = resume_driver.execute();
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value().resumed, 2u);
  EXPECT_EQ(resumed.value().executed, 2u);
  EXPECT_EQ(render_sweep_report(resumed.value()), warm_report);

  // And every cell folded from the oracle's runs agrees byte for byte.
  SweepResult oracle = first.value();
  for (SweepCellResult& cell : oracle.cells) {
    cell.aggregate = fresh_campaign(cell.plan).aggregate;
  }
  EXPECT_EQ(render_sweep_report(oracle), warm_report);

  std::filesystem::remove_all(dir);
}

/// A five-domain rewind grid through SweepDriver at 2 and at 8 workers,
/// every cell's .runlog byte-compared with the oracle's run-log lines.
/// Runs decided against a golden suffix (the golden result, a ladder
/// jump) or on a panicked machine must leave each line as the whole
/// window would. At 8 workers each rewind key's share of the width is 2,
/// so workers also join groups already in progress.
void expect_run_logs_match_the_oracle(const std::string& spec_text,
                                      const std::string& dir_name) {
  auto spec = parse_sweep_spec(spec_text);
  ASSERT_TRUE(spec.is_ok()) << spec.status().to_string();
  auto grid = SweepDriver(spec.value()).expand();
  ASSERT_TRUE(grid.is_ok()) << grid.status().to_string();
  ASSERT_EQ(grid.value().size(), 30u);
  std::vector<std::string> want;
  for (const TestPlan& plan : grid.value()) {
    const CampaignExecutor oracle(plan);
    util::SplitMix64 seeds(plan.seed);
    std::string lines;
    for (std::uint32_t i = 0; i < plan.runs; ++i) {
      lines += run_log_line(i, oracle.execute_one(seeds.next())) + "\n";
    }
    want.push_back(std::move(lines));
  }

  const std::filesystem::path dir = std::filesystem::path(testing::TempDir()) / dir_name;
  for (const unsigned threads : {2u, 8u}) {
    std::filesystem::remove_all(dir);
    spec.value().log_dir = dir.string();
    auto swept = SweepDriver(spec.value(), {.threads = threads}).execute();
    ASSERT_TRUE(swept.is_ok()) << swept.status().to_string();
    ASSERT_EQ(swept.value().cells.size(), want.size());
    for (std::size_t c = 0; c < want.size(); ++c) {
      const SweepCellResult& cell = swept.value().cells[c];
      EXPECT_EQ(read_file(cell.log_path), want[c])
          << cell.id << " at " << threads << " workers";
    }
  }
  std::filesystem::remove_all(dir);
}

constexpr const char* kRewindGridSpec =
    "scenario freertos-steady inject-during-boot osek-cell\n"
    "rate 100 50\n"
    "domain register gic irq-delivery device-mmio dram\n"
    "runs 4\n";

TEST(SnapshotEquivalence, RewindGridRunLogsMatchTheOracleMidWindow) {
  // At the default window each point sits mid-window, before the first
  // injecting call.
  expect_run_logs_match_the_oracle(kRewindGridSpec, "mcs_rewind_grid");
}

TEST(SnapshotEquivalence, RewindGridRunLogsMatchTheOracleAtTheClose) {
  // At 2 000 ticks no run injects, so each point is the window close.
  expect_run_logs_match_the_oracle(std::string(kRewindGridSpec) + "duration 2000\n",
                                   "mcs_rewind_grid_close");
}

// --- rewind points -----------------------------------------------------------
//
// A slot's snapshot is the plan's rewind point: the latest tick boundary
// every run shares, up to the first injecting call. These plans put that
// call mid-window, so restored runs resume deep inside the window and
// then diverge by seed.

/// On the CPU 1 trap stream (~480, 730, 1 480, 1 980 ticks after window
/// open) call 4 injects, so the point sits after call 3.
TestPlan rewind_plan(const std::string& scenario, const std::string& board) {
  TestPlan plan = find_scenario(scenario)->make_plan();
  plan.board = board;
  plan.runs = 12;
  plan.duration_ticks = 3'000;
  plan.phase = 4;
  return plan;
}

struct ProvisionDelta {
  std::uint64_t resets = 0;
  std::uint64_t restores = 0;
  std::uint64_t captures = 0;
  std::uint64_t creates = 0;
};

/// Pool counters moved by `body`, on an emptied pool.
template <typename Body>
ProvisionDelta provisioning_of(Body&& body) {
  TestbedPool::instance().clear();
  const TestbedPool::Stats before = TestbedPool::instance().stats();
  body();
  const TestbedPool::Stats after = TestbedPool::instance().stats();
  return {after.run_resets - before.run_resets,
          after.run_restores - before.run_restores,
          after.captures - before.captures, after.creates - before.creates};
}

void expect_rewinds_identically(const TestPlan& plan, const std::string& label) {
  const CampaignCapture fresh = fresh_campaign(plan);
  for (const unsigned threads : {1u, 4u, 8u}) {
    expect_identical(fresh, run_campaign(plan, threads),
                     label + ", rewind points, " + std::to_string(threads) +
                         " threads");
  }
}

TEST(SnapshotEquivalence, RewindPointsMatchFreshEverywhere) {
  for (const std::string& scenario : ScenarioRegistry::instance().names()) {
    if (scenario.rfind("test-", 0) == 0) continue;  // suite-local fixtures
    for (const std::string& board : {std::string("bananapi"), std::string("quad-a7")}) {
      expect_rewinds_identically(rewind_plan(scenario, board),
                                 scenario + " on " + board);
    }
  }
}

TEST(SnapshotEquivalence, MidWindowRewindPointsAreExercised) {
  // The identity above is vacuous if runs fall back to reset + boot or
  // rewind only to window open: a flat window's learning run captures
  // twice (window open, then after call 3), every other run restores,
  // and the plan still reaches failure states after the point.
  const TestPlan plan = rewind_plan("freertos-steady", "bananapi");
  CampaignCapture warm;
  const ProvisionDelta delta =
      provisioning_of([&] { warm = run_campaign(plan, 1); });
  EXPECT_EQ(delta.resets, 1u);
  EXPECT_EQ(delta.captures, 2u);
  EXPECT_EQ(delta.restores, plan.runs - 1);
  const OutcomeDistribution dist = warm.result.distribution();
  EXPECT_GT(dist.total() - dist.count(Outcome::Correct), 0u)
      << "plan produced no failures; move the first injection earlier";
}

TEST(SnapshotEquivalence, InjectDuringBootRewindsWhenTheFirstInjectionIsLate) {
  // Boot-armed runs count two CPU 1 calls during boot; with call 4 the
  // first to inject, boot is fault-free and the runs become eligible.
  const TestPlan plan = rewind_plan("inject-during-boot", "bananapi");
  ASSERT_TRUE(find_scenario(plan.scenario)->arm_during_boot(plan));
  const ProvisionDelta delta =
      provisioning_of([&] { (void)run_campaign(plan, 1); });
  EXPECT_EQ(delta.resets, 1u);
  EXPECT_EQ(delta.restores, plan.runs - 1);
  expect_rewinds_identically(plan, "inject-during-boot, call 4");
}

TEST(SnapshotEquivalence, WindowClosingBeforeTheFirstInjectionRewindsToTheClose) {
  TestPlan plan = rewind_plan("freertos-steady", "bananapi");
  plan.phase = 1'000;  // the window holds ~6 CPU 1 traps
  CampaignCapture warm;
  const ProvisionDelta delta =
      provisioning_of([&] { warm = run_campaign(plan, 1); });
  EXPECT_EQ(delta.captures, 2u);  // window open, then the close
  EXPECT_EQ(delta.restores, plan.runs - 1);
  for (const RunResult& run : warm.result.runs) EXPECT_EQ(run.injections, 0u);
  expect_rewinds_identically(plan, "point at the close");
}

TEST(SnapshotEquivalence, PhaseOneHasNothingToStep) {
  TestPlan plan = rewind_plan("freertos-steady", "bananapi");
  plan.phase = 1;
  const ProvisionDelta delta =
      provisioning_of([&] { (void)run_campaign(plan, 1); });
  EXPECT_EQ(delta.captures, 1u);  // window open only
  EXPECT_EQ(delta.restores, plan.runs - 1);
  expect_rewinds_identically(plan, "phase 1");
}

TEST(SnapshotEquivalence, StructuredWindowsRewindToWindowOpen) {
  // ivshmem traffic and the time-shared dual-cell swap act inside the
  // window, so the executor never steps them: one capture per learning
  // run, at window open.
  for (const auto& [scenario, board] :
       {std::pair<std::string, std::string>{"ivshmem-traffic", "quad-a7"},
        std::pair<std::string, std::string>{"dual-cell", "bananapi"}}) {
    const TestPlan plan = rewind_plan(scenario, board);
    const ProvisionDelta delta =
        provisioning_of([&] { (void)run_campaign(plan, 1); });
    EXPECT_EQ(delta.captures, 1u) << scenario;
    EXPECT_EQ(delta.restores, plan.runs - 1) << scenario;
    expect_rewinds_identically(plan, scenario + " on " + board);
  }
}

TEST(SnapshotEquivalence, FiveFaultDomainsShareOneSlotAndOnePoint) {
  // The sweep's domain axis rides the tuning text; the domain never
  // reaches the machine, so all five cells share one slot and one
  // learning run, and each still matches its own fresh campaign.
  const std::vector<std::string> domains = {"register", "gic", "irq-delivery",
                                            "device-mmio", "dram"};
  std::vector<CampaignCapture> warm;
  const ProvisionDelta delta = provisioning_of([&] {
    for (const std::string& domain : domains) {
      TestPlan plan = rewind_plan("freertos-steady", "bananapi");
      plan.cell_tuning = "fault domain " + domain;
      warm.push_back(run_campaign(plan, 1));
    }
  });
  EXPECT_EQ(delta.creates, 1u);
  EXPECT_EQ(delta.resets, 1u);
  EXPECT_EQ(delta.restores, domains.size() * 12 - 1);
  for (std::size_t i = 0; i < domains.size(); ++i) {
    TestPlan plan = rewind_plan("freertos-steady", "bananapi");
    plan.cell_tuning = "fault domain " + domains[i];
    expect_identical(fresh_campaign(plan), warm[i], domains[i]);
  }
}

// --- pooled slots reset to power-on ------------------------------------------
//
// Slots are keyed by board, machine tuning, scenario and tick policy, not
// by plan: a run whose slot holds another plan's rewind point restores
// power-on (Testbed::reset restores the constructor's snapshot), sets up
// and boots on a slot other runs dirtied. These tests put runs on that
// path on purpose instead of leaving it to each worker's first run.

/// Another rewind key on the same slots: a later first injecting call, a
/// longer window and other seeds leave each slot holding another point
/// and the residue of other faults.
TestPlan dirtying_plan(TestPlan plan) {
  plan.phase = 3;
  plan.duration_ticks = 2'500;
  plan.seed ^= 0x5eed;
  return plan;
}

/// `plan`'s run `index` alone: SplitMix64 adds a fixed increment per
/// draw, so a plan seeded `index` increments later draws run `index`'s
/// seed first.
TestPlan single_run(TestPlan plan, std::uint32_t index) {
  plan.seed += index * 0x9e3779b97f4a7c15ULL;
  plan.runs = 1;
  return plan;
}

TEST(ReuseEquivalence, PooledMatchesFreshOnEveryScenarioBoardAndThreadCount) {
  // {scenario} × {board} × {1, 4, 8} threads: each width first runs the
  // dirtying plan, so the plan's first lease (the pool hands out the
  // slot released last) resets a slot holding another point, and the
  // campaign must still match its oracle.
  for (const std::string& scenario : ScenarioRegistry::instance().names()) {
    if (scenario.rfind("test-", 0) == 0) continue;  // suite-local fixtures
    for (const std::string& board : {std::string("bananapi"), std::string("quad-a7")}) {
      const TestPlan plan = snapshot_plan(scenario, board);
      const CampaignCapture fresh = fresh_campaign(plan);
      // A board that cannot host the scenario fails setup (a
      // HarnessError) before the pool counts the reset.
      const bool hosted =
          fresh.result.distribution().count(Outcome::HarnessError) == 0;
      for (const unsigned threads : {1u, 4u, 8u}) {
        const std::string label = scenario + " on " + board + ", " +
                                  std::to_string(threads) + " threads";
        (void)run_campaign(dirtying_plan(plan), threads);
        const TestbedPool::Stats before = TestbedPool::instance().stats();
        const CampaignCapture pooled = run_campaign(plan, threads);
        if (hosted) {
          EXPECT_GE(TestbedPool::instance().stats().run_resets,
                    before.run_resets + 1)
              << label;
        }
        expect_identical(fresh, pooled, label);
      }
    }
  }
}

TEST(ReuseEquivalence, PooledCampaignsExerciseFailingRuns) {
  // The identity above is only meaningful if the slots it resets carry
  // the residue of failed runs: the dirtying plan must fail runs too.
  const TestPlan plan = dirtying_plan(snapshot_plan("freertos-steady", "bananapi"));
  const OutcomeDistribution dist = run_campaign(plan, 1).result.distribution();
  EXPECT_GT(dist.total() - dist.count(Outcome::Correct), 0u)
      << "dirtying plan produced no failures; tighten rate/phase";
}

TEST(SnapshotEquivalence, RestoredMatchesPooledResetPerRun) {
  // Restored runs against the same runs each reset to power-on on one
  // pooled slot: every run is a campaign of its own, after a dirtying
  // run moved the slot's point, so none of them restores.
  for (const std::string& scenario :
       {std::string("freertos-steady"), std::string("osek-cell")}) {
    const TestPlan plan = snapshot_plan(scenario, "bananapi");
    CampaignCapture warm;
    const ProvisionDelta restored =
        provisioning_of([&] { warm = run_campaign(plan, 2); });
    EXPECT_GE(restored.restores, plan.runs - 2) << scenario;

    CampaignCapture per_run;
    analysis::LogSink sink;
    util::SplitMix64 seeds(plan.seed);
    const ProvisionDelta reset = provisioning_of([&] {
      for (std::uint32_t i = 0; i < plan.runs; ++i) {
        (void)run_campaign(single_run(dirtying_plan(plan), i), 1);
        const TestPlan one = single_run(plan, i);
        EXPECT_EQ(util::SplitMix64(one.seed).next(), seeds.next()) << i;
        per_run.result.runs.push_back(run_campaign(one, 1).result.runs.front());
        sink.record(i, per_run.result.runs.back());
      }
    });
    per_run.log_text = sink.text();
    per_run.aggregate = sink.aggregate();
    EXPECT_EQ(reset.creates, 1u) << scenario;
    EXPECT_EQ(reset.resets, 2 * plan.runs) << scenario;
    EXPECT_EQ(reset.restores, 0u) << scenario;
    expect_identical(per_run, warm, scenario + " reset per run vs restored");
  }
}

TEST(ReuseEquivalence, SweepResumeStaysByteIdenticalWithPooling) {
  // Resume re-executes its cells on slots another sweep parked (another
  // window, so another point): they reset to power-on, and the report
  // stays byte-identical to the first sweep's and to a sweep on an
  // emptied pool.
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "mcs_reuse_sweep";
  std::filesystem::remove_all(dir);

  auto first = SweepDriver(small_sweep(dir.string()), {.threads = 2}).execute();
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  const std::string report = render_sweep_report(first.value());

  // Interrupt: drop one cell's log mid-line with its sidecar, delete
  // another's.
  const std::filesystem::path cut = dir / "freertos-steady_r50.runlog";
  {
    const std::string text = read_file(cut).substr(0, 40);
    std::ofstream out(cut, std::ios::trunc);
    out << text;
  }
  std::filesystem::remove(dir / "freertos-steady_r50.runlog.meta");
  std::filesystem::remove(dir / "inject-during-boot_r100.runlog");

  SweepSpec other = small_sweep("");
  other.duration_ticks = 1'000;
  auto dirtied = SweepDriver(other, {.threads = 4}).execute();
  ASSERT_TRUE(dirtied.is_ok()) << dirtied.status().to_string();

  const TestbedPool::Stats before = TestbedPool::instance().stats();
  auto resumed = SweepDriver(small_sweep(dir.string()), {.threads = 4}).execute();
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value().resumed, 2u);
  EXPECT_EQ(resumed.value().executed, 2u);
  // Each re-executed cell's first lease holds the other sweep's point.
  EXPECT_GE(TestbedPool::instance().stats().run_resets, before.run_resets + 2);
  EXPECT_EQ(render_sweep_report(resumed.value()), report);

  TestbedPool::instance().clear();
  auto rebuilt =
      SweepDriver(small_sweep((dir / "rebuilt").string()), {.threads = 2}).execute();
  ASSERT_TRUE(rebuilt.is_ok()) << rebuilt.status().to_string();
  EXPECT_EQ(render_sweep_report(rebuilt.value()), report);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mcs::fi
