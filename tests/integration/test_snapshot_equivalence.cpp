// Snapshot equivalence for the warm-start campaign executor.
//
// Boot-once/restore-per-run may only ever be an *optimisation*: a
// campaign whose runs are provisioned by TestbedSnapshot restore must be
// bit-identical to the same campaign on build-per-run fresh construction
// and on checkout/reset-per-run pooling — same run-log lines, same
// outcomes and details, same aggregates — on every scenario, every board
// variant and every thread count. This suite pins that, checks the
// restore path is actually exercised (not silently falling back to
// reset + boot), and pins the sweep driver's interrupt/resume
// byte-identity with snapshots on and off.
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

enum class Mode { Fresh, Pooled, Snapshot };

CampaignCapture run_campaign(const TestPlan& plan, Mode mode, unsigned threads) {
  CampaignCapture capture;
  ExecutorConfig config;
  config.threads = threads;
  config.tick_policy = jh::TickPolicy::EventDriven;
  config.reuse_testbeds = mode != Mode::Fresh;
  config.use_snapshots = mode == Mode::Snapshot;
  CampaignExecutor executor(plan, config);
  analysis::LogSink sink;
  executor.set_progress([&sink](std::uint32_t index, const RunResult& run) {
    sink.record(index, run);
  });
  capture.result = executor.execute();
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
  // {scenario} × {board} × {1, 4, 8} threads. The fresh baseline is the
  // serial build-per-run engine; thread-count independence of the fresh
  // path is pinned by the tick-equivalence suite, so one baseline per
  // (scenario, board) suffices.
  for (const std::string& scenario : ScenarioRegistry::instance().names()) {
    if (scenario.rfind("test-", 0) == 0) continue;  // suite-local fixtures
    for (const std::string& board : {std::string("bananapi"), std::string("quad-a7")}) {
      const TestPlan plan = snapshot_plan(scenario, board);
      const CampaignCapture fresh = run_campaign(plan, Mode::Fresh, 1);
      for (const unsigned threads : {1u, 4u, 8u}) {
        const CampaignCapture warm = run_campaign(plan, Mode::Snapshot, threads);
        expect_identical(fresh, warm,
                         scenario + " on " + board + ", " +
                             std::to_string(threads) + " threads");
      }
    }
  }
}

TEST(SnapshotEquivalence, RestoredMatchesPooledResetPerRun) {
  // The two warm modes must agree with each other too (they share slots
  // only within a mode: snapshot slots carry the scenario in their key).
  for (const std::string& scenario :
       {std::string("freertos-steady"), std::string("osek-cell")}) {
    const TestPlan plan = snapshot_plan(scenario, "bananapi");
    const CampaignCapture pooled = run_campaign(plan, Mode::Pooled, 2);
    const CampaignCapture warm = run_campaign(plan, Mode::Snapshot, 2);
    expect_identical(pooled, warm, scenario + " pooled vs snapshot");
  }
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
  (void)run_campaign(plan, Mode::Snapshot, 1);
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
  (void)run_campaign(plan, Mode::Snapshot, 1);
  const TestbedPool::Stats after = TestbedPool::instance().stats();
  EXPECT_EQ(after.run_restores, before.run_restores);
  EXPECT_GE(after.run_resets, before.run_resets + plan.runs);
}

TEST(SnapshotEquivalence, SnapshotCampaignsExerciseFailingRuns) {
  // The identity is only meaningful if the plans actually reach the
  // failure states whose residue a bad restore would leak.
  const TestPlan plan = snapshot_plan("freertos-steady", "bananapi");
  const CampaignCapture warm = run_campaign(plan, Mode::Snapshot, 1);
  const OutcomeDistribution dist = warm.result.distribution();
  EXPECT_GT(dist.total() - dist.count(Outcome::Correct), 0u)
      << "plan produced no failures; tighten rate/phase";
}

TEST(SnapshotEquivalence, DomainFaultCampaignsRestoreIdentically) {
  // The unified injection layer: every non-register fault domain, fresh
  // build-per-run baseline vs snapshot restore at {1, 4, 8} threads. A
  // restore that leaked injected GIC/device/DRAM state into the next run
  // breaks the bit-identity here.
  for (const auto domain : {FaultDomain::Gic, FaultDomain::IrqDelivery,
                            FaultDomain::DeviceMmio, FaultDomain::Dram}) {
    TestPlan plan = snapshot_plan("freertos-steady", "bananapi");
    plan.fault_domain = domain;
    const std::string label(fault_domain_name(domain));
    const CampaignCapture fresh = run_campaign(plan, Mode::Fresh, 1);
    for (const unsigned threads : {1u, 4u, 8u}) {
      const CampaignCapture warm = run_campaign(plan, Mode::Snapshot, threads);
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
  const CampaignCapture a = run_campaign(direct, Mode::Fresh, 1);
  const CampaignCapture b = run_campaign(tuned, Mode::Fresh, 1);
  EXPECT_EQ(a.log_text, b.log_text);
  EXPECT_NE(a.log_text.find("domain=gic"), std::string::npos);

  // An unknown domain name in the tuning is a HarnessError, not UB.
  TestPlan bad = snapshot_plan("freertos-steady", "bananapi");
  bad.cell_tuning = "fault domain warp-core";
  const CampaignCapture broken = run_campaign(bad, Mode::Fresh, 1);
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

// --- sweep resume byte-identity with snapshots on and off -------------------

std::string render_sweep_report(const SweepResult& sweep) {
  std::vector<analysis::ComparisonColumn> columns;
  columns.reserve(sweep.cells.size());
  for (const SweepCellResult& cell : sweep.cells) {
    columns.push_back({cell.id, cell.aggregate});
  }
  return analysis::render_comparison_report(columns, "snapshot-sweep");
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

  ExecutorConfig warm;
  warm.threads = 2;
  warm.reuse_testbeds = true;
  warm.use_snapshots = true;

  SweepDriver driver(small_sweep(dir.string()), warm);
  auto first = driver.execute();
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  const std::string warm_report = render_sweep_report(first.value());

  // Interrupt: drop one cell's log mid-line, delete another's, then
  // resume with a different thread count — the resumed report must be
  // byte-identical, and untouched cells must resume via the fingerprint
  // path (not re-execute).
  const std::string cut = (dir / "freertos-steady_r50.runlog").string();
  {
    std::ifstream in(cut);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str().substr(0, 40);
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

  // The same sweep with snapshots off agrees byte for byte.
  const std::filesystem::path nosnap_dir = dir / "nosnap";
  ExecutorConfig nosnap = warm;
  nosnap.use_snapshots = false;
  SweepDriver nosnap_driver(small_sweep(nosnap_dir.string()), nosnap);
  auto plain = nosnap_driver.execute();
  ASSERT_TRUE(plain.is_ok()) << plain.status().to_string();
  EXPECT_EQ(render_sweep_report(plain.value()), warm_report);

  std::filesystem::remove_all(dir);
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
  const CampaignCapture fresh = run_campaign(plan, Mode::Fresh, 1);
  expect_identical(fresh, run_campaign(plan, Mode::Pooled, 1),
                   label + ", reset per run");
  for (const unsigned threads : {1u, 4u, 8u}) {
    expect_identical(fresh, run_campaign(plan, Mode::Snapshot, threads),
                     label + ", rewind points, " + std::to_string(threads) +
                         " threads");
  }
}

TEST(SnapshotEquivalence, RewindPointsMatchFreshAndResetPerRunEverywhere) {
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
      provisioning_of([&] { warm = run_campaign(plan, Mode::Snapshot, 1); });
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
      provisioning_of([&] { (void)run_campaign(plan, Mode::Snapshot, 1); });
  EXPECT_EQ(delta.resets, 1u);
  EXPECT_EQ(delta.restores, plan.runs - 1);
  expect_rewinds_identically(plan, "inject-during-boot, call 4");
}

TEST(SnapshotEquivalence, WindowClosingBeforeTheFirstInjectionRewindsToTheClose) {
  TestPlan plan = rewind_plan("freertos-steady", "bananapi");
  plan.phase = 1'000;  // the window holds ~6 CPU 1 traps
  CampaignCapture warm;
  const ProvisionDelta delta =
      provisioning_of([&] { warm = run_campaign(plan, Mode::Snapshot, 1); });
  EXPECT_EQ(delta.captures, 2u);  // window open, then the close
  EXPECT_EQ(delta.restores, plan.runs - 1);
  for (const RunResult& run : warm.result.runs) EXPECT_EQ(run.injections, 0u);
  expect_rewinds_identically(plan, "point at the close");
}

TEST(SnapshotEquivalence, PhaseOneHasNothingToStep) {
  TestPlan plan = rewind_plan("freertos-steady", "bananapi");
  plan.phase = 1;
  const ProvisionDelta delta =
      provisioning_of([&] { (void)run_campaign(plan, Mode::Snapshot, 1); });
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
        provisioning_of([&] { (void)run_campaign(plan, Mode::Snapshot, 1); });
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
      warm.push_back(run_campaign(plan, Mode::Snapshot, 1));
    }
  });
  EXPECT_EQ(delta.creates, 1u);
  EXPECT_EQ(delta.resets, 1u);
  EXPECT_EQ(delta.restores, domains.size() * 12 - 1);
  for (std::size_t i = 0; i < domains.size(); ++i) {
    TestPlan plan = rewind_plan("freertos-steady", "bananapi");
    plan.cell_tuning = "fault domain " + domains[i];
    expect_identical(run_campaign(plan, Mode::Fresh, 1), warm[i], domains[i]);
  }
}

}  // namespace
}  // namespace mcs::fi
