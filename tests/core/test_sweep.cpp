#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/scenario.hpp"

namespace mcs::fi {
namespace {

// --- spec parsing -----------------------------------------------------------

TEST(SweepSpec, ParsesTheFullVocabulary) {
  auto parsed = parse_sweep_spec(
      "# the paper's grid\n"
      "sweep \"paper-grid\"\n"
      "scenario freertos-steady dual-cell\n"
      "scenario inject-during-boot\n"
      "rate 100 50\n"
      "board bananapi quad-a7\n"
      "runs 12\n"
      "seed 0xDEAD\n"
      "duration 30000\n"
      "tuning ram 0x200000; console trapped\n"
      "logdir sweep-logs\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const SweepSpec& spec = parsed.value();
  EXPECT_EQ(spec.name, "paper-grid");
  EXPECT_EQ(spec.scenarios,
            (std::vector<std::string>{"freertos-steady", "dual-cell",
                                      "inject-during-boot"}));
  EXPECT_EQ(spec.rates, (std::vector<std::uint32_t>{100, 50}));
  EXPECT_EQ(spec.boards, (std::vector<std::string>{"bananapi", "quad-a7"}));
  EXPECT_EQ(spec.runs, 12u);
  EXPECT_EQ(spec.seed, 0xDEADu);
  EXPECT_EQ(spec.duration_ticks, 30000u);
  EXPECT_EQ(spec.cell_tuning, "ram 0x200000\n console trapped");
  EXPECT_EQ(spec.log_dir, "sweep-logs");
  EXPECT_EQ(spec.cell_count(), 3u * 2u * 2u);
}

TEST(SweepSpec, DefaultsApplyWhenKeysAreOmitted) {
  auto parsed = parse_sweep_spec("scenario freertos-steady\nrate 100\n");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().name, "sweep");
  EXPECT_EQ(parsed.value().runs, 8u);
  EXPECT_TRUE(parsed.value().boards.empty());
  EXPECT_EQ(parsed.value().cell_count(), 1u);
}

TEST(SweepSpec, RejectsMalformedInput) {
  // Every rejection carries a line number or a grid-level explanation.
  EXPECT_FALSE(parse_sweep_spec("rate 100\n").is_ok());  // no scenario
  EXPECT_FALSE(parse_sweep_spec("scenario a\n").is_ok());  // no rate
  EXPECT_FALSE(parse_sweep_spec("scenario a\nrate 0\n").is_ok());
  EXPECT_FALSE(parse_sweep_spec("scenario a\nrate x\n").is_ok());
  EXPECT_FALSE(parse_sweep_spec("scenario a\nrate 100\nwibble 3\n").is_ok());
  EXPECT_FALSE(parse_sweep_spec("sweep unquoted\nscenario a\nrate 100\n").is_ok());
  EXPECT_FALSE(parse_sweep_spec("scenario a\nrate 100\nruns 0\n").is_ok());
  // Duplicated axis values would alias per-cell log files.
  EXPECT_FALSE(parse_sweep_spec("scenario a a\nrate 100\n").is_ok());
  EXPECT_FALSE(parse_sweep_spec("scenario a\nrate 100 100\n").is_ok());
  EXPECT_FALSE(
      parse_sweep_spec("scenario a\nrate 100\nboard b b\n").is_ok());
}

TEST(SweepSpec, RejectsRatesAndRunsAboveTheir32BitRange) {
  // Both are 32-bit in the plan: a larger value must be refused with its
  // line number, not wrapped into a different, valid-looking grid.
  const auto rejected = [](const std::string& text, const std::string& line) {
    auto parsed = parse_sweep_spec(text);
    EXPECT_EQ(parsed.status().code(), util::Code::EInval) << text;
    EXPECT_NE(parsed.status().to_string().find(line), std::string::npos)
        << parsed.status().to_string();
  };
  rejected("scenario a\nrate 4294967396\n", "line 2");
  rejected("scenario a\nrate 100 4294967296\n", "line 2");
  rejected("scenario a\nrate 100\nruns 4294967298\n", "line 3");

  auto widest =
      parse_sweep_spec("scenario a\nrate 4294967295\nruns 0xFFFFFFFF\n");
  ASSERT_TRUE(widest.is_ok()) << widest.status().to_string();
  EXPECT_EQ(widest.value().rates, (std::vector<std::uint32_t>{UINT32_MAX}));
  EXPECT_EQ(widest.value().runs, UINT32_MAX);
}

// --- grid expansion ---------------------------------------------------------

SweepSpec small_spec() {
  SweepSpec spec;
  spec.scenarios = {"freertos-steady", "inject-during-boot"};
  spec.rates = {100, 50};
  spec.runs = 3;
  spec.seed = 0xFEED;
  spec.duration_ticks = 2'000;
  return spec;
}

TEST(SweepDriver, ExpandsTheGridInFixedOrderWithDistinctSeeds) {
  SweepDriver driver(small_spec());
  auto plans = driver.expand();
  ASSERT_TRUE(plans.is_ok()) << plans.status().to_string();
  ASSERT_EQ(plans.value().size(), 4u);
  // Scenario-major, then rate: the order the comparison report columns use.
  EXPECT_EQ(plans.value()[0].name, "freertos-steady_r100");
  EXPECT_EQ(plans.value()[1].name, "freertos-steady_r50");
  EXPECT_EQ(plans.value()[2].name, "inject-during-boot_r100");
  EXPECT_EQ(plans.value()[3].name, "inject-during-boot_r50");
  std::set<std::uint64_t> seeds;
  for (const TestPlan& plan : plans.value()) {
    EXPECT_EQ(plan.runs, 3u);
    EXPECT_EQ(plan.duration_ticks, 2'000u);
    seeds.insert(plan.seed);
  }
  EXPECT_EQ(seeds.size(), 4u);  // every cell gets its own seed stream

  // The same spec expands to the same plans — cell seeds depend only on
  // grid position, which is what makes resume deterministic.
  auto again = SweepDriver(small_spec()).expand();
  ASSERT_TRUE(again.is_ok());
  for (std::size_t i = 0; i < plans.value().size(); ++i) {
    EXPECT_EQ(plans.value()[i].seed, again.value()[i].seed);
    EXPECT_EQ(plans.value()[i].name, again.value()[i].name);
  }
}

TEST(SweepDriver, BoardAxisOverridesTheScenarioDefault) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"freertos-steady"};
  spec.rates = {100};
  spec.boards = {"bananapi", "quad-a7"};
  auto plans = SweepDriver(spec).expand();
  ASSERT_TRUE(plans.is_ok()) << plans.status().to_string();
  ASSERT_EQ(plans.value().size(), 2u);
  EXPECT_EQ(plans.value()[0].name, "freertos-steady_r100_bananapi");
  EXPECT_EQ(plans.value()[1].name, "freertos-steady_r100_quad-a7");
  // The board rides the tuning vocabulary so it survives the executor's
  // tuning-overrides-plan precedence.
  EXPECT_NE(plans.value()[1].cell_tuning.find("board quad-a7"),
            std::string::npos);
}

TEST(SweepDriver, ExpandRejectsDuplicateAxisValues) {
  // Specs built from CLI flags or code never pass parse_sweep_spec, so
  // expand() must enforce the aliasing rule itself: duplicated axis
  // values collapse onto one cell id — and one log file.
  SweepSpec spec = small_spec();
  spec.scenarios = {"freertos-steady", "freertos-steady"};
  EXPECT_FALSE(SweepDriver(spec).expand().is_ok());

  spec = small_spec();
  spec.rates = {100, 100};
  EXPECT_FALSE(SweepDriver(spec).expand().is_ok());

  spec = small_spec();
  spec.boards = {"bananapi", "bananapi"};
  EXPECT_FALSE(SweepDriver(spec).expand().is_ok());
}

TEST(SweepDriver, RejectsUnknownScenarioAndBoardKeys) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"no-such-scenario"};
  EXPECT_FALSE(SweepDriver(spec).expand().is_ok());

  spec = small_spec();
  spec.boards = {"no-such-board"};
  const auto expanded = SweepDriver(spec).expand();
  ASSERT_FALSE(expanded.is_ok());
  EXPECT_NE(expanded.status().message().find("no-such-board"),
            std::string::npos);
}

// --- execution --------------------------------------------------------------

TEST(SweepDriver, ExecutesEveryCellAndFoldsTheTotals) {
  SweepDriver driver(small_spec(), {.threads = 2, .probe_recovery = true});
  auto swept = driver.execute();
  ASSERT_TRUE(swept.is_ok()) << swept.status().to_string();
  const SweepResult& result = swept.value();
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.executed, 4u);
  EXPECT_EQ(result.resumed, 0u);
  std::uint64_t runs = 0;
  for (const SweepCellResult& cell : result.cells) {
    EXPECT_FALSE(cell.resumed);
    EXPECT_TRUE(cell.log_path.empty());  // no logdir → nothing persisted
    EXPECT_EQ(cell.aggregate.distribution.total(), 3u);
    runs += cell.aggregate.distribution.total();
  }
  EXPECT_EQ(result.total.distribution.total(), runs);
}

TEST(SweepDriver, CellAggregatesAreBitIdenticalAcrossThreadCounts) {
  auto one = SweepDriver(small_spec(), {.threads = 1}).execute();
  auto four = SweepDriver(small_spec(), {.threads = 4}).execute();
  auto eight = SweepDriver(small_spec(), {.threads = 8}).execute();
  ASSERT_TRUE(one.is_ok() && four.is_ok() && eight.is_ok());
  for (const auto* other : {&four.value(), &eight.value()}) {
    ASSERT_EQ(one.value().cells.size(), other->cells.size());
    for (std::size_t i = 0; i < one.value().cells.size(); ++i) {
      const analysis::CampaignAggregate& a = one.value().cells[i].aggregate;
      const analysis::CampaignAggregate& b = other->cells[i].aggregate;
      for (std::size_t o = 0; o < kNumOutcomes; ++o) {
        EXPECT_EQ(a.distribution.count(static_cast<Outcome>(o)),
                  b.distribution.count(static_cast<Outcome>(o)));
      }
      EXPECT_EQ(a.injections, b.injections);
      EXPECT_EQ(a.cell_failures, b.cell_failures);
      EXPECT_EQ(a.reclaimed, b.reclaimed);
      EXPECT_EQ(a.detection_latency.n(), b.detection_latency.n());
      // Exact — not approximate — equality: the sink folds in run order,
      // so the floating-point accumulation is schedule-independent.
      EXPECT_EQ(a.detection_latency.mean(), b.detection_latency.mean());
      EXPECT_EQ(a.detection_latency.stddev(), b.detection_latency.stddev());
    }
  }
}

TEST(SweepDriver, CellLogPathJoinsDirAndStem) {
  EXPECT_EQ(SweepDriver::cell_log_path("logs", "a_r100"),
            "logs/a_r100.runlog");
}

// --- cell persistence primitives --------------------------------------------
// The shared substrate both the single-process driver and the
// distributed workers commit cells through: whole-file atomic renames,
// meta written only after the log, per-run hook for lease heartbeats.

TEST(CellPersistence, ExecuteCellCommitsLogThenMetaWithNoTempLitter) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "mcs_execute_cell";
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto plans = SweepDriver(small_spec()).expand();
  ASSERT_TRUE(plans.is_ok());
  const TestPlan& plan = plans.value().front();
  const std::string log_path =
      SweepDriver::cell_log_path(dir.string(), plan.name);

  // A stale sidecar from an earlier crash (meta present, log absent)
  // must be swept away, never trusted.
  { std::ofstream(cell_meta_path(log_path)) << "stale-fingerprint\n"; }

  std::uint32_t per_run_fires = 0;
  auto aggregate = execute_cell(plan, log_path, {.threads = 1}, "tagged",
                                [&per_run_fires](std::uint32_t) {
                                  ++per_run_fires;
                                });
  ASSERT_TRUE(aggregate.is_ok()) << aggregate.status().to_string();
  EXPECT_EQ(aggregate.value().distribution.total(), plan.runs);
  EXPECT_EQ(per_run_fires, plan.runs);  // the lease-heartbeat hook

  // Committed: log + matching fingerprint sidecar, nothing else.
  analysis::CampaignAggregate rebuilt;
  EXPECT_TRUE(cell_log_complete(plan, log_path, rebuilt));
  EXPECT_EQ(rebuilt.distribution.total(), plan.runs);
  std::ifstream meta(cell_meta_path(log_path));
  std::stringstream fingerprint;
  fingerprint << meta.rdbuf();
  EXPECT_EQ(fingerprint.str(), plan_fingerprint(plan));
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << "temp litter: " << entry.path();
  }
  fs::remove_all(dir);
}

TEST(CellPersistence, FingerprintPinsEveryResumeRelevantPlanField) {
  auto plans = SweepDriver(small_spec()).expand();
  ASSERT_TRUE(plans.is_ok());
  TestPlan plan = plans.value().front();
  const std::string base = plan_fingerprint(plan);

  TestPlan reseeded = plan;
  reseeded.seed ^= 1;
  EXPECT_NE(plan_fingerprint(reseeded), base);

  TestPlan longer = plan;
  longer.duration_ticks += 1;
  EXPECT_NE(plan_fingerprint(longer), base);

  TestPlan more_runs = plan;
  more_runs.runs += 1;
  EXPECT_NE(plan_fingerprint(more_runs), base);

  EXPECT_EQ(plan_fingerprint(plan), base);  // and it is a pure function
}

TEST(CellPersistence, MetaPathIsTheLogPathPlusMeta) {
  EXPECT_EQ(cell_meta_path("logs/a_r100.runlog"), "logs/a_r100.runlog.meta");
}

// Byte-for-byte regression pin: a register-domain plan must hash to the
// exact pre-domain-refactor fingerprint, so logdirs written before the
// unified injection layer resume instead of silently re-executing. Any
// edit that changes these bytes invalidates every existing sweep logdir
// — treat a failure here as an on-disk-format break, not a test to
// update casually.
TEST(CellPersistence, RegisterPlanFingerprintIsThePreDomainFormat) {
  TestPlan plan;
  plan.scenario = "freertos-steady";
  plan.board = "bananapi";
  plan.target = jh::HookPoint::ArchHandleTrap;
  plan.fault = FaultModelKind::SingleBitFlip;
  plan.fault_registers.clear();
  plan.fault_count = 2;
  plan.rate = 100;
  plan.phase = 0;
  plan.cpu_filter = -1;
  plan.duration_ticks = 2'000;
  plan.runs = 4;
  plan.seed = 7;
  plan.inject_during_boot = false;
  plan.cell_tuning.clear();
  EXPECT_EQ(plan_fingerprint(plan),
            "scenario freertos-steady\n"
            "board bananapi\n"
            "target 1\n"
            "fault 0\n"
            "fault_registers\n"
            "fault_count 2\n"
            "rate 100\n"
            "phase 0\n"
            "cpu_filter -1\n"
            "duration 2000\n"
            "runs 4\n"
            "seed 7\n"
            "inject_during_boot 0\n"
            "tuning \n");

  // A non-register domain appends exactly one line at the end — nothing
  // in the legacy prefix moves.
  plan.fault_domain = FaultDomain::Gic;
  EXPECT_EQ(plan_fingerprint(plan),
            "scenario freertos-steady\n"
            "board bananapi\n"
            "target 1\n"
            "fault 0\n"
            "fault_registers\n"
            "fault_count 2\n"
            "rate 100\n"
            "phase 0\n"
            "cpu_filter -1\n"
            "duration 2000\n"
            "runs 4\n"
            "seed 7\n"
            "inject_during_boot 0\n"
            "tuning \n"
            "domain gic\n");
}

// --- fault-domain axis -------------------------------------------------------

TEST(SweepSpec, ParsesTheDomainAxis) {
  auto parsed = parse_sweep_spec(
      "scenario freertos-steady\n"
      "rate 100\n"
      "domain register gic dram\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().domains,
            (std::vector<std::string>{"register", "gic", "dram"}));
  EXPECT_EQ(parsed.value().cell_count(), 3u);
  // Duplicated domain values would alias per-cell log files.
  EXPECT_FALSE(
      parse_sweep_spec("scenario a\nrate 100\ndomain gic gic\n").is_ok());
}

TEST(SweepSpec, DomainAxisRoundTripsThroughRender) {
  SweepSpec spec = small_spec();
  spec.domains = {"gic", "irq-delivery"};
  auto parsed = parse_sweep_spec(render_sweep_spec(spec));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().domains, spec.domains);
  EXPECT_EQ(parsed.value().cell_count(), spec.cell_count());
}

TEST(SweepDriver, DomainAxisOverridesThePlanDefault) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"freertos-steady"};
  spec.rates = {100};
  spec.domains = {"register", "gic", "dram"};
  auto plans = SweepDriver(spec).expand();
  ASSERT_TRUE(plans.is_ok()) << plans.status().to_string();
  ASSERT_EQ(plans.value().size(), 3u);
  EXPECT_EQ(plans.value()[0].name, "freertos-steady_r100_register");
  EXPECT_EQ(plans.value()[0].fault_domain, FaultDomain::Register);
  EXPECT_EQ(plans.value()[1].name, "freertos-steady_r100_gic");
  EXPECT_EQ(plans.value()[1].fault_domain, FaultDomain::Gic);
  EXPECT_EQ(plans.value()[2].name, "freertos-steady_r100_dram");
  EXPECT_EQ(plans.value()[2].fault_domain, FaultDomain::Dram);
  // The domain rides the tuning vocabulary like the board axis, so it
  // survives the executor's tuning-overrides-plan precedence.
  EXPECT_NE(plans.value()[1].cell_tuning.find("fault domain gic"),
            std::string::npos);
}

TEST(SweepDriver, EmptyDomainAxisKeepsLegacyCellIdsAndSeeds) {
  // No domain axis → cell ids and per-cell seeds are exactly what the
  // pre-domain driver dealt: old logdirs keep resuming.
  auto legacy = SweepDriver(small_spec()).expand();
  ASSERT_TRUE(legacy.is_ok());
  EXPECT_EQ(legacy.value()[0].name, "freertos-steady_r100");
  for (const TestPlan& plan : legacy.value()) {
    EXPECT_EQ(plan.fault_domain, FaultDomain::Register);
    EXPECT_EQ(plan.cell_tuning.find("fault domain"), std::string::npos);
  }
}

TEST(SweepDriver, RejectsUnknownDomainNames) {
  SweepSpec spec = small_spec();
  spec.domains = {"no-such-domain"};
  const auto expanded = SweepDriver(spec).expand();
  ASSERT_FALSE(expanded.is_ok());
  EXPECT_NE(expanded.status().message().find("no-such-domain"),
            std::string::npos);
}

TEST(SweepDriver, DomainCellAggregatesAreBitIdenticalAcrossThreadCounts) {
  SweepSpec spec;
  spec.scenarios = {"freertos-steady"};
  spec.rates = {100};
  spec.domains = {"gic", "irq-delivery", "device-mmio", "dram"};
  spec.runs = 3;
  spec.seed = 0xD0;
  spec.duration_ticks = 2'000;
  auto one = SweepDriver(spec, {.threads = 1}).execute();
  auto four = SweepDriver(spec, {.threads = 4}).execute();
  auto eight = SweepDriver(spec, {.threads = 8}).execute();
  ASSERT_TRUE(one.is_ok() && four.is_ok() && eight.is_ok());
  for (const auto* other : {&four.value(), &eight.value()}) {
    ASSERT_EQ(one.value().cells.size(), other->cells.size());
    for (std::size_t i = 0; i < one.value().cells.size(); ++i) {
      const analysis::CampaignAggregate& a = one.value().cells[i].aggregate;
      const analysis::CampaignAggregate& b = other->cells[i].aggregate;
      for (std::size_t o = 0; o < kNumOutcomes; ++o) {
        EXPECT_EQ(a.distribution.count(static_cast<Outcome>(o)),
                  b.distribution.count(static_cast<Outcome>(o)));
      }
      EXPECT_EQ(a.injections, b.injections);
      EXPECT_EQ(a.injections_by_domain, b.injections_by_domain);
      EXPECT_EQ(a.detection_latency.mean(), b.detection_latency.mean());
    }
  }
  // Every non-register cell attributed its injections to its own domain.
  for (std::size_t i = 0; i < spec.domains.size(); ++i) {
    const analysis::CampaignAggregate& agg = one.value().cells[i].aggregate;
    FaultDomain domain;
    ASSERT_TRUE(fault_domain_from_name(spec.domains[i], domain));
    EXPECT_EQ(agg.injections_by_domain[static_cast<std::size_t>(domain)],
              agg.injections);
  }
}

}  // namespace
}  // namespace mcs::fi
