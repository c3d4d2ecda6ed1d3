#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <set>

namespace mcs::fi {
namespace {

TestPlan quick_plan(std::uint32_t runs) {
  TestPlan plan = paper_medium_trap_plan();
  plan.runs = runs;
  plan.duration_ticks = 1'500;
  plan.phase = 2;
  return plan;
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].outcome, b.runs[i].outcome) << i;
    EXPECT_EQ(a.runs[i].detail, b.runs[i].detail) << i;
    EXPECT_EQ(a.runs[i].injections, b.runs[i].injections) << i;
    EXPECT_EQ(a.runs[i].flipped_bits, b.runs[i].flipped_bits) << i;
    EXPECT_EQ(a.runs[i].first_injection_tick, b.runs[i].first_injection_tick) << i;
    EXPECT_EQ(a.runs[i].failure_tick, b.runs[i].failure_tick) << i;
    EXPECT_EQ(a.runs[i].detection_latency(), b.runs[i].detection_latency()) << i;
    EXPECT_EQ(a.runs[i].uart1_bytes, b.runs[i].uart1_bytes) << i;
    EXPECT_EQ(a.runs[i].shutdown_reclaimed, b.runs[i].shutdown_reclaimed) << i;
  }
}

// The acceptance bar of the engine: a 64-run campaign is bit-identical
// regardless of the worker count.
TEST(CampaignExecutor, SixtyFourRunsIdenticalAcrossOneTwoEightThreads) {
  const TestPlan plan = quick_plan(64);
  const CampaignResult serial = CampaignExecutor(plan, {.threads = 1}).execute();
  const CampaignResult two = CampaignExecutor(plan, {.threads = 2}).execute();
  const CampaignResult eight = CampaignExecutor(plan, {.threads = 8}).execute();
  expect_identical(serial, two);
  expect_identical(serial, eight);
}

// Sharding determinism is a property of the engine, not of one board:
// the same campaign on every registered board variant must stay
// bit-identical at 1, 4 and 8 worker threads.
TEST(CampaignExecutor, ShardingDeterministicOnEveryBoardVariant) {
  for (const char* board : {"bananapi", "quad-a7"}) {
    TestPlan plan = quick_plan(24);
    plan.board = board;
    const CampaignResult one = CampaignExecutor(plan, {.threads = 1}).execute();
    const CampaignResult four = CampaignExecutor(plan, {.threads = 4}).execute();
    const CampaignResult eight = CampaignExecutor(plan, {.threads = 8}).execute();
    SCOPED_TRACE(board);
    expect_identical(one, four);
    expect_identical(one, eight);
  }
}

TEST(CampaignExecutor, UnknownBoardIsAHarnessError) {
  TestPlan plan = quick_plan(2);
  plan.board = "hexa-a53";
  const CampaignResult result = CampaignExecutor(plan, {.threads = 2}).execute();
  ASSERT_EQ(result.runs.size(), 2u);
  for (const RunResult& run : result.runs) {
    EXPECT_EQ(run.outcome, Outcome::HarnessError);
    EXPECT_NE(run.detail.find("hexa-a53"), std::string::npos);
  }
}

TEST(CampaignExecutor, TuningBoardKeyOverridesPlanBoard) {
  // A plan pinned to the Banana Pi but tuned with `board quad-a7` must
  // run on the quad board — visible through the ivshmem-traffic setup,
  // which refuses boards without spare cores.
  TestPlan plan = quick_plan(1);
  plan.scenario = "ivshmem-traffic";
  plan.board = "bananapi";
  plan.cell_tuning = "board quad-a7";
  const CampaignResult result = CampaignExecutor(plan, {.threads = 1}).execute();
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_NE(result.runs[0].outcome, Outcome::HarnessError)
      << result.runs[0].detail;
}

TEST(CampaignExecutor, MatchesSerialCampaignClass) {
  const TestPlan plan = quick_plan(12);
  const CampaignResult via_campaign = Campaign(plan).execute();
  const CampaignResult via_executor = CampaignExecutor(plan, {.threads = 4}).execute();
  expect_identical(via_campaign, via_executor);
}

TEST(CampaignExecutor, ProgressFiresOncePerRunWithUniqueIndices) {
  const TestPlan plan = quick_plan(16);
  CampaignExecutor executor(plan, {.threads = 4});
  std::mutex mutex;
  std::set<std::uint32_t> seen;
  executor.set_progress([&](std::uint32_t index, const RunResult&) {
    const std::lock_guard<std::mutex> lock(mutex);
    EXPECT_TRUE(seen.insert(index).second) << "duplicate index " << index;
  });
  const CampaignResult result = executor.execute();
  EXPECT_EQ(result.runs.size(), 16u);
  EXPECT_EQ(seen.size(), 16u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 15u);
}

TEST(CampaignExecutor, SerialProgressArrivesInRunOrder) {
  CampaignExecutor executor(quick_plan(5), {.threads = 1});
  std::uint32_t expected = 0;
  executor.set_progress([&](std::uint32_t index, const RunResult&) {
    EXPECT_EQ(index, expected++);
  });
  (void)executor.execute();
  EXPECT_EQ(expected, 5u);
}

TEST(CampaignExecutor, ExecuteOneMatchesCampaignReplay) {
  const TestPlan plan = quick_plan(1);
  CampaignExecutor executor(plan, {.threads = 1});
  Campaign campaign(plan);
  const RunResult a = executor.execute_one(777);
  const RunResult b = campaign.execute_one(777);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.injections, b.injections);
  EXPECT_EQ(a.uart1_bytes, b.uart1_bytes);
}

TEST(CampaignExecutor, ProbeRecoveryOffLeavesReclaimUnset) {
  TestPlan plan = quick_plan(10);
  const CampaignResult result =
      CampaignExecutor(plan, {.threads = 2, .probe_recovery = false}).execute();
  for (const RunResult& run : result.runs) {
    EXPECT_FALSE(run.shutdown_reclaimed);
  }
}

TEST(CampaignExecutor, ZeroRunPlanYieldsEmptyResult) {
  const CampaignResult result =
      CampaignExecutor(quick_plan(0), {.threads = 4}).execute();
  EXPECT_TRUE(result.runs.empty());
  EXPECT_EQ(result.distribution().total(), 0u);
}

TEST(CampaignExecutor, RateZeroIsAHarnessErrorWithoutProvisioning) {
  // The injector's cadence divides by the rate; a zero rate must be
  // refused per run, before any testbed is leased or built.
  TestPlan plan = quick_plan(3);
  plan.rate = 0;
  const TestbedPool::Stats before = TestbedPool::instance().stats();
  const CampaignResult result = CampaignExecutor(plan, {.threads = 2}).execute();
  const TestbedPool::Stats after = TestbedPool::instance().stats();
  EXPECT_EQ(after.acquires, before.acquires);
  ASSERT_EQ(result.runs.size(), 3u);
  for (const RunResult& run : result.runs) {
    EXPECT_EQ(run.outcome, Outcome::HarnessError);
    EXPECT_EQ(run.detail, "rate must be ≥ 1");
  }
  const RunResult one = CampaignExecutor(plan, {.threads = 1}).execute_one(7);
  EXPECT_EQ(one.outcome, Outcome::HarnessError);
}

TEST(CampaignExecutor, ScenarioSelectionAffectsResults) {
  // inject-during-boot opens the management path to faults; with an early
  // phase the two scenarios must diverge somewhere over enough runs.
  TestPlan steady = quick_plan(10);
  TestPlan during_boot = quick_plan(10);
  during_boot.scenario = "inject-during-boot";
  during_boot.phase = 1;
  const CampaignResult a = CampaignExecutor(steady, {.threads = 2}).execute();
  const CampaignResult b = CampaignExecutor(during_boot, {.threads = 2}).execute();
  // Same seeds, different lifecycle: the injection lands in a different
  // frame, so at minimum the timing observables must diverge somewhere.
  bool any_difference = false;
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    if (a.runs[i].outcome != b.runs[i].outcome ||
        a.runs[i].injections != b.runs[i].injections ||
        a.runs[i].uart1_bytes != b.runs[i].uart1_bytes ||
        a.runs[i].first_injection_tick != b.runs[i].first_injection_tick) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace mcs::fi
