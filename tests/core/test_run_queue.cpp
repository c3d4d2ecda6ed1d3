// The run queue: its claim rule on hand-built group states, and the
// learning runs it saves when one worker set serves a whole sweep.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/executor.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "core/testbed_pool.hpp"

namespace mcs::fi {
namespace {

// --- the claim rule -----------------------------------------------------------

RunGroupCounters group(std::uint64_t runs, std::uint64_t claimed = 0,
                       unsigned workers = 0) {
  RunGroupCounters counters;
  counters.runs = runs;
  counters.claimed = claimed;
  counters.workers = workers;
  return counters;
}

TEST(RunQueueClaim, OwnGroupComesFirst) {
  // Group 2 has unclaimed runs and a worker; the unstarted group 1 and
  // group 0 wait for someone else.
  const std::vector<RunGroupCounters> groups = {group(20), group(20), group(20, 5, 1)};
  EXPECT_EQ(claim_run_group(groups, 2, 4), 2u);
}

TEST(RunQueueClaim, ThenTheFirstUnstartedGroupInPlanOrder) {
  // The worker's own group 0 is fully claimed; group 1 is started, groups
  // 2 and 3 are not.
  const std::vector<RunGroupCounters> groups = {group(20, 20, 1), group(20, 3, 1),
                                                group(20), group(20)};
  EXPECT_EQ(claim_run_group(groups, 0, 4), 2u);
  // Before its first claim a worker has no group of its own.
  EXPECT_EQ(claim_run_group(groups, kNoRunGroup, 4), 2u);
}

TEST(RunQueueClaim, StartedGroupsAreJoinedOnlyBelowTheirShare) {
  // 120 queued runs at width 8: a 20-run group's share is ⌈160 ⁄ 120⌉ = 2,
  // a 60-run group's ⌈480 ⁄ 120⌉ = 4.
  std::vector<RunGroupCounters> groups = {group(20, 20, 1), group(20, 4, 2),
                                          group(20, 4, 1), group(60, 10, 3)};
  EXPECT_EQ(claim_run_group(groups, 0, 8), 2u);
  groups[2].workers = 2;
  EXPECT_EQ(claim_run_group(groups, 0, 8), 3u);
  groups[3].workers = 4;
  EXPECT_EQ(claim_run_group(groups, 0, 8), kNoRunGroup);
  // At width 4 every 20-run group's share is one worker.
  const std::vector<RunGroupCounters> narrow = {group(20, 20, 1), group(20, 4, 1),
                                                group(80, 4, 1)};
  EXPECT_EQ(claim_run_group(narrow, 0, 4), 2u);  // share ⌈320 ⁄ 120⌉ = 3
}

TEST(RunQueueClaim, OnePlanAloneGetsTheWholeWidth) {
  const std::vector<RunGroupCounters> groups = {group(16, 3, 3)};
  EXPECT_EQ(claim_run_group(groups, kNoRunGroup, 4), 0u);
  const std::vector<RunGroupCounters> full = {group(16, 4, 4)};
  EXPECT_EQ(claim_run_group(full, kNoRunGroup, 4), kNoRunGroup);
}

TEST(RunQueueClaim, AtTheirSharesTheLongestBacklogIsJoinedWhileWorthALearningRun) {
  // Six 500-run groups at width 5: each share is ⌈2500 ⁄ 3000⌉ = 1 worker.
  // This worker has drained group 0; each open group has one worker. It
  // joins the group with the most unclaimed runs per worker, since its
  // learning run is worth those.
  std::vector<RunGroupCounters> groups = {group(500, 500, 1), group(500, 300, 1),
                                          group(500, 500, 1), group(500, 250, 1),
                                          group(500, 100, 1), group(500, 60, 1)};
  EXPECT_EQ(claim_run_group(groups, 0, 5), 5u);  // 440 unclaimed
  groups[5].workers = 2;                         // 220 per worker
  EXPECT_EQ(claim_run_group(groups, 0, 5), 4u);  // 400
  groups[4].workers = 2;                         // 200 per worker
  EXPECT_EQ(claim_run_group(groups, 0, 5), 3u);  // 250
  // Equal backlogs per worker go to the first in plan order.
  groups[3].claimed = 300;  // 200, like groups 1 and 4
  groups[5].workers = 3;    // 146 per worker
  EXPECT_EQ(claim_run_group(groups, 0, 5), 1u);
  // A backlog of kLearningRunCost runs per worker or fewer is not joined.
  // (Each 500-run group's share of 4 workers in 2000 runs is one.)
  const std::uint64_t at_cost = 500 - kLearningRunCost;
  const std::vector<RunGroupCounters> late = {group(1000, 1000, 1), group(500, at_cost, 1),
                                              group(500, 500 - 2 * kLearningRunCost, 2)};
  EXPECT_EQ(claim_run_group(late, 0, 4), kNoRunGroup);
  std::vector<RunGroupCounters> one_more = late;
  --one_more[2].claimed;
  EXPECT_EQ(claim_run_group(one_more, 0, 4), 2u);
}

TEST(RunQueueClaim, NothingClaimableStopsTheWorker) {
  EXPECT_EQ(claim_run_group({}, kNoRunGroup, 4), kNoRunGroup);
  const std::vector<RunGroupCounters> drained = {group(4, 4, 2), group(8, 8, 1)};
  EXPECT_EQ(claim_run_group(drained, 1, 4), kNoRunGroup);
  // Every open group is at its share (⌈20 × 3 ⁄ 60⌉ = 1) and holds too few
  // runs to be worth a learning run, as in a grid of 20-run groups like
  // CI's rewind spec.
  const std::vector<RunGroupCounters> at_share = {group(20, 20, 1), group(20, 2, 1),
                                                  group(20, 1, 1)};
  EXPECT_EQ(claim_run_group(at_share, 0, 3), kNoRunGroup);
}

// --- the queue ------------------------------------------------------------------

TestPlan short_plan(std::uint32_t runs) {
  TestPlan plan = find_scenario("freertos-steady")->make_plan();
  plan.runs = runs;
  plan.duration_ticks = 300;
  return plan;
}

TEST(RunQueue, OneWorkerRunsInTheCallersThreadInQueueOrder) {
  const CampaignExecutor first(short_plan(3));
  const CampaignExecutor second(short_plan(2));
  RunQueue queue({&first, &second}, 1);
  std::vector<std::pair<std::size_t, std::uint32_t>> order;
  bool callers_thread = true;
  const std::thread::id caller = std::this_thread::get_id();
  queue.execute([&](std::size_t plan, std::uint32_t index, RunResult) {
    order.emplace_back(plan, index);
    callers_thread = callers_thread && std::this_thread::get_id() == caller;
  });
  // Both plans share one rewind key, so they form one group in plan order.
  const std::vector<std::pair<std::size_t, std::uint32_t>> want = {
      {0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}};
  EXPECT_EQ(order, want);
  EXPECT_TRUE(callers_thread);
}

TEST(RunQueue, StopHandsOutNoFurtherRuns) {
  // Runs already started still report; nothing else is claimed.
  const CampaignExecutor executor(short_plan(12));
  for (const unsigned threads : {1u, 4u}) {
    RunQueue queue({&executor}, threads);
    unsigned results = 0;
    queue.execute([&](std::size_t, std::uint32_t, RunResult) {
      ++results;
      queue.stop();
    });
    EXPECT_GE(results, 1u) << threads << " workers";
    EXPECT_LE(results, threads) << threads << " workers";
  }
}

// --- learning runs across a sweep ----------------------------------------------

struct Provisioning {
  std::uint64_t resets = 0;
  std::uint64_t restores = 0;
  std::uint64_t creates = 0;
};

/// Pool counters moved by one in-memory sweep of `spec_text` at `threads`
/// workers, on an emptied pool.
Provisioning sweep_provisioning(const std::string& spec_text, unsigned threads) {
  auto spec = parse_sweep_spec(spec_text);
  EXPECT_TRUE(spec.is_ok()) << spec.status().to_string();
  TestbedPool::instance().clear();
  const TestbedPool::Stats before = TestbedPool::instance().stats();
  auto swept = SweepDriver(spec.value(), {.threads = threads}).execute();
  EXPECT_TRUE(swept.is_ok()) << swept.status().to_string();
  const TestbedPool::Stats after = TestbedPool::instance().stats();
  return {after.run_resets - before.run_resets,
          after.run_restores - before.run_restores, after.creates - before.creates};
}

// CI's rewind spec: 30 cells in 6 rewind keys (3 scenarios × 2 rates; the
// five domains share one key), 20 runs per key.
constexpr const char* kRewindGridSpec =
    "scenario freertos-steady inject-during-boot osek-cell\n"
    "rate 100 50\n"
    "domain register gic irq-delivery device-mmio dram\n"
    "runs 4\n";

TEST(RunQueueSweep, EachRewindKeyIsLearnedOnce) {
  // Each group's share at 2 or 4 workers is ⌈20 × width ⁄ 120⌉ = 1 and no
  // group's backlog outweighs a learning run, so one worker learns each
  // key and serves all its runs. Cell by cell, every worker learned every
  // key: 24 learning runs and 12 slots at 4 workers.
  for (const unsigned threads : {2u, 4u}) {
    const Provisioning provisioning = sweep_provisioning(kRewindGridSpec, threads);
    EXPECT_EQ(provisioning.resets, 6u) << threads << " workers";
    EXPECT_EQ(provisioning.restores, 114u) << threads << " workers";
    if (threads == 4) {
      // Each group is started once, by a worker holding one slot at a
      // time: four slots for the first four groups, then one or two for
      // the last two (one when the worker that takes the fifth group
      // also gets to the sixth, whose slot key is the same).
      EXPECT_LE(provisioning.creates, 6u);
    }
  }
}

TEST(RunQueueSweep, OneCellSweepGivesItsGroupTheWholeWidth) {
  // One group of 16 runs: its share at 4 workers is all 4, so each
  // worker's slot learns the key, as a cell-by-cell sweep did.
  const Provisioning provisioning = sweep_provisioning(
      "scenario freertos-steady\nrate 100\nruns 16\n", 4);
  EXPECT_EQ(provisioning.resets, 4u);
  EXPECT_EQ(provisioning.restores, 12u);
  EXPECT_EQ(provisioning.creates, 4u);
}

}  // namespace
}  // namespace mcs::fi
