#include "core/testbed_pool.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/scenario.hpp"
#include "util/alloc_observer.hpp"

namespace mcs::fi {
namespace {

const platform::BoardRegistry::Entry& bananapi_entry() {
  static const std::shared_ptr<const platform::BoardRegistry::Entry> entry =
      platform::BoardRegistry::instance().entry("bananapi");
  return *entry;
}

TEST(TestbedPool, AcquireBuildsThenReusesPerKey) {
  TestbedPool pool;
  Testbed* first = nullptr;
  {
    const TestbedLease lease = pool.acquire("bananapi", "", bananapi_entry());
    ASSERT_NE(lease.get(), nullptr);
    first = lease.get();
    EXPECT_EQ(pool.stats().creates, 1u);
  }
  // Released slot comes back for the same key…
  {
    const TestbedLease lease = pool.acquire("bananapi", "", bananapi_entry());
    EXPECT_EQ(lease.get(), first);
    EXPECT_EQ(pool.stats().reuses, 1u);

    // …while a concurrent checkout of the same key gets its own slot.
    const TestbedLease second = pool.acquire("bananapi", "", bananapi_entry());
    EXPECT_NE(second.get(), lease.get());
    EXPECT_EQ(pool.stats().creates, 2u);
  }
  EXPECT_EQ(pool.stats().idle_slots, 2u);
}

TEST(TestbedPool, DistinctTuningKeysGetDistinctSlots) {
  TestbedPool pool;
  Testbed* plain = nullptr;
  {
    const TestbedLease lease = pool.acquire("bananapi", "", bananapi_entry());
    plain = lease.get();
  }
  // A differently tuned campaign must not inherit the plain slot.
  const TestbedLease tuned =
      pool.acquire("bananapi", "ram 0x200000", bananapi_entry());
  EXPECT_NE(tuned.get(), plain);
  EXPECT_EQ(pool.stats().creates, 2u);
}

TEST(TestbedPool, ClearDropsIdleSlots) {
  TestbedPool pool;
  { const TestbedLease lease = pool.acquire("bananapi", "", bananapi_entry()); }
  ASSERT_EQ(pool.stats().idle_slots, 1u);
  pool.clear();
  EXPECT_EQ(pool.stats().idle_slots, 0u);
}

TEST(TestbedPool, MoveTransfersOwnership) {
  TestbedPool pool;
  TestbedLease a = pool.acquire("bananapi", "", bananapi_entry());
  Testbed* raw = a.get();
  TestbedLease b = std::move(a);
  EXPECT_EQ(b.get(), raw);
  b.release();
  EXPECT_EQ(pool.stats().idle_slots, 1u);
  b.release();  // idempotent
  EXPECT_EQ(pool.stats().idle_slots, 1u);
}

// The reuse contract's perf half: after warm-up, restoring a pooled
// testbed's power-on snapshot is pure state restoration — zero heap
// allocations (arena rewinds, capacity-keeping truncations, a shared
// config registry).
TEST(TestbedPool, SteadyStateResetPerformsZeroHeapAllocations) {
  TestbedPool pool;
  const TestbedLease lease = pool.acquire("bananapi", "", bananapi_entry());
  Testbed* testbed = lease.get();
  const Scenario* scenario = find_scenario("freertos-steady");
  ASSERT_NE(scenario, nullptr);
  const TestPlan plan = scenario->make_plan();

  // Warm-up: two full run shapes (reset → boot → window) so every lazily
  // grown buffer (DRAM pages, log capacity, kernel task vectors) reaches
  // its steady-state footprint.
  for (int i = 0; i < 2; ++i) {
    testbed->reset();
    ASSERT_TRUE(scenario->setup(*testbed).is_ok());
    scenario->boot(*testbed);
    testbed->run(200);
  }

  const util::AllocationObserver::Window window;
  testbed->reset();
  EXPECT_EQ(window.allocations(), 0u)
      << "Testbed::reset() must not touch the heap in steady state";
}

// The snapshot contract's perf half: once a slot has captured its
// post-boot snapshot and served one warm run, restoring for the next
// run is pure bulk copy — zero heap allocations on the capture→restore
// path (dirty pages rewrite in place, the run arena rewinds to the
// snapshot mark, vectors and deques reuse their capacity).
TEST(TestbedPool, SnapshotRestorePerformsZeroHeapAllocations) {
  TestbedPool pool;
  const TestbedLease lease = pool.acquire("bananapi", "", bananapi_entry());
  Testbed* testbed = lease.get();
  const Scenario* scenario = find_scenario("freertos-steady");
  ASSERT_NE(scenario, nullptr);

  // Warm-up: boot, capture, run, restore twice so every lazily grown
  // buffer reaches steady state with the snapshot resident.
  for (int i = 0; i < 2; ++i) {
    testbed->reset();
    ASSERT_TRUE(scenario->setup(*testbed).is_ok());
    scenario->boot(*testbed);
    testbed->capture_snapshot("zero-alloc-pin");
    testbed->run(200);
    ASSERT_TRUE(testbed->restore_snapshot());
    testbed->run(200);
    ASSERT_TRUE(testbed->restore_snapshot());
  }

  ASSERT_TRUE(testbed->has_snapshot("zero-alloc-pin"));
  ASSERT_GT(testbed->snapshot_bytes(), 0u);
  testbed->run(200);
  const util::AllocationObserver::Window window;
  ASSERT_TRUE(testbed->restore_snapshot());
  EXPECT_EQ(window.allocations(), 0u)
      << "restore_snapshot() must not touch the heap in steady state";
}

// The busy tick's half: a whole restored observation window of the
// FreeRTOS workload (no injector attached) is allocation-free once the
// slot has served one restored window — scheduler, IRQ poll, guest
// console lines and device ticks included.
TEST(TestbedPool, RestoredWindowPerformsZeroHeapAllocations) {
  TestbedPool pool;
  const TestbedLease lease = pool.acquire("bananapi", "", bananapi_entry());
  Testbed* testbed = lease.get();
  const Scenario* scenario = find_scenario("freertos-steady");
  ASSERT_NE(scenario, nullptr);
  const std::uint64_t window_ticks = scenario->make_plan().duration_ticks;

  testbed->reset();
  ASSERT_TRUE(scenario->setup(*testbed).is_ok());
  scenario->boot(*testbed);
  testbed->capture_snapshot("busy-tick-pin");
  ASSERT_TRUE(testbed->restore_snapshot());
  testbed->run(window_ticks);  // first restored window: buffers reach steady size
  ASSERT_TRUE(testbed->restore_snapshot());

  const std::uint64_t ticks_before = testbed->board().now().value;
  std::uint64_t allocations = 0;
  {
    const util::AllocationObserver::Window window;
    testbed->run(window_ticks);
    allocations = window.allocations();
  }
  EXPECT_EQ(testbed->board().now().value - ticks_before, window_ticks);
  EXPECT_EQ(allocations, 0u)
      << "a restored busy-tick window must not touch the heap";
}

// The rewind point's half: restoring a snapshot captured mid-window and
// running the rest of the window (no injector attached) is allocation-
// free once the slot has served one resumed window.
TEST(TestbedPool, MidWindowRewindPointRestorePerformsZeroHeapAllocations) {
  TestbedPool pool;
  const TestbedLease lease = pool.acquire("bananapi", "", bananapi_entry());
  Testbed* testbed = lease.get();
  const Scenario* scenario = find_scenario("freertos-steady");
  ASSERT_NE(scenario, nullptr);
  const std::uint64_t window_ticks = scenario->make_plan().duration_ticks;

  testbed->reset();
  ASSERT_TRUE(scenario->setup(*testbed).is_ok());
  scenario->boot(*testbed);
  const util::Ticks close = testbed->board().now() + util::Ticks{window_ticks};
  testbed->run(window_ticks * 4 / 5);
  RunPoint point;
  point.window_close = close.value;
  testbed->capture_snapshot("mid-window-pin", point);
  testbed->run_until(close);  // first resumed window: buffers reach steady size
  ASSERT_TRUE(testbed->restore_snapshot());
  testbed->run_until(close);

  std::uint64_t allocations = 0;
  {
    const util::AllocationObserver::Window window;
    ASSERT_TRUE(testbed->restore_snapshot());
    testbed->run_until(util::Ticks{testbed->snapshot().point.window_close});
    allocations = window.allocations();
  }
  EXPECT_EQ(testbed->board().now().value, close.value);
  EXPECT_EQ(allocations, 0u)
      << "restoring a mid-window rewind point and finishing the window "
         "must not touch the heap";
}

// The ladder's half: a run jumping to a golden-suffix rung (the rung
// restore, then the rest of the window) is allocation-free once the slot
// has made that jump once.
TEST(TestbedPool, LadderRungRestorePerformsZeroHeapAllocations) {
  TestbedPool pool;
  const TestbedLease lease = pool.acquire("bananapi", "", bananapi_entry());
  Testbed* testbed = lease.get();
  const Scenario* scenario = find_scenario("freertos-steady");
  ASSERT_NE(scenario, nullptr);
  const std::uint64_t window_ticks = scenario->make_plan().duration_ticks;

  testbed->reset();
  ASSERT_TRUE(scenario->setup(*testbed).is_ok());
  scenario->boot(*testbed);
  const util::Ticks close = testbed->board().now() + util::Ticks{window_ticks};
  testbed->run(window_ticks / 2);
  RunPoint point;
  point.window_close = close.value;
  testbed->capture_snapshot("ladder-pin", point);
  testbed->run(window_ticks / 4);  // the golden suffix: a rung, then the close
  ASSERT_TRUE(testbed->capture_rung(point));
  testbed->run_until(close);
  const auto jump = [testbed, close] {
    testbed->restore_rung(0);
    testbed->run_until(close);
  };
  ASSERT_TRUE(testbed->restore_snapshot());
  testbed->run(100);
  jump();  // first jump: buffers reach steady size

  ASSERT_TRUE(testbed->restore_snapshot());
  testbed->run(100);
  std::uint64_t allocations = 0;
  {
    const util::AllocationObserver::Window window;
    jump();
    allocations = window.allocations();
  }
  EXPECT_EQ(testbed->board().now().value, close.value);
  EXPECT_EQ(allocations, 0u)
      << "restoring a ladder rung and finishing the window must not touch "
         "the heap";
}

// Executor-level reuse: across two pooled campaigns on the same key,
// slot construction is bounded by the worker count — never by the run
// or campaign count — and everything beyond those constructions is
// served from warm slots. (Assertions are scheduling-independent: a
// fast worker may finish the whole shard before its sibling leases, so
// per-campaign create counts can legitimately be 1 or 2.)
TEST(TestbedPool, ExecutorReusesSlotsAcrossRunsAndCampaigns) {
  TestPlan plan = find_scenario("freertos-steady")->make_plan();
  plan.runs = 6;
  plan.duration_ticks = 300;
  // Isolate from slots other tests may have parked in the global pool.
  TestbedPool::instance().clear();
  const auto before = TestbedPool::instance().stats();

  ExecutorConfig config;
  config.threads = 2;
  config.probe_recovery = false;
  for (int campaign = 0; campaign < 2; ++campaign) {
    CampaignExecutor executor(plan, config);
    (void)executor.execute();
    plan.seed ^= 0x1234;
  }

  const auto after = TestbedPool::instance().stats();
  const std::uint64_t creates = after.creates - before.creates;
  const std::uint64_t acquires = after.acquires - before.acquires;
  const std::uint64_t reuses = after.reuses - before.reuses;
  // Leases are lazy (first claimed run), so a fast worker can drain a
  // shard alone: between 1 and `threads` acquires per campaign.
  EXPECT_GE(acquires, 2u);
  EXPECT_LE(acquires, 4u);
  EXPECT_GE(creates, 1u);
  EXPECT_LE(creates, 2u) << "constructions bounded by workers, not campaigns";
  EXPECT_EQ(reuses, acquires - creates);
  EXPECT_GE(reuses, 1u) << "the second campaign must start on a warm slot";
  EXPECT_LE(after.idle_slots, 2u);
}

// The oracle's fresh construction (execute_one) never touches the pool.
TEST(TestbedPool, FreshModeBypassesThePool) {
  TestPlan plan = find_scenario("freertos-steady")->make_plan();
  plan.duration_ticks = 200;
  const auto before = TestbedPool::instance().stats();
  const CampaignExecutor executor(plan, {.threads = 1, .probe_recovery = false});
  (void)executor.execute_one(1);
  (void)executor.execute_one(2);
  const auto after = TestbedPool::instance().stats();
  EXPECT_EQ(after.acquires, before.acquires);
  EXPECT_EQ(after.run_resets, before.run_resets);
  EXPECT_EQ(after.run_restores, before.run_restores);
}

TEST(TestbedPool, UnknownBoardStillReportsHarnessErrorPerRun) {
  TestPlan plan = find_scenario("freertos-steady")->make_plan();
  plan.board = "no-such-board";
  plan.runs = 2;
  CampaignExecutor executor(plan, {.threads = 1, .probe_recovery = false});
  const CampaignResult result = executor.execute();
  ASSERT_EQ(result.runs.size(), 2u);
  for (const RunResult& run : result.runs) {
    EXPECT_EQ(run.outcome, Outcome::HarnessError);
    EXPECT_NE(run.detail.find("no-such-board"), std::string::npos);
  }
}

TEST(TestbedPool, TuningBoardKeyOverridesPlanAndIsResolvedOnce) {
  TestPlan plan = find_scenario("freertos-steady")->make_plan();
  plan.board = "bananapi";
  plan.cell_tuning = "board quad-a7";
  CampaignExecutor executor(plan, {.threads = 1, .probe_recovery = false});
  EXPECT_EQ(executor.board_name(), "quad-a7");
}

}  // namespace
}  // namespace mcs::fi
