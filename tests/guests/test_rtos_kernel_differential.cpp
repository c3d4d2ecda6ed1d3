// Differential suite: rtos::Kernel's bitmask scheduler (ready mask,
// per-priority task masks, wake wheel) against the original linear-scan
// kernel kept in scan_kernel.hpp. Seeded random workloads drive both
// kernels through the same ticks, slices, suspends, resumes, delays and
// snapshot/restore points; after every step the two must have dispatched
// the same task and hold identical task, queue and clock state, and the
// bitmask kernel's derived sets must match its task states.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <tuple>

#include "core/testbed.hpp"
#include "guests/rtos/kernel.hpp"
#include "scan_kernel.hpp"
#include "util/rng.hpp"

namespace mcs::guest::rtos {
namespace {

using oracle::ScanKernel;

/// Delays cover the wheel's edge cases: 0 (fires next tick), short ones,
/// ones around the 64-slot wheel size, and ones spanning several laps.
std::uint64_t draw_delay(util::Xoshiro256& rng) {
  switch (rng.below(4)) {
    case 0: return 0;
    case 1: return 1 + rng.below(8);
    case 2: return 60 + rng.below(10);
    default: return 64 + rng.below(200);
  }
}

/// One dispatch of a random task body. Written once for both kernels;
/// each kernel owns a generator with the same seed, so as long as the
/// kernels dispatch identically they draw identical choices.
template <typename AnyKernel>
void random_step(AnyKernel& kernel, TaskId self, util::Xoshiro256& rng,
                 std::size_t queues) {
  const auto other = static_cast<TaskId>(rng.below(kernel.task_count()));
  switch (rng.below(10)) {
    case 0:
    case 1: kernel.delay(self, draw_delay(rng)); break;
    case 2: (void)kernel.queue_send(self, rng.below(queues),
                                    static_cast<std::uint32_t>(rng.next()));
      break;
    case 3: (void)kernel.queue_receive(self, rng.below(queues)); break;
    case 4: kernel.suspend(self); break;
    case 5: kernel.resume(other); break;
    case 6: kernel.delay(other, draw_delay(rng)); break;  // may refile a sleeper
    case 7: kernel.suspend(other); break;
    default: break;  // plain compute step
  }
}

::testing::AssertionResult same_state(const Kernel::Snapshot& got,
                                      const Kernel::Snapshot& want) {
  if (got.tick_count != want.tick_count || got.dispatches != want.dispatches ||
      got.rr_cursor != want.rr_cursor) {
    return ::testing::AssertionFailure()
           << "kernel: ticks " << got.tick_count << " vs " << want.tick_count
           << ", dispatches " << got.dispatches << " vs " << want.dispatches
           << ", cursor " << got.rr_cursor << " vs " << want.rr_cursor;
  }
  if (got.tasks.size() != want.tasks.size()) {
    return ::testing::AssertionFailure() << "task count differs";
  }
  for (std::size_t i = 0; i < got.tasks.size(); ++i) {
    const Kernel::Snapshot::TaskData& a = got.tasks[i];
    const Kernel::Snapshot::TaskData& b = want.tasks[i];
    if (a.state != b.state || a.wake_at != b.wake_at ||
        a.waiting_queue != b.waiting_queue ||
        a.waiting_for_space != b.waiting_for_space ||
        a.dispatches != b.dispatches || a.errors != b.errors) {
      return ::testing::AssertionFailure()
             << "task " << i << ": state " << static_cast<int>(a.state) << " vs "
             << static_cast<int>(b.state) << ", wake_at " << a.wake_at.value
             << " vs " << b.wake_at.value << ", dispatches " << a.dispatches
             << " vs " << b.dispatches;
    }
  }
  if (got.queues.size() != want.queues.size()) {
    return ::testing::AssertionFailure() << "queue count differs";
  }
  for (std::size_t q = 0; q < got.queues.size(); ++q) {
    const MessageQueue::Snapshot& a = got.queues[q];
    const MessageQueue::Snapshot& b = want.queues[q];
    if (a.items != b.items || a.sends != b.sends || a.receives != b.receives ||
        a.send_failures != b.send_failures) {
      return ::testing::AssertionFailure() << "queue " << q << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// (task count, seed)
class KernelDifferential
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(KernelDifferential, BitmaskSchedulerMatchesTheScanOracle) {
  const auto [task_count, seed] = GetParam();
  fi::Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  jh::GuestContext ctx(testbed.hypervisor(), testbed.hypervisor().root_cell(), 0);

  util::Xoshiro256 events(seed);
  util::Xoshiro256 kernel_rng(seed ^ 0x5eed);
  util::Xoshiro256 oracle_rng(seed ^ 0x5eed);
  Kernel kernel;
  ScanKernel oracle;

  const std::size_t queues = 1 + events.below(3);
  for (std::size_t q = 0; q < queues; ++q) {
    const std::size_t capacity = 1 + events.below(3);
    (void)kernel.create_queue(capacity);
    (void)oracle.create_queue(capacity);
  }
  // At least three priority levels (fewer only when there are fewer
  // tasks), including a sparse high value.
  constexpr std::array<unsigned, 5> kPriorities = {1, 2, 3, 7, 250};
  const std::size_t levels = 3 + events.below(3);
  for (std::size_t i = 0; i < task_count; ++i) {
    const unsigned priority = kPriorities[i < 3 ? i : events.below(levels)];
    const std::string name = std::to_string(i);
    ASSERT_EQ(kernel.add_task(name, priority,
                              [&kernel_rng, queues](TaskContext& t) {
                                random_step(t.kernel, t.self, kernel_rng, queues);
                              }),
              i);
    (void)oracle.add_task(name, priority,
                          [&oracle_rng, queues](ScanKernel& k, TaskId self) {
                            random_step(k, self, oracle_rng, queues);
                          });
  }

  Kernel::Snapshot kernel_saved;
  Kernel::Snapshot oracle_saved;
  bool saved = false;
  // Which of the cases this suite exists for the run reached.
  bool restored = false;
  bool suspended_blocked = false;
  bool blocked_sending = false;
  bool blocked_receiving = false;
  bool beyond_wheel = false;
  Kernel::Snapshot got;
  Kernel::Snapshot want;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t action = events.below(100);
    if (action < 30) {
      kernel.on_tick();
      oracle.on_tick();
    } else if (action < 75) {
      const std::optional<TaskId> ran = kernel.run_slice(ctx);
      ASSERT_EQ(ran, oracle.run_slice()) << "step " << step;
    } else if (action < 82) {
      const auto id = static_cast<TaskId>(events.below(task_count));
      suspended_blocked |= kernel.task(id).state == TaskState::BlockedOnDelay ||
                           kernel.task(id).state == TaskState::BlockedOnQueue;
      kernel.suspend(id);
      oracle.suspend(id);
    } else if (action < 92) {
      const auto id = static_cast<TaskId>(events.below(task_count));
      kernel.resume(id);
      oracle.resume(id);
    } else if (action < 94) {
      const auto id = static_cast<TaskId>(events.below(task_count));
      const std::uint64_t ticks = draw_delay(events);
      kernel.delay(id, ticks);
      oracle.delay(id, ticks);
    } else if (action < 96) {
      kernel.snapshot_to(kernel_saved);
      oracle.snapshot_to(oracle_saved);
      saved = true;
    } else if (action < 98) {
      if (saved) {
        kernel.restore_from(kernel_saved);
        oracle.restore_from(oracle_saved);
        restored = true;
      }
    } else {
      // A burst longer than the wheel: far sleepers pass their slot
      // once or more before they are due.
      for (int tick = 0; tick < 70; ++tick) {
        kernel.on_tick();
        oracle.on_tick();
      }
    }
    ASSERT_TRUE(kernel.invariants_hold()) << "step " << step;
    kernel.snapshot_to(got);
    oracle.snapshot_to(want);
    ASSERT_TRUE(same_state(got, want)) << "step " << step;
    for (const Kernel::Snapshot::TaskData& task : got.tasks) {
      const bool on_queue = task.state == TaskState::BlockedOnQueue;
      blocked_sending |= on_queue && task.waiting_for_space;
      blocked_receiving |= on_queue && !task.waiting_for_space;
      beyond_wheel |= task.state == TaskState::BlockedOnDelay &&
                      task.wake_at.value > got.tick_count + 64;
    }
  }
  EXPECT_GT(kernel.dispatches(), 0u);
  if (task_count >= 7) {  // small task sets need not reach every case
    EXPECT_TRUE(restored);
    EXPECT_TRUE(suspended_blocked);
    EXPECT_TRUE(blocked_sending);
    EXPECT_TRUE(blocked_receiving);
    EXPECT_TRUE(beyond_wheel);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TasksAndSeeds, KernelDifferential,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 7, 20, 33, 63, 64),
                       ::testing::Values<std::uint64_t>(1, 0xC0FFEE, 97)));

// The masks are 64 bits wide: a 65th task is refused in every build.
TEST(KernelCapacity, SixtyFifthTaskIsRejected) {
  Kernel kernel;
  for (std::size_t i = 0; i < Kernel::kMaxTasks; ++i) {
    ASSERT_EQ(kernel.add_task(std::to_string(i), static_cast<unsigned>(1 + i % 3),
                              [](TaskContext&) {}),
              i);
  }
  EXPECT_EQ(kernel.add_task("overflow", 1, [](TaskContext&) {}), kNoTask);
  EXPECT_EQ(kernel.task_count(), Kernel::kMaxTasks);
  EXPECT_TRUE(kernel.invariants_hold());
}

// A restore into a kernel whose state moved on rebuilds the derived sets
// from the restored states: a sleeper already due wakes on the next tick,
// a sleeper beyond the wheel waits for its own lap.
TEST(KernelWheel, RestoreRefilesSleepersFromTheirWakeTicks) {
  fi::Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  jh::GuestContext ctx(testbed.hypervisor(), testbed.hypervisor().root_cell(), 0);
  Kernel kernel;
  const TaskId near = kernel.add_task("near", 1, [](TaskContext&) {});
  const TaskId far = kernel.add_task("far", 2, [](TaskContext&) {});
  kernel.delay(near, 0);
  kernel.delay(far, 130);
  Kernel::Snapshot snapshot;
  kernel.snapshot_to(snapshot);

  for (int i = 0; i < 200; ++i) kernel.on_tick();  // both wake, then run on
  EXPECT_EQ(kernel.task(far).state, TaskState::Ready);
  kernel.restore_from(snapshot);
  ASSERT_TRUE(kernel.invariants_hold());
  EXPECT_EQ(kernel.task(near).state, TaskState::BlockedOnDelay);

  kernel.on_tick();
  EXPECT_EQ(kernel.task(near).state, TaskState::Ready);
  for (int tick = 1; tick < 130; ++tick) {
    ASSERT_EQ(kernel.task(far).state, TaskState::BlockedOnDelay) << tick;
    kernel.on_tick();
  }
  EXPECT_EQ(kernel.task(far).state, TaskState::Ready);
  EXPECT_EQ(kernel.run_slice(ctx), far);  // the higher priority
}

}  // namespace
}  // namespace mcs::guest::rtos
