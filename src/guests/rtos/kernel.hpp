// Mini-RTOS kernel: priority-preemptive scheduler with delays and
// blocking queues — the FreeRTOS stand-in for the non-root cell.
//
// The kernel is deliberately a *functional* model: one `run_slice()` call
// dispatches one task step, and `on_tick()` is the tick-interrupt hook.
// That is all the paper's workload needs ("several tasks to be managed,
// including a task to blink an onboard led, a couple of send/receive
// tasks, two floating-point arithmetic tasks, and fifteen integer ones",
// §III) while keeping every scheduling decision deterministic.
//
// Both hooks run on every busy board tick, so neither scans the task
// table: the kernel keeps derived sets (a ready bitmask, one fixed task
// mask per priority, and a 64-slot wake wheel of delayed tasks) up to
// date as tasks change state. The sets are never snapshotted; every
// state change goes through the kernel's one private setter, and
// restore_from() rebuilds them from the task states.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "guests/rtos/queue.hpp"
#include "guests/rtos/task.hpp"
#include "hypervisor/guest.hpp"
#include "util/clock.hpp"

namespace mcs::guest::rtos {

/// Services available to a running task step.
struct TaskContext {
  Kernel& kernel;
  jh::GuestContext& guest;  ///< the vCPU window (console, LED, hypercalls)
  TaskId self;
};

class Kernel {
 public:
  Kernel() = default;

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Task-table capacity: one bit per task in the scheduler's masks.
  static constexpr std::size_t kMaxTasks = 64;

  // --- task API (xTaskCreate / vTaskDelay analogues) ---------------------
  /// Returns kNoTask (and adds nothing) when kMaxTasks tasks exist.
  TaskId add_task(std::string name, unsigned priority, TaskStep step);

  /// Block the calling task for `ticks` tick-interrupts.
  void delay(TaskId task, std::uint64_t ticks);

  void suspend(TaskId task);
  void resume(TaskId task);

  // --- queue API (xQueueCreate / Send / Receive analogues) ---------------
  QueueId create_queue(std::size_t capacity);

  /// Send, blocking the caller when the queue is full.
  bool queue_send(TaskId task, QueueId queue, std::uint32_t item);

  /// Receive; blocks the caller (and returns nullopt) when empty.
  std::optional<std::uint32_t> queue_receive(TaskId task, QueueId queue);

  // --- scheduler ---------------------------------------------------------
  /// Tick interrupt: advances kernel time, wakes expired delays.
  void on_tick();

  /// Dispatch the highest-priority ready task for one step.
  /// Returns the task dispatched, or nullopt when all tasks are idle.
  std::optional<TaskId> run_slice(jh::GuestContext& guest);

  // --- introspection ------------------------------------------------------
  [[nodiscard]] const Task& task(TaskId id) const { return tasks_.at(id); }
  [[nodiscard]] std::size_t task_count() const noexcept { return tasks_.size(); }
  [[nodiscard]] const MessageQueue& queue(QueueId id) const { return *queues_.at(id); }
  [[nodiscard]] std::uint64_t ticks() const noexcept { return tick_count_; }
  [[nodiscard]] std::uint64_t dispatches() const noexcept { return dispatches_; }
  [[nodiscard]] std::optional<TaskId> find_task(std::string_view name) const;

  /// Scheduler invariant checks (used by the property tests): no Running
  /// residue between slices; blocked tasks have a wake reason; the
  /// derived ready/priority/wheel sets match the task states exactly.
  [[nodiscard]] bool invariants_hold() const noexcept;

  // --- snapshot / restore (testbed warm-start) --------------------------
  /// Tasks and queues are created only during guest start-up (pre-capture)
  /// and never removed mid-run, so the snapshot stores per-task/queue
  /// mutable fields by index plus the captured counts. Restore truncates
  /// back to those counts and rewinds the mutable fields in place — task
  /// identity (name, priority, step closure) is never copied.
  struct Snapshot {
    struct TaskData {
      TaskState state = TaskState::Ready;
      util::Ticks wake_at{};
      std::size_t waiting_queue = 0;
      bool waiting_for_space = false;
      std::uint64_t dispatches = 0;
      std::uint64_t errors = 0;
    };
    std::vector<TaskData> tasks;
    std::vector<MessageQueue::Snapshot> queues;
    std::uint64_t tick_count = 0;
    std::uint64_t dispatches = 0;
    std::size_t rr_cursor = static_cast<std::size_t>(-1);
  };

  void snapshot_to(Snapshot& out) const {
    out.tasks.resize(tasks_.size());
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const Task& task = tasks_[i];
      out.tasks[i] = {task.state,         task.wake_at,    task.waiting_queue,
                      task.waiting_for_space, task.dispatches, task.errors};
    }
    out.queues.resize(queues_.size());
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      queues_[i]->snapshot_to(out.queues[i]);
    }
    out.tick_count = tick_count_;
    out.dispatches = dispatches_;
    out.rr_cursor = rr_cursor_;
  }

  void restore_from(const Snapshot& snapshot) {
    if (tasks_.size() > snapshot.tasks.size()) tasks_.resize(snapshot.tasks.size());
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const Snapshot::TaskData& data = snapshot.tasks[i];
      Task& task = tasks_[i];
      task.state = data.state;
      task.wake_at = data.wake_at;
      task.waiting_queue = data.waiting_queue;
      task.waiting_for_space = data.waiting_for_space;
      task.dispatches = data.dispatches;
      task.errors = data.errors;
    }
    if (queues_.size() > snapshot.queues.size()) queues_.resize(snapshot.queues.size());
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      queues_[i]->restore_from(snapshot.queues[i]);
    }
    tick_count_ = snapshot.tick_count;
    dispatches_ = snapshot.dispatches;
    rr_cursor_ = snapshot.rr_cursor;
    rebuild_sets();
  }

 private:
  static constexpr std::size_t kWheelSlots = 64;

  /// Tasks sharing one priority; fixed once the task is added.
  struct PriorityClass {
    unsigned priority = 0;
    std::uint64_t tasks = 0;
  };

  /// Wake every task blocked on `queue` (space or data became available).
  void wake_queue_waiters(QueueId queue, bool for_space);

  /// The one place a task's state changes: moves the task between the
  /// ready mask and the wake wheel as its state leaves and enters them.
  void set_state(TaskId id, TaskState next);

  /// File a delayed task under the tick on_tick() will find it due.
  void file_delayed(TaskId id) noexcept;

  /// Add a task to its priority's class (classes stay in descending order).
  void file_priority(TaskId id) noexcept;

  /// Recompute every derived set from the task table.
  void rebuild_sets() noexcept;

  std::vector<Task> tasks_;
  std::vector<std::unique_ptr<MessageQueue>> queues_;
  std::uint64_t tick_count_ = 0;
  std::uint64_t dispatches_ = 0;
  /// Round-robin cursor within equal priority; starts "before task 0" so
  /// the first dispatch is task 0 (unsigned wrap makes cursor+1 == 0).
  std::size_t rr_cursor_ = static_cast<std::size_t>(-1);

  // Derived scheduler sets (bit i = tasks_[i]); see set_state().
  std::uint64_t ready_ = 0;
  std::array<PriorityClass, kMaxTasks> classes_{};
  std::size_t class_count_ = 0;
  /// Delayed tasks by fire tick mod kWheelSlots. A delay longer than the
  /// wheel stays filed across laps until its wake_at is reached.
  std::array<std::uint64_t, kWheelSlots> wheel_{};
  std::array<std::uint8_t, kMaxTasks> wheel_slot_{};  ///< where each delayed task is filed
};

}  // namespace mcs::guest::rtos
