// Reference scheduler for the mini-RTOS differential suite: the original
// linear-scan kernel, kept only as a test oracle for rtos::Kernel.
//
// Every scheduling decision here is recomputed from the task table on
// each call (dispatch scans all tasks for the best priority, then again
// for the round-robin pick; the tick hook scans all tasks for expired
// delays). rtos::Kernel keeps the same decisions in derived bitmask sets,
// so the two must agree on every dispatched task and every task field at
// every step. Task steps take the kernel and their own id directly, so
// one test body can drive either kernel; snapshots reuse
// rtos::Kernel::Snapshot, which lets the suite compare the two kernels'
// state field by field.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "guests/rtos/kernel.hpp"
#include "guests/rtos/queue.hpp"
#include "guests/rtos/task.hpp"

namespace mcs::guest::rtos::oracle {

class ScanKernel;

/// One work unit of a reference task (the oracle's TaskStep).
using ScanStep = std::function<void(ScanKernel&, TaskId)>;

/// rtos::Task with the oracle's step type.
struct ScanTask {
  std::string name;
  unsigned priority = 1;
  TaskState state = TaskState::Ready;
  ScanStep step;
  util::Ticks wake_at{};
  std::size_t waiting_queue = 0;
  bool waiting_for_space = false;
  std::uint64_t dispatches = 0;
  std::uint64_t errors = 0;
};

class ScanKernel {
 public:
  TaskId add_task(std::string name, unsigned priority, ScanStep step);
  void delay(TaskId task, std::uint64_t ticks);
  void suspend(TaskId task);
  void resume(TaskId task);

  QueueId create_queue(std::size_t capacity);
  bool queue_send(TaskId task, QueueId queue, std::uint32_t item);
  std::optional<std::uint32_t> queue_receive(TaskId task, QueueId queue);

  void on_tick();
  std::optional<TaskId> run_slice();

  [[nodiscard]] std::size_t task_count() const noexcept { return tasks_.size(); }

  void snapshot_to(Kernel::Snapshot& out) const;
  void restore_from(const Kernel::Snapshot& snapshot);

 private:
  void wake_queue_waiters(QueueId queue, bool for_space);

  std::vector<ScanTask> tasks_;
  std::vector<std::unique_ptr<MessageQueue>> queues_;
  std::uint64_t tick_count_ = 0;
  std::uint64_t dispatches_ = 0;
  std::size_t rr_cursor_ = static_cast<std::size_t>(-1);
};

}  // namespace mcs::guest::rtos::oracle
