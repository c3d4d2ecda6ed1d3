#include "guests/rtos/kernel.hpp"

#include <algorithm>
#include <bit>

namespace mcs::guest::rtos {
namespace {

constexpr std::uint64_t task_bit(TaskId id) noexcept { return std::uint64_t{1} << id; }

/// Mask of the first `n` task ids (n <= 64).
constexpr std::uint64_t first_tasks(std::size_t n) noexcept {
  return n >= 64 ? ~std::uint64_t{0} : task_bit(n) - 1;
}

}  // namespace

TaskId Kernel::add_task(std::string name, unsigned priority, TaskStep step) {
  if (tasks_.size() >= kMaxTasks) return kNoTask;
  Task task;
  task.name = std::move(name);
  task.priority = priority;
  task.step = std::move(step);
  tasks_.push_back(std::move(task));
  const TaskId id = tasks_.size() - 1;
  file_priority(id);
  ready_ |= task_bit(id);
  return id;
}

void Kernel::delay(TaskId task, std::uint64_t ticks) {
  tasks_.at(task).wake_at = util::Ticks{tick_count_ + ticks};
  set_state(task, TaskState::BlockedOnDelay);  // refiles an already-delayed task
}

void Kernel::suspend(TaskId task) { set_state(task, TaskState::Suspended); }

void Kernel::resume(TaskId task) {
  if (tasks_.at(task).state == TaskState::Suspended) set_state(task, TaskState::Ready);
}

QueueId Kernel::create_queue(std::size_t capacity) {
  queues_.push_back(std::make_unique<MessageQueue>(capacity));
  return queues_.size() - 1;
}

bool Kernel::queue_send(TaskId task, QueueId queue, std::uint32_t item) {
  MessageQueue& q = *queues_.at(queue);
  if (q.try_send(item)) {
    wake_queue_waiters(queue, /*for_space=*/false);  // data available
    return true;
  }
  Task& t = tasks_.at(task);
  t.waiting_queue = queue;
  t.waiting_for_space = true;
  set_state(task, TaskState::BlockedOnQueue);
  return false;
}

std::optional<std::uint32_t> Kernel::queue_receive(TaskId task, QueueId queue) {
  MessageQueue& q = *queues_.at(queue);
  if (auto item = q.try_receive()) {
    wake_queue_waiters(queue, /*for_space=*/true);  // space available
    return item;
  }
  Task& t = tasks_.at(task);
  t.waiting_queue = queue;
  t.waiting_for_space = false;
  set_state(task, TaskState::BlockedOnQueue);
  return std::nullopt;
}

void Kernel::wake_queue_waiters(QueueId queue, bool for_space) {
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    const Task& t = tasks_[id];
    if (t.state == TaskState::BlockedOnQueue && t.waiting_queue == queue &&
        t.waiting_for_space == for_space) {
      set_state(id, TaskState::Ready);
    }
  }
}

void Kernel::set_state(TaskId id, TaskState next) {
  Task& t = tasks_.at(id);
  if (t.state == TaskState::Ready) ready_ &= ~task_bit(id);
  if (t.state == TaskState::BlockedOnDelay) wheel_[wheel_slot_[id]] &= ~task_bit(id);
  t.state = next;
  if (next == TaskState::Ready) ready_ |= task_bit(id);
  if (next == TaskState::BlockedOnDelay) file_delayed(id);
}

void Kernel::file_delayed(TaskId id) noexcept {
  // on_tick() wakes a task on the first tick with wake_at <= now, which
  // is never the current tick: a delay of 0 fires on the next one.
  const std::uint64_t fire = std::max(tasks_[id].wake_at.value, tick_count_ + 1);
  wheel_slot_[id] = static_cast<std::uint8_t>(fire % kWheelSlots);
  wheel_[wheel_slot_[id]] |= task_bit(id);
}

void Kernel::file_priority(TaskId id) noexcept {
  const unsigned priority = tasks_[id].priority;
  std::size_t c = 0;
  while (c < class_count_ && classes_[c].priority > priority) ++c;
  if (c == class_count_ || classes_[c].priority != priority) {
    std::copy_backward(classes_.begin() + static_cast<std::ptrdiff_t>(c),
                       classes_.begin() + static_cast<std::ptrdiff_t>(class_count_),
                       classes_.begin() + static_cast<std::ptrdiff_t>(class_count_ + 1));
    classes_[c] = PriorityClass{priority, 0};
    ++class_count_;
  }
  classes_[c].tasks |= task_bit(id);
}

void Kernel::rebuild_sets() noexcept {
  ready_ = 0;
  class_count_ = 0;
  wheel_.fill(0);
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    file_priority(id);
    if (tasks_[id].state == TaskState::Ready) ready_ |= task_bit(id);
    if (tasks_[id].state == TaskState::BlockedOnDelay) file_delayed(id);
  }
}

void Kernel::on_tick() {
  ++tick_count_;
  // Only tasks filed under this tick's slot can be due. One filed a whole
  // wheel lap (or more) ahead shares the slot and waits for its own lap.
  std::uint64_t filed = wheel_[tick_count_ % kWheelSlots];
  while (filed != 0) {
    const auto id = static_cast<TaskId>(std::countr_zero(filed));
    filed &= filed - 1;
    if (tasks_[id].wake_at.value <= tick_count_) set_state(id, TaskState::Ready);
  }
}

std::optional<TaskId> Kernel::run_slice(jh::GuestContext& guest) {
  // Highest priority wins; round-robin among equals, starting after the
  // previously dispatched task so equal-priority tasks share fairly.
  if (ready_ == 0) return std::nullopt;  // every task blocked or suspended
  std::uint64_t ready = 0;
  for (std::size_t c = 0; ready == 0 && c < class_count_; ++c) {
    ready = ready_ & classes_[c].tasks;
  }

  // First ready task at or after the cursor's successor, wrapping (the
  // cursor starts at -1, so the very first pick starts at task 0).
  const std::size_t start = (rr_cursor_ + 1) % tasks_.size();
  const std::uint64_t from_start = ready & ~first_tasks(start);
  const auto index =
      static_cast<TaskId>(std::countr_zero(from_start != 0 ? from_start : ready));

  rr_cursor_ = index;
  set_state(index, TaskState::Running);
  Task& t = tasks_[index];
  ++t.dispatches;
  ++dispatches_;
  TaskContext ctx{*this, guest, index};
  t.step(ctx);
  // A step may have blocked/suspended itself; otherwise it yields.
  if (t.state == TaskState::Running) set_state(index, TaskState::Ready);
  return index;
}

std::optional<TaskId> Kernel::find_task(std::string_view name) const {
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].name == name) return i;
  }
  return std::nullopt;
}

bool Kernel::invariants_hold() const noexcept {
  std::uint64_t ready = 0;
  std::array<std::uint64_t, kWheelSlots> wheel{};
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    const Task& t = tasks_[id];
    if (t.state == TaskState::Running) return false;  // residue between slices
    if (t.state == TaskState::BlockedOnQueue && t.waiting_queue >= queues_.size()) {
      return false;
    }
    if (t.state == TaskState::Ready) ready |= task_bit(id);
    if (t.state == TaskState::BlockedOnDelay) {
      const std::size_t slot =
          std::max(t.wake_at.value, tick_count_ + 1) % kWheelSlots;
      if (wheel_slot_[id] != slot) return false;
      wheel[slot] |= task_bit(id);
    }
  }
  // The derived sets are exactly what the task states imply.
  if (ready != ready_ || wheel != wheel_) return false;
  std::uint64_t classified = 0;
  for (std::size_t c = 0; c < class_count_; ++c) {
    const PriorityClass& cls = classes_[c];
    if (c > 0 && cls.priority >= classes_[c - 1].priority) return false;
    if (cls.tasks == 0 || (cls.tasks & classified) != 0) return false;
    classified |= cls.tasks;
    for (std::uint64_t bits = cls.tasks; bits != 0; bits &= bits - 1) {
      const auto id = static_cast<TaskId>(std::countr_zero(bits));
      if (id >= tasks_.size() || tasks_[id].priority != cls.priority) return false;
    }
  }
  return classified == first_tasks(tasks_.size());
}

}  // namespace mcs::guest::rtos
