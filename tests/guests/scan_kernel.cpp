#include "scan_kernel.hpp"

namespace mcs::guest::rtos::oracle {

TaskId ScanKernel::add_task(std::string name, unsigned priority, ScanStep step) {
  ScanTask task;
  task.name = std::move(name);
  task.priority = priority;
  task.step = std::move(step);
  tasks_.push_back(std::move(task));
  return tasks_.size() - 1;
}

void ScanKernel::delay(TaskId task, std::uint64_t ticks) {
  ScanTask& t = tasks_.at(task);
  t.state = TaskState::BlockedOnDelay;
  t.wake_at = util::Ticks{tick_count_ + ticks};
}

void ScanKernel::suspend(TaskId task) { tasks_.at(task).state = TaskState::Suspended; }

void ScanKernel::resume(TaskId task) {
  ScanTask& t = tasks_.at(task);
  if (t.state == TaskState::Suspended) t.state = TaskState::Ready;
}

QueueId ScanKernel::create_queue(std::size_t capacity) {
  queues_.push_back(std::make_unique<MessageQueue>(capacity));
  return queues_.size() - 1;
}

bool ScanKernel::queue_send(TaskId task, QueueId queue, std::uint32_t item) {
  MessageQueue& q = *queues_.at(queue);
  if (q.try_send(item)) {
    wake_queue_waiters(queue, /*for_space=*/false);
    return true;
  }
  ScanTask& t = tasks_.at(task);
  t.state = TaskState::BlockedOnQueue;
  t.waiting_queue = queue;
  t.waiting_for_space = true;
  return false;
}

std::optional<std::uint32_t> ScanKernel::queue_receive(TaskId task, QueueId queue) {
  MessageQueue& q = *queues_.at(queue);
  if (auto item = q.try_receive()) {
    wake_queue_waiters(queue, /*for_space=*/true);
    return item;
  }
  ScanTask& t = tasks_.at(task);
  t.state = TaskState::BlockedOnQueue;
  t.waiting_queue = queue;
  t.waiting_for_space = false;
  return std::nullopt;
}

void ScanKernel::wake_queue_waiters(QueueId queue, bool for_space) {
  for (ScanTask& t : tasks_) {
    if (t.state == TaskState::BlockedOnQueue && t.waiting_queue == queue &&
        t.waiting_for_space == for_space) {
      t.state = TaskState::Ready;
    }
  }
}

void ScanKernel::on_tick() {
  ++tick_count_;
  for (ScanTask& t : tasks_) {
    if (t.state == TaskState::BlockedOnDelay && t.wake_at.value <= tick_count_) {
      t.state = TaskState::Ready;
    }
  }
}

std::optional<TaskId> ScanKernel::run_slice() {
  unsigned best_priority = 0;
  bool found = false;
  for (const ScanTask& t : tasks_) {
    if (t.state == TaskState::Ready && (!found || t.priority > best_priority)) {
      best_priority = t.priority;
      found = true;
    }
  }
  if (!found) return std::nullopt;

  const std::size_t n = tasks_.size();
  for (std::size_t offset = 1; offset <= n; ++offset) {
    const std::size_t index = (rr_cursor_ + offset) % n;
    ScanTask& t = tasks_[index];
    if (t.state != TaskState::Ready || t.priority != best_priority) continue;
    rr_cursor_ = index;
    t.state = TaskState::Running;
    ++t.dispatches;
    ++dispatches_;
    t.step(*this, index);
    if (t.state == TaskState::Running) t.state = TaskState::Ready;
    return index;
  }
  return std::nullopt;
}

void ScanKernel::snapshot_to(Kernel::Snapshot& out) const {
  out.tasks.resize(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const ScanTask& task = tasks_[i];
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

void ScanKernel::restore_from(const Kernel::Snapshot& snapshot) {
  if (tasks_.size() > snapshot.tasks.size()) tasks_.resize(snapshot.tasks.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const Kernel::Snapshot::TaskData& data = snapshot.tasks[i];
    ScanTask& task = tasks_[i];
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
}

}  // namespace mcs::guest::rtos::oracle
