#include "guests/osek/os.hpp"

namespace mcs::guest::osek {

std::string_view status_name(Status status) noexcept {
  switch (status) {
    case Status::E_OK: return "E_OK";
    case Status::E_OS_ID: return "E_OS_ID";
    case Status::E_OS_LIMIT: return "E_OS_LIMIT";
    case Status::E_OS_STATE: return "E_OS_STATE";
    case Status::E_OS_NOFUNC: return "E_OS_NOFUNC";
  }
  return "?";
}

TaskId Os::declare_task(std::string name, unsigned priority, TaskBody body) {
  Task task;
  task.name = std::move(name);
  task.priority = priority;
  task.body = std::move(body);
  tasks_.push_back(std::move(task));
  return tasks_.size() - 1;
}

AlarmId Os::declare_alarm(std::string name, TaskId activates) {
  Alarm alarm;
  alarm.name = std::move(name);
  alarm.activates = activates;
  alarms_.push_back(std::move(alarm));
  return alarms_.size() - 1;
}

Status Os::activate_task(TaskId task) {
  if (task >= tasks_.size()) return Status::E_OS_ID;
  Task& t = tasks_[task];
  if (t.state == TaskState::Suspended) {
    t.state = TaskState::Ready;
    return Status::E_OK;
  }
  // Ready or Running: queue exactly one further activation (BCC1 limit).
  if (t.pending) return Status::E_OS_LIMIT;
  t.pending = true;
  return Status::E_OK;
}

Status Os::chain_task(TaskContext& ctx, TaskId next) {
  if (next >= tasks_.size()) return Status::E_OS_ID;
  if (ctx.self >= tasks_.size() ||
      tasks_[ctx.self].state != TaskState::Running) {
    return Status::E_OS_STATE;
  }
  tasks_[ctx.self].chained = true;
  // Chaining to self is the OSEK idiom for "run me again".
  return activate_task(next);
}

Status Os::set_rel_alarm(AlarmId alarm, std::uint64_t offset,
                         std::uint64_t cycle) {
  if (alarm >= alarms_.size()) return Status::E_OS_ID;
  Alarm& a = alarms_[alarm];
  if (a.armed) return Status::E_OS_STATE;
  a.armed = true;
  a.expires_at = counter_ + (offset == 0 ? 1 : offset);
  a.cycle = cycle;
  return Status::E_OK;
}

Status Os::cancel_alarm(AlarmId alarm) {
  if (alarm >= alarms_.size()) return Status::E_OS_ID;
  if (!alarms_[alarm].armed) return Status::E_OS_NOFUNC;
  alarms_[alarm].armed = false;
  return Status::E_OK;
}

void Os::on_counter_tick() {
  ++counter_;
  for (Alarm& alarm : alarms_) {
    if (!alarm.armed || alarm.expires_at != counter_) continue;
    (void)activate_task(alarm.activates);  // E_OS_LIMIT drops are per spec
    if (alarm.cycle != 0) {
      alarm.expires_at = counter_ + alarm.cycle;
    } else {
      alarm.armed = false;
    }
  }
}

std::optional<TaskId> Os::dispatch() {
  TaskId best = 0;
  bool found = false;
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    if (tasks_[id].state != TaskState::Ready) continue;
    if (!found || tasks_[id].priority > tasks_[best].priority) {
      best = id;
      found = true;
    }
  }
  if (!found) return std::nullopt;

  Task& task = tasks_[best];
  task.state = TaskState::Running;
  ++task.activations;
  ++dispatches_;
  TaskContext ctx{*this, best};
  task.body(ctx);
  // TerminateTask semantics: the body ran to completion.
  task.state = TaskState::Suspended;
  task.chained = false;
  if (task.pending) {  // a queued activation becomes ready immediately
    task.pending = false;
    task.state = TaskState::Ready;
  }
  return best;
}

TaskState Os::task_state(TaskId task) const {
  return task < tasks_.size() ? tasks_[task].state : TaskState::Suspended;
}

std::uint64_t Os::activations(TaskId task) const {
  return task < tasks_.size() ? tasks_[task].activations : 0;
}

std::optional<TaskId> Os::find_task(std::string_view name) const {
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    if (tasks_[id].name == name) return id;
  }
  return std::nullopt;
}

void Os::snapshot_to(Snapshot& out) const {
  out.tasks.resize(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const Task& task = tasks_[i];
    out.tasks[i] = {task.state, task.pending, task.activations, task.chained};
  }
  out.alarms.resize(alarms_.size());
  for (std::size_t i = 0; i < alarms_.size(); ++i) {
    const Alarm& alarm = alarms_[i];
    out.alarms[i] = {alarm.armed, alarm.expires_at, alarm.cycle};
  }
  out.counter = counter_;
  out.dispatches = dispatches_;
}

void Os::restore_from(const Snapshot& snapshot) {
  if (tasks_.size() > snapshot.tasks.size()) tasks_.resize(snapshot.tasks.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const Snapshot::TaskData& data = snapshot.tasks[i];
    Task& task = tasks_[i];
    task.state = data.state;
    task.pending = data.pending;
    task.activations = data.activations;
    task.chained = data.chained;
  }
  if (alarms_.size() > snapshot.alarms.size()) alarms_.resize(snapshot.alarms.size());
  for (std::size_t i = 0; i < alarms_.size(); ++i) {
    const Snapshot::AlarmData& data = snapshot.alarms[i];
    Alarm& alarm = alarms_[i];
    alarm.armed = data.armed;
    alarm.expires_at = data.expires_at;
    alarm.cycle = data.cycle;
  }
  counter_ = snapshot.counter;
  dispatches_ = snapshot.dispatches;
}

bool Os::invariants_hold() const noexcept {
  for (const Task& task : tasks_) {
    if (task.state == TaskState::Running) return false;  // between dispatches
    if (task.pending && task.state == TaskState::Suspended) return false;
  }
  return true;
}

}  // namespace mcs::guest::osek
