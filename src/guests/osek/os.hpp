// Mini OSEK/VDX operating system — the AUTOSAR-classic flavour of the
// automotive stack (§IV: MICROSAR's OS "is based on the AUTOSAR OS
// specification, which is an extension of the OSEK/VDX-OS standard").
//
// Implements the OSEK conformance-class-BCC1 core:
//   * basic tasks: run-to-completion, fixed priority, no blocking;
//   * ActivateTask / TerminateTask / ChainTask;
//   * counters and cyclic alarms (SetRelAlarm → ActivateTask);
//   * E_OS_LIMIT on over-activation (one pending activation per task).
//
// Deliberately distinct from the FreeRTOS-style kernel in guests/rtos:
// OSEK basic tasks cannot block, so the scheduler is a simple fixed-
// priority dispatch of pending activations — which is exactly what makes
// it attractive for ASIL partitions.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace mcs::guest::osek {

using TaskId = std::size_t;
using AlarmId = std::size_t;

/// OSEK StatusType subset.
enum class Status : std::uint8_t {
  E_OK = 0,
  E_OS_ID,       ///< invalid object id
  E_OS_LIMIT,    ///< too many activations
  E_OS_STATE,    ///< object in the wrong state
  E_OS_NOFUNC,   ///< alarm not in use
};

[[nodiscard]] std::string_view status_name(Status status) noexcept;

/// OSEK task states (basic tasks: no Waiting state).
enum class TaskState : std::uint8_t { Suspended, Ready, Running };

class Os;

/// What a task body sees.
struct TaskContext {
  Os& os;
  TaskId self;
};

/// Task body: one run-to-completion execution. The body must finish by
/// returning (TerminateTask) or calling ChainTask via the context.
using TaskBody = std::function<void(TaskContext&)>;

class Os {
 public:
  // --- configuration (build time, like an OIL file) ----------------------
  TaskId declare_task(std::string name, unsigned priority, TaskBody body);
  AlarmId declare_alarm(std::string name, TaskId activates);

  // --- OSEK services ------------------------------------------------------
  Status activate_task(TaskId task);
  /// Called from inside a body: finish and activate another task.
  Status chain_task(TaskContext& ctx, TaskId next);
  Status set_rel_alarm(AlarmId alarm, std::uint64_t offset, std::uint64_t cycle);
  Status cancel_alarm(AlarmId alarm);

  // --- kernel ticks --------------------------------------------------------
  /// Counter tick (the OSEK system counter); expires due alarms.
  void on_counter_tick();

  /// Dispatch the highest-priority ready activation to completion.
  /// Returns the task run, or nullopt when idle.
  std::optional<TaskId> dispatch();

  // --- introspection --------------------------------------------------------
  [[nodiscard]] std::size_t task_count() const noexcept { return tasks_.size(); }
  [[nodiscard]] TaskState task_state(TaskId task) const;
  [[nodiscard]] std::uint64_t activations(TaskId task) const;
  [[nodiscard]] std::uint64_t dispatches() const noexcept { return dispatches_; }
  [[nodiscard]] std::uint64_t counter() const noexcept { return counter_; }
  [[nodiscard]] std::optional<TaskId> find_task(std::string_view name) const;

  /// OSEK invariants: at most one Running task (none between dispatches),
  /// pending activations ∈ {0, 1} per basic task.
  [[nodiscard]] bool invariants_hold() const noexcept;

  // --- snapshot / restore (testbed warm-start) --------------------------
  /// Tasks and alarms are declared only at configuration time
  /// (pre-capture), so the snapshot stores their mutable fields by index;
  /// restore truncates to the captured counts and rewinds in place —
  /// names, priorities and body closures are never copied.
  struct Snapshot {
    struct TaskData {
      TaskState state = TaskState::Suspended;
      bool pending = false;
      std::uint64_t activations = 0;
      bool chained = false;
    };
    struct AlarmData {
      bool armed = false;
      std::uint64_t expires_at = 0;
      std::uint64_t cycle = 0;
    };
    std::vector<TaskData> tasks;
    std::vector<AlarmData> alarms;
    std::uint64_t counter = 0;
    std::uint64_t dispatches = 0;
  };

  void snapshot_to(Snapshot& out) const;
  void restore_from(const Snapshot& snapshot);

 private:
  struct Task {
    std::string name;
    unsigned priority = 1;
    TaskBody body;
    TaskState state = TaskState::Suspended;
    bool pending = false;       ///< one queued activation (BCC1)
    std::uint64_t activations = 0;
    bool chained = false;       ///< ChainTask target of the current body
  };

  struct Alarm {
    std::string name;
    TaskId activates = 0;
    bool armed = false;
    std::uint64_t expires_at = 0;
    std::uint64_t cycle = 0;  ///< 0 = one-shot
  };

  std::vector<Task> tasks_;
  std::vector<Alarm> alarms_;
  std::uint64_t counter_ = 0;
  std::uint64_t dispatches_ = 0;
};

}  // namespace mcs::guest::osek
