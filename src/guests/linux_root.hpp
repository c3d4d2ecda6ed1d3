// Root-cell model: general-purpose Linux plus the Jailhouse kernel driver
// and its management CLI.
//
// The experiments drive cell lifecycle from here exactly like `jailhouse
// cell create/start/shutdown/destroy` on the real board: commands are
// queued, the driver issues the hypercalls from CPU 0 and records each
// result — including the "Invalid argument" failures §III reports under
// high-intensity injection.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "hypervisor/guest.hpp"
#include "hypervisor/hypercall.hpp"

namespace mcs::guest {

/// One management command (a `jailhouse` CLI invocation).
struct MgmtCommand {
  jh::Hypercall op = jh::Hypercall::CellGetState;
  std::uint32_t arg = 0;  ///< config address for create, cell id otherwise
};

/// Result record the driver keeps (what the shell would have printed).
struct MgmtRecord {
  jh::Hypercall op;
  std::uint32_t arg = 0;
  jh::HvcResult result = 0;
  std::uint64_t tick = 0;
};

class LinuxRootImage final : public jh::GuestImage {
 public:
  LinuxRootImage() = default;

  [[nodiscard]] std::string_view name() const override { return "linux-root"; }
  void on_start(jh::GuestContext& ctx) override;
  void run_quantum(jh::GuestContext& ctx) override;
  void on_timer(jh::GuestContext& ctx) override;

  // --- management interface (the `jailhouse` CLI) ------------------------
  void enqueue(MgmtCommand command) { pending_.push_back(command); }
  void cell_create(std::uint32_t config_addr) {
    enqueue({jh::Hypercall::CellCreate, config_addr});
  }
  void cell_start(std::uint32_t id) { enqueue({jh::Hypercall::CellStart, id}); }
  void cell_shutdown(std::uint32_t id) {
    enqueue({jh::Hypercall::CellShutdown, id});
  }
  void cell_destroy(std::uint32_t id) {
    enqueue({jh::Hypercall::CellDestroy, id});
  }

  [[nodiscard]] const std::vector<MgmtRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] bool idle() const noexcept { return pending_.empty(); }

  /// Last result for an op, or ENOSYS when never issued.
  [[nodiscard]] jh::HvcResult last_result(jh::Hypercall op) const noexcept;

  /// Id returned by the most recent successful cell create (0 = none).
  [[nodiscard]] std::uint32_t last_created_cell() const noexcept {
    return last_created_cell_;
  }

  /// Periodic `jailhouse cell list` polling target (0 disables polling).
  void set_monitored_cell(std::uint32_t id) noexcept { monitored_cell_ = id; }
  [[nodiscard]] jh::HvcResult last_poll_state() const noexcept {
    return last_poll_state_;
  }

  [[nodiscard]] std::uint64_t jiffies() const noexcept { return jiffies_; }

  // --- snapshot / restore (testbed warm-start) --------------------------
  /// The record vector is append-only along a run, so it snapshots as a
  /// length and restores by truncation.
  struct Snapshot {
    std::vector<MgmtCommand> pending;
    std::size_t record_count = 0;
    std::uint32_t last_created_cell = 0;
    std::uint32_t monitored_cell = 0;
    jh::HvcResult last_poll_state = jh::kHvcENoEnt;
    std::uint64_t jiffies = 0;
    std::uint64_t quantum_counter = 0;
  };

  void snapshot_to(Snapshot& out) const {
    out.pending.assign(pending_.begin(), pending_.end());
    out.record_count = records_.size();
    out.last_created_cell = last_created_cell_;
    out.monitored_cell = monitored_cell_;
    out.last_poll_state = last_poll_state_;
    out.jiffies = jiffies_;
    out.quantum_counter = quantum_counter_;
  }

  void restore_from(const Snapshot& snapshot) {
    pending_.clear();  // keeps the deque's blocks: the refill allocates nothing
    for (const MgmtCommand& command : snapshot.pending) pending_.push_back(command);
    if (records_.size() > snapshot.record_count) records_.resize(snapshot.record_count);
    last_created_cell_ = snapshot.last_created_cell;
    monitored_cell_ = snapshot.monitored_cell;
    last_poll_state_ = snapshot.last_poll_state;
    jiffies_ = snapshot.jiffies;
    quantum_counter_ = snapshot.quantum_counter;
  }

  /// Truncate the management records to `count`, then append copies of
  /// `tail` (a ladder rung restore, see fi::Testbed).
  void restore_records(std::size_t count, std::span<const MgmtRecord> tail) {
    if (records_.size() > count) records_.resize(count);
    records_.insert(records_.end(), tail.begin(), tail.end());
  }

 private:
  std::deque<MgmtCommand> pending_;
  std::vector<MgmtRecord> records_;
  std::uint32_t last_created_cell_ = 0;
  std::uint32_t monitored_cell_ = 0;
  jh::HvcResult last_poll_state_ = jh::kHvcENoEnt;
  std::uint64_t jiffies_ = 0;
  std::uint64_t quantum_counter_ = 0;
};

}  // namespace mcs::guest
