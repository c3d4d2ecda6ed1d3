#include "core/testbed.hpp"

#include "hypervisor/cell_config.hpp"
#include "hypervisor/ivshmem.hpp"

namespace mcs::fi {

Testbed::Testbed() : Testbed(std::make_unique<platform::BananaPiBoard>()) {}

Testbed::Testbed(std::unique_ptr<platform::Board> board)
    : board_(board != nullptr ? std::move(board)
                              : std::make_unique<platform::BananaPiBoard>()),
      hv_(*board_),
      machine_(*board_, hv_) {}

void Testbed::reset() {
  machine_.reset();
  hv_.reset();
  board_->reset();
  linux_.reset();
  freertos_.reset();
  osek_.reset();
  cell_id_ = 0;
  secondary_cell_id_ = 0;
  enabled_ = false;
  ivshmem_ = false;
  tuning_ = jh::CellTuning{};
  ivshmem_stats_ = IvshmemTrafficStats{};
  // A full arena reset reclaims the snapshot's page payloads too — any
  // held snapshot is gone.
  run_arena_.reset();
  snapshot_valid_ = false;
  snapshot_.learned = PointLearned{};
}

void Testbed::capture_snapshot(const std::string& key) {
  capture_snapshot(key, RunPoint{});
}

void Testbed::capture_snapshot(const std::string& key, const RunPoint& point) {
  // The snapshot owns the arena base: drop previous snapshot + scratch.
  run_arena_.reset();
  board_->snapshot_to(snapshot_.board, run_arena_);
  hv_.snapshot_to(snapshot_.hv);
  machine_.snapshot_to(snapshot_.machine);
  linux_.snapshot_to(snapshot_.linux_root);
  freertos_.snapshot_to(snapshot_.freertos);
  osek_.snapshot_to(snapshot_.osek);
  snapshot_.cell_id = cell_id_;
  snapshot_.secondary_cell_id = secondary_cell_id_;
  snapshot_.enabled = enabled_;
  snapshot_.ivshmem = ivshmem_;
  snapshot_.tuning = tuning_;
  snapshot_.ivshmem_stats = ivshmem_stats_;
  snapshot_.point = point;
  snapshot_.learned = PointLearned{};
  snapshot_.arena_mark = run_arena_.mark();
  snapshot_.key = key;
  snapshot_.bytes = snapshot_.board.dram.bytes();
  snapshot_valid_ = true;
}

bool Testbed::restore_snapshot() {
  if (!snapshot_valid_) return false;
  restore(snapshot_);
  return true;
}

void Testbed::restore(const TestbedSnapshot& snapshot) {
  run_arena_.rewind_to(snapshot.arena_mark);
  board_->restore_from(snapshot.board);
  hv_.restore_from(snapshot.hv);
  machine_.restore_from(snapshot.machine);
  linux_.restore_from(snapshot.linux_root);
  freertos_.restore_from(snapshot.freertos);
  osek_.restore_from(snapshot.osek);
  cell_id_ = snapshot.cell_id;
  secondary_cell_id_ = snapshot.secondary_cell_id;
  enabled_ = snapshot.enabled;
  ivshmem_ = snapshot.ivshmem;
  tuning_ = snapshot.tuning;
  ivshmem_stats_ = snapshot.ivshmem_stats;
}

util::Status Testbed::enable_hypervisor() {
  if (enabled_) return util::ok_status();
  MCS_RETURN_IF_ERROR(hv_.enable(jh::make_root_cell_config(board_->spec())));
  machine_.bind_guest(jh::kRootCellId, linux_);
  jh::CellConfig freertos_config = jh::make_freertos_cell_config();
  jh::CellConfig osek_config = jh::make_osek_cell_config(osek_cpu());
  jh::apply_cell_tuning(freertos_config, tuning_);
  jh::apply_cell_tuning(osek_config, tuning_);
  if (supports_concurrent_cells()) {
    // Both non-root cells can be resident at once on this board, and
    // there is exactly one spare USART and one PIO block between them:
    // declare the peripheral windows ROOTSHARED in both inmate configs
    // (the Jailhouse pattern for shared devices) so neither cell carves
    // them out of its peer — an exclusive claim by the first create
    // would make the second create fail root-coverage validation.
    const auto share_io_windows = [](jh::CellConfig& config) {
      for (mem::MemRegion& region : config.mem_regions) {
        if ((region.flags & mem::kMemIo) != 0) {
          region.flags |= mem::kMemRootShared;
        }
      }
    };
    share_io_windows(freertos_config);
    share_io_windows(osek_config);
  }
  if (ivshmem_) {
    // Both non-root cells map the whole ROOTSHARED window; the create
    // path leaves shared windows resident in the root map, so two
    // concurrent cells can both declare it.
    freertos_config.mem_regions.push_back(jh::make_ivshmem_region());
    osek_config.mem_regions.push_back(jh::make_ivshmem_region());
  }
  hv_.register_config(kFreeRtosConfigAddr, std::move(freertos_config));
  hv_.register_config(kOsekConfigAddr, std::move(osek_config));
  enabled_ = true;
  return util::ok_status();
}

void Testbed::boot_cell(std::uint64_t config_addr, jh::GuestImage& image) {
  // The driver issues create, the shell reads back the id, then start.
  linux_.cell_create(static_cast<std::uint32_t>(config_addr));
  run(5);  // a few ms for the ioctl round-trip
  cell_id_ = linux_.last_created_cell();
  if (cell_id_ != 0) {
    machine_.bind_guest(cell_id_, image);
    linux_.set_monitored_cell(cell_id_);
    linux_.cell_start(cell_id_);
  } else {
    // Create failed (e.g. under injection): still attempt a start so the
    // failure is recorded the way the real shell script would.
    linux_.cell_start(0);
  }
  run(20);  // ioctl + CPU hot-plug bring-up window
}

void Testbed::boot_secondary_osek_cell() {
  const std::uint32_t created_before = linux_.last_created_cell();
  linux_.cell_create(static_cast<std::uint32_t>(kOsekConfigAddr));
  run(5);
  const std::uint32_t created = linux_.last_created_cell();
  if (created != 0 && created != created_before) {
    secondary_cell_id_ = created;
    machine_.bind_guest(secondary_cell_id_, osek_);
    linux_.cell_start(secondary_cell_id_);
  } else {
    linux_.cell_start(0);
  }
  run(20);
}

void Testbed::shutdown_workload_cell() {
  if (cell_id_ == 0) return;
  linux_.cell_shutdown(cell_id_);
  run(10);
}

void Testbed::destroy_workload_cell() {
  if (cell_id_ == 0) return;
  linux_.cell_destroy(cell_id_);
  run(10);
  machine_.unbind_guest(cell_id_);
  cell_id_ = 0;
}

void Testbed::run(std::uint64_t ticks) { machine_.run_ticks(ticks); }

void Testbed::run_until(util::Ticks target) { machine_.run_until(target); }

Testbed::AccessCounters Testbed::access_counters() noexcept {
  AccessCounters counters;
  counters.tlb_hits = hv_.stage2_tlb_hits();
  counters.tlb_misses = hv_.stage2_tlb_misses();
  counters.dram_fast_ops = board_->dram().fast_ops();
  counters.dram_slow_ops = board_->dram().slow_ops();
  counters.deadline_refreshes = board_->deadline_refreshes();
  return counters;
}

Testbed::GoldenProfile Testbed::profile_golden(std::uint64_t ticks) {
  const int cpus = board_->num_cpus();
  const jh::Counters before = hv_.counters();
  // Run-scoped analysis buffer: lives in the arena until the next reset.
  std::uint64_t* traps_before =
      run_arena_.allocate_array<std::uint64_t>(static_cast<std::size_t>(cpus));
  for (int cpu = 0; cpu < cpus; ++cpu) {
    traps_before[static_cast<std::size_t>(cpu)] = board_->cpu(cpu).trap_entries;
  }
  run(ticks);
  const jh::Counters& after = hv_.counters();
  GoldenProfile profile;
  profile.irqchip_entries = after.irqs - before.irqs;
  profile.trap_entries = after.traps - before.traps;
  profile.hvc_entries = after.hvcs - before.hvcs;
  profile.per_cpu_traps.resize(static_cast<std::size_t>(cpus));
  for (int cpu = 0; cpu < cpus; ++cpu) {
    profile.per_cpu_traps[static_cast<std::size_t>(cpu)] =
        board_->cpu(cpu).trap_entries - traps_before[static_cast<std::size_t>(cpu)];
  }
  return profile;
}

}  // namespace mcs::fi
