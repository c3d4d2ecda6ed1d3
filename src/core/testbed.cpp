#include "core/testbed.hpp"

#include "hypervisor/cell_config.hpp"
#include "hypervisor/ivshmem.hpp"

namespace mcs::fi {

Testbed::Testbed() : Testbed(std::make_unique<platform::BananaPiBoard>()) {}

Testbed::Testbed(std::unique_ptr<platform::Board> board)
    : board_(board != nullptr ? std::move(board)
                              : std::make_unique<platform::BananaPiBoard>()),
      hv_(*board_),
      machine_(*board_, hv_) {
  // Power-on is a snapshot like any other. Its DRAM pages (none on a new
  // board) own the run arena's base, below every later capture.
  capture_into(power_on_);
  power_on_.arena_mark = run_arena_.mark();
}

void Testbed::reset() {
  restore(power_on_);  // rewinding to its mark drops the held point's pages
  snapshot_valid_ = false;
  forget_golden_suffix();
}

void Testbed::forget_golden_suffix() noexcept {
  golden_.valid = false;
  golden_.injecting_ticks.clear();
  golden_.touches.clear();
  rung_count_ = 0;
}

void Testbed::capture_snapshot(const std::string& key) {
  capture_snapshot(key, RunPoint{});
}

void Testbed::capture_snapshot(const std::string& key, const RunPoint& point) {
  // The snapshot owns the arena above power-on: drop the previous one
  // and any scratch.
  run_arena_.rewind_to(power_on_.arena_mark);
  capture_into(snapshot_);
  snapshot_.point = point;
  snapshot_.arena_mark = run_arena_.mark();
  snapshot_.key = key;
  snapshot_.bytes = snapshot_.board.dram.bytes();
  snapshot_valid_ = true;
  forget_golden_suffix();
}

void Testbed::capture_into(TestbedSnapshot& out) {
  board_->snapshot_to(out.board, run_arena_);
  hv_.snapshot_to(out.hv);
  machine_.snapshot_to(out.machine);
  linux_.snapshot_to(out.linux_root);
  freertos_.snapshot_to(out.freertos);
  osek_.snapshot_to(out.osek);
  out.cell_id = cell_id_;
  out.secondary_cell_id = secondary_cell_id_;
  out.enabled = enabled_;
  out.ivshmem = ivshmem_;
  out.tuning = tuning_;
  out.ivshmem_stats = ivshmem_stats_;
}

void Testbed::track_touches(util::TouchLog* touches) noexcept {
  board_->dram().set_touch_log(touches);
  board_->gic().set_touch_log(touches);
}

bool Testbed::capture_rung(const RunPoint& point) {
  if (!snapshot_valid_ || rung_count_ == kLadderRungs) return false;
  if (rungs_.size() == rung_count_) rungs_.emplace_back();
  TestbedSnapshot& rung = rungs_[rung_count_];
  capture_into(rung);  // pages land above the point's (and earlier rungs')
  const auto outgrew = [&rung, this] {
    return rung.freertos.kernel.tasks.size() > snapshot_.freertos.kernel.tasks.size() ||
           rung.freertos.kernel.queues.size() > snapshot_.freertos.kernel.queues.size() ||
           rung.osek.os.tasks.size() > snapshot_.osek.os.tasks.size() ||
           rung.osek.os.alarms.size() > snapshot_.osek.os.alarms.size();
  };
  // Without advancing the mark, the next restore discards the pages.
  if (outgrew()) return false;
  rung.point = point;
  snapshot_.arena_mark = run_arena_.mark();  // the point owns every rung's pages
  ++rung_count_;
  const platform::Board::Snapshot& from = snapshot_.board;
  tails_.uart0.assign(board_->uart0().captured(), from.uart0.captured_size);
  tails_.uart1.assign(board_->uart1().captured(), from.uart1.captured_size);
  const auto& log = board_->log().records();
  tails_.log.assign(log.begin() + static_cast<std::ptrdiff_t>(from.log_records), log.end());
  const auto& root = linux_.records();
  tails_.root.assign(
      root.begin() + static_cast<std::ptrdiff_t>(snapshot_.linux_root.record_count),
      root.end());
  return true;
}

void Testbed::restore_rung(std::size_t index) {
  const TestbedSnapshot& rung = rungs_[index];
  run_arena_.rewind_to(snapshot_.arena_mark);
  restore_state(rung);
  // Append-only state: the point's prefix, then what the golden run
  // appended up to this rung.
  const platform::Board::Snapshot& from = snapshot_.board;
  board_->uart0().restore_capture(
      from.uart0.captured_size,
      std::string_view(tails_.uart0)
          .substr(0, rung.board.uart0.captured_size - from.uart0.captured_size));
  board_->uart1().restore_capture(
      from.uart1.captured_size,
      std::string_view(tails_.uart1)
          .substr(0, rung.board.uart1.captured_size - from.uart1.captured_size));
  board_->log().restore_tail(
      from.log_records,
      std::span(tails_.log).first(rung.board.log_records - from.log_records));
  linux_.restore_records(
      snapshot_.linux_root.record_count,
      std::span(tails_.root)
          .first(rung.linux_root.record_count - snapshot_.linux_root.record_count));
}

bool Testbed::restore_snapshot() {
  if (!snapshot_valid_) return false;
  restore(snapshot_);
  return true;
}

void Testbed::restore(const TestbedSnapshot& snapshot) {
  run_arena_.rewind_to(snapshot.arena_mark);
  restore_state(snapshot);
}

void Testbed::restore_state(const TestbedSnapshot& snapshot) {
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
