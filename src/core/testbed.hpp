// Testbed: the paper's hardware/software setup in one object.
//
// "The tested hardware comprises a Banana PI [...]. We evaluated Jailhouse
// v0.12 with Linux Kernel v5.10 [...]. The test plan was executed by
// exercising a workload consisting of a root cell where the general-
// purpose Linux was running and a non-root cell in which we run FreeRTOS
// [...]. We statically assigned the board CPU core 0 to the root cell and
// the CPU core 1 to the non-root cell."
//
// The board itself is pluggable: by default the paper's Banana Pi, but any
// platform::Board (e.g. the 4-CPU quad-a7 variant) can be injected, in
// which case a *secondary* non-root cell can run concurrently on its own
// core and the two cells can exchange ivshmem traffic.
//
// Snapshots: a testbed holds its power-on state (TestbedSnapshot, taken
// by the constructor and restored by reset()), at most one rewind point
// and, once the executor has run the point's golden suffix, that suffix's
// result and touch log (GoldenSuffix) plus a ladder of up to kLadderRungs
// later snapshots of the same fault-free run. Power-on and the point
// restore backwards along the slot's history; a rung restores *forwards*,
// into a run that is behind it on the golden trajectory, so it re-appends
// the append-only state (UART bytes, event log, root records) the golden
// run wrote after the point. Capturing a new point or resetting drops the
// point, its suffix and its ladder.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/outcome.hpp"
#include "guests/freertos_image.hpp"
#include "guests/linux_root.hpp"
#include "guests/osek_image.hpp"
#include "hypervisor/config_text.hpp"
#include "hypervisor/hypervisor.hpp"
#include "hypervisor/machine.hpp"
#include "platform/board.hpp"
#include "util/arena.hpp"
#include "util/log.hpp"
#include "util/status.hpp"
#include "util/touch_log.hpp"

namespace mcs::fi {

/// Where the root driver "copies" the non-root cell configs (addresses in
/// root RAM passed to the create hypercall).
inline constexpr std::uint64_t kFreeRtosConfigAddr = 0x4800'0000;
inline constexpr std::uint64_t kOsekConfigAddr = 0x4810'0000;

/// Harness-side counters for the ivshmem cross-cell-traffic protocol
/// (filled by the ivshmem-traffic scenario, classified by the monitor).
struct IvshmemTrafficStats {
  std::uint64_t sent = 0;             ///< messages queued on either ring
  std::uint64_t received = 0;         ///< messages popped and validated OK
  std::uint64_t corrupted = 0;        ///< payload mismatch on receive
  std::uint64_t protocol_errors = 0;  ///< ring faults (corrupt length, EBUSY…)
  std::uint64_t lost_doorbells = 0;   ///< doorbell rung but never delivered
  std::uint64_t send_failures = 0;    ///< ring full / unmapped on send

  [[nodiscard]] bool traffic_disrupted() const noexcept {
    return corrupted + protocol_errors + lost_doorbells + send_failures > 0;
  }
};

/// The observation baseline fi::RunMonitor::begin() records when a watch
/// window opens; finish() classifies against it.
struct WindowMarks {
  std::uint64_t open_tick = 0;  ///< board tick the window opened at
  std::uint64_t uart1 = 0;      ///< USART1 bytes captured so far
  std::uint64_t led = 0;        ///< LED toggles so far
  /// Workload cell's own console-byte counter (0 without a cell).
  std::uint64_t workload_console = 0;
};

/// What a run resumed from a mid-run snapshot needs besides the machine:
/// where its window opened, how far its injector had counted, and where
/// the window closes. Carried by TestbedSnapshot so a rewind point and
/// its run context are captured and replaced together.
struct RunPoint {
  WindowMarks marks;
  std::uint64_t filtered_calls = 0;  ///< fi::Injector::filtered_calls()
  std::uint64_t window_close = 0;    ///< absolute board tick
};

/// Rungs per golden-suffix ladder (see fi::CampaignExecutor). A run stays
/// on the ladder only while every injection it made is dead; at the grid's
/// measured ~70 % dead share per injection, fewer than one run in ten
/// (0.7^7 ≈ 0.08) is still on it after seven injections, so more rungs
/// would buy little. Runs past the last rung continue live.
inline constexpr std::size_t kLadderRungs = 8;

/// What a rewind point's golden suffix learned (see fi::CampaignExecutor):
/// the rest of the window run once fault-free from the point, right after
/// the point was captured. Its ladder rungs live in the Testbed.
struct GoldenSuffix {
  bool valid = false;           ///< a golden suffix ran from the held point
  /// What the suffix depends on beyond the rewind key: the injection rate
  /// (its intervals, rungs and ticks follow the rate's calls) and the
  /// probe setting (the probe is part of its result and its touches).
  std::uint32_t rate = 0;
  bool probe_recovery = false;
  /// The fault-free result: epilogue, finish() and probe included.
  RunResult result;
  /// Board tick of each injecting call inside the window, in call order.
  std::vector<std::uint64_t> injecting_ticks;
  /// Per DRAM page and GIC line field, the last injecting-call interval the
  /// golden run touched it in, through epilogue, finish() and probe.
  util::TouchLog touches;
};

/// Everything a run can mutate, captured at a tick boundary of a slot's
/// learning run (see fi::CampaignExecutor) and bulk-copied back by
/// Testbed::restore_snapshot() instead of a reset() + re-boot + replay.
/// Page payloads live in the testbed's run arena *below* `arena_mark`;
/// per-run scratch is placed above the mark, and restore rewinds to it —
/// so the snapshot survives any number of runs while run-scoped
/// allocations are reclaimed. Power-on and ladder rungs are snapshots
/// too: power-on's pages sit at the arena base, a rung's above the
/// point's, under the point's mark.
struct TestbedSnapshot {
  platform::Board::Snapshot board;
  jh::Hypervisor::Snapshot hv;
  jh::Machine::Snapshot machine;
  guest::LinuxRootImage::Snapshot linux_root;
  guest::FreeRtosImage::Snapshot freertos;
  guest::OsekImage::Snapshot osek;

  // Testbed bookkeeping.
  jh::CellId cell_id = 0;
  jh::CellId secondary_cell_id = 0;
  bool enabled = false;
  bool ivshmem = false;
  jh::CellTuning tuning;
  IvshmemTrafficStats ivshmem_stats;

  RunPoint point;                  ///< the captured run's context

  util::Arena::Mark arena_mark{};  ///< run-arena fill level owned by the snapshot
  std::string key;                 ///< identity (the executor's rewind key)
  std::size_t bytes = 0;           ///< captured DRAM payload bytes (dirty pages)
};

class Testbed {
 public:
  /// The paper's default testbed (Banana Pi board).
  Testbed();

  /// Testbed on an injected board variant (from the BoardRegistry). A
  /// null board falls back to the default Banana Pi.
  explicit Testbed(std::unique_ptr<platform::Board> board);

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Restore the power-on snapshot the constructor captured, then drop
  /// the held point, its golden suffix and its ladder. Every layer comes
  /// back as constructed: the board (clock, CPUs, devices, DRAM contents,
  /// event log), the hypervisor (cells, config registry, counters, hook),
  /// the machine (bindings, start flags, watchdog, tick policy), all
  /// three guest images, and the testbed's own cell/tuning/ivshmem
  /// bookkeeping — the contract that lets fi::TestbedPool reuse a (board,
  /// testbed) slot across campaign runs. Nothing is heap-allocated on
  /// this path (asserted by the pool's zero-allocation test); run-scoped
  /// arena storage is rewound, not freed.
  void reset();

  /// Run-scoped scratch arena: rewound by reset(), so anything placed
  /// here lives exactly one run. Used for per-run analysis buffers
  /// (golden-profile scratch); scenarios may use it the same way. Never
  /// hand arena pointers to anything that outlives the run. While a
  /// snapshot is held, its page payloads occupy the arena base and
  /// restore_snapshot() rewinds only the scratch above them.
  [[nodiscard]] util::Arena& run_arena() noexcept { return run_arena_; }

  // --- snapshot warm-start ------------------------------------------------
  /// Capture the whole testbed state under `key`, at any tick boundary
  /// of a run: after setup + boot, or mid-window between two run_until()
  /// calls. Rewinds the run arena first (the snapshot owns it from
  /// power-on's mark up), so nothing the run placed in the arena may be
  /// live across the call. Replaces any previous point: a testbed holds
  /// one besides power-on, and restores cut append-only state (UART
  /// capture, event log, root records) back to its captured length, so it
  /// can only rewind along its current history. The overload also stores
  /// the run's context (`point`).
  void capture_snapshot(const std::string& key);
  void capture_snapshot(const std::string& key, const RunPoint& point);

  /// True iff a snapshot captured under exactly `key` is held.
  [[nodiscard]] bool has_snapshot(const std::string& key) const noexcept {
    return snapshot_valid_ && snapshot_.key == key;
  }

  /// Rewind the testbed to the held snapshot by bulk copy: run arena back
  /// to the snapshot mark, then board/hypervisor/machine/guest state
  /// restored in place. Returns false (and does nothing) when no snapshot
  /// is held. Heap-allocation-free on the steady executor path (pinned by
  /// the pool's zero-allocation test).
  bool restore_snapshot();

  /// Direct restore from a caller-held snapshot captured on *this*
  /// testbed (the layer contracts restore in place; snapshots are not
  /// portable across instances).
  void restore(const TestbedSnapshot& snapshot);

  [[nodiscard]] const TestbedSnapshot& snapshot() const noexcept { return snapshot_; }

  // --- golden suffix ------------------------------------------------------
  /// The held point's golden suffix (the executor's decided-run state).
  /// Every capture_snapshot() and reset() clears it and drops the ladder;
  /// restores keep both.
  [[nodiscard]] GoldenSuffix& golden_suffix() noexcept { return golden_; }

  /// Report every DRAM page and GIC line-field read or write to `touches`
  /// (null stops reporting).
  void track_touches(util::TouchLog* touches) noexcept;

  /// Capture a ladder rung of the held point at the current tick boundary
  /// of its golden suffix, with the run context `point` (the call count to
  /// resume from). The rung's DRAM pages join the point's at the arena
  /// base, and the UART bytes, log records and root records the golden run
  /// appended since the point are kept beside the ladder. Returns false,
  /// capturing nothing, when the ladder is full, no point is held, or a
  /// guest's task, queue or alarm table grew since the point (those tables
  /// restore only along their history).
  bool capture_rung(const RunPoint& point);

  [[nodiscard]] std::size_t rungs() const noexcept { return rung_count_; }
  [[nodiscard]] const RunPoint& rung_point(std::size_t index) const noexcept {
    return rungs_[index].point;
  }

  /// Rewind to rung `index`: the golden suffix's state at that tick, from
  /// any state of a run of the held point that is behind the rung on the
  /// golden trajectory. Heap-allocation-free in steady state (pinned by
  /// the pool's zero-allocation test).
  void restore_rung(std::size_t index);
  [[nodiscard]] std::size_t snapshot_bytes() const noexcept {
    return snapshot_valid_ ? snapshot_.bytes : 0;
  }

  /// Enable the hypervisor with the root cell and bind the Linux image.
  /// Idempotent per instance; returns an error status on config problems.
  util::Status enable_hypervisor();

  /// Workload-cell tuning (RAM size, console kind) applied to the staged
  /// non-root cell configs. Must be set before enable_hypervisor().
  void set_cell_tuning(const jh::CellTuning& tuning) { tuning_ = tuning; }

  /// Stage the ivshmem shared window in both non-root cell configs so two
  /// concurrent cells can exchange doorbell + shared-memory traffic. Must
  /// be set before enable_hypervisor().
  void set_ivshmem(bool enabled) noexcept { ivshmem_ = enabled; }
  [[nodiscard]] bool ivshmem_enabled() const noexcept { return ivshmem_; }

  /// Time-advance policy for the underlying machine; TickPolicy::PerTick
  /// forces the legacy polling loop (golden-equivalence comparisons).
  void set_tick_policy(jh::TickPolicy policy) noexcept {
    machine_.set_tick_policy(policy);
  }

  /// Drive the root driver through `jailhouse cell create && cell start`
  /// for the cell whose config was registered at `config_addr`, bind
  /// `image` to it, and wait for the bring-up to settle (or fail — under
  /// injection every failure mode of §III can surface here, which is the
  /// point; the caller classifies afterwards). The booted cell becomes the
  /// monitored workload cell.
  void boot_cell(std::uint64_t config_addr, jh::GuestImage& image);

  /// The paper's two non-root payloads (one at a time on the Banana Pi;
  /// concurrently on boards with spare cores).
  void boot_freertos_cell() { boot_cell(kFreeRtosConfigAddr, freertos_); }
  void boot_osek_cell() { boot_cell(kOsekConfigAddr, osek_); }

  /// Boot the OSEK cell as a *secondary* cell alongside the monitored
  /// workload cell — its own core, the monitored cell untouched. Only
  /// meaningful on boards with ≥ 2 spare CPUs (osek_cpu() != the
  /// FreeRTOS CPU); the dual-cell and ivshmem-traffic scenarios use it
  /// for true concurrency instead of the time-shared swap.
  void boot_secondary_osek_cell();

  /// Management operations from the root shell, post-boot, against the
  /// current workload cell.
  void shutdown_workload_cell();
  void destroy_workload_cell();

  // Legacy names from the single-scenario harness; same cell.
  void shutdown_freertos_cell() { shutdown_workload_cell(); }
  void destroy_freertos_cell() { destroy_workload_cell(); }

  /// Run the whole machine for `ticks` board ticks.
  void run(std::uint64_t ticks);

  /// Run the whole machine up to the absolute board tick `target` — the
  /// deadline-driven window primitive (no-op when already past it).
  void run_until(util::Ticks target);

  /// Golden-run profiling (§III): run fault-free and report how often
  /// each candidate hypervisor function was entered.
  struct GoldenProfile {
    std::uint64_t irqchip_entries = 0;
    std::uint64_t trap_entries = 0;
    std::uint64_t hvc_entries = 0;
    std::vector<std::uint64_t> per_cpu_traps;  ///< sized board.num_cpus()
  };
  GoldenProfile profile_golden(std::uint64_t ticks);

  /// Guest-access fast-path instrumentation rolled up across the whole
  /// testbed. Every field is monotonic for the testbed's lifetime —
  /// surviving reset(), snapshot restore and cell destruction (the
  /// hypervisor retires dying cells' TLB counters into its tally) — so
  /// consumers window a run by differencing two samples. Allocation-free.
  struct AccessCounters {
    std::uint64_t tlb_hits = 0;       ///< stage-2 translations served from TLB
    std::uint64_t tlb_misses = 0;     ///< translations that walked the map
    std::uint64_t dram_fast_ops = 0;  ///< direct-map aligned word accesses
    std::uint64_t dram_slow_ops = 0;  ///< bounds-checked byte/block accesses
    std::uint64_t deadline_refreshes = 0;  ///< board deadline-cache re-polls
  };
  [[nodiscard]] AccessCounters access_counters() noexcept;

  // --- accessors ----------------------------------------------------------
  [[nodiscard]] platform::Board& board() noexcept { return *board_; }
  [[nodiscard]] jh::Hypervisor& hypervisor() noexcept { return hv_; }
  [[nodiscard]] jh::Machine& machine() noexcept { return machine_; }
  [[nodiscard]] guest::LinuxRootImage& linux_root() noexcept { return linux_; }
  [[nodiscard]] guest::FreeRtosImage& freertos() noexcept { return freertos_; }
  [[nodiscard]] guest::OsekImage& osek() noexcept { return osek_; }

  /// Cell id of the current workload (non-root) cell — 0 while none has
  /// been created. Scenarios that swap payloads retarget this on re-boot.
  [[nodiscard]] jh::CellId workload_cell_id() const noexcept { return cell_id_; }
  [[nodiscard]] jh::Cell* workload_cell() noexcept {
    return cell_id_ == 0 ? nullptr : hv_.find_cell(cell_id_);
  }

  /// The secondary (concurrent) non-root cell — 0/nullptr while none.
  [[nodiscard]] jh::CellId secondary_cell_id() const noexcept {
    return secondary_cell_id_;
  }
  [[nodiscard]] jh::Cell* secondary_cell() noexcept {
    return secondary_cell_id_ == 0 ? nullptr : hv_.find_cell(secondary_cell_id_);
  }

  /// Cross-cell traffic bookkeeping (mutated by the ivshmem-traffic
  /// scenario, read by the monitor's classification).
  [[nodiscard]] IvshmemTrafficStats& ivshmem_stats() noexcept { return ivshmem_stats_; }
  [[nodiscard]] const IvshmemTrafficStats& ivshmem_stats() const noexcept {
    return ivshmem_stats_;
  }

  // Legacy names; the FreeRTOS cell is the default workload.
  [[nodiscard]] jh::CellId freertos_cell_id() const noexcept { return cell_id_; }
  [[nodiscard]] jh::Cell* freertos_cell() noexcept { return workload_cell(); }

  /// The CPU statically assigned to the primary non-root cell.
  static constexpr int kFreeRtosCpu = 1;
  static constexpr int kRootCpu = 0;

  /// CPU the OSEK cell is pinned to on this board: the first core beyond
  /// the FreeRTOS cell's when the board has one (true concurrency),
  /// otherwise the shared non-root core 1 (the paper's time-shared swap).
  [[nodiscard]] int osek_cpu() const noexcept {
    return board_->num_cpus() >= 3 ? 2 : kFreeRtosCpu;
  }

  /// Whether this board can host both non-root payloads concurrently.
  [[nodiscard]] bool supports_concurrent_cells() const noexcept {
    return osek_cpu() != kFreeRtosCpu;
  }

 private:
  std::unique_ptr<platform::Board> board_;
  jh::Hypervisor hv_;
  jh::Machine machine_;
  guest::LinuxRootImage linux_;
  guest::FreeRtosImage freertos_;
  guest::OsekImage osek_;
  jh::CellId cell_id_ = 0;
  jh::CellId secondary_cell_id_ = 0;
  bool enabled_ = false;
  bool ivshmem_ = false;
  jh::CellTuning tuning_;
  IvshmemTrafficStats ivshmem_stats_;
  /// Per-run analysis scratch; 4 KiB covers the golden-profile buffers.
  /// Snapshot page payloads are placed at the base and survive rewinds.
  util::Arena run_arena_{4 * 1024};
  /// The state construction left; reset() restores it.
  TestbedSnapshot power_on_;
  TestbedSnapshot snapshot_;
  bool snapshot_valid_ = false;
  GoldenSuffix golden_;
  /// Grown on first use: most slots' points never get a rung.
  std::vector<TestbedSnapshot> rungs_;
  std::size_t rung_count_ = 0;
  /// Append-only state the golden suffix added after the point, up to its
  /// last rung: a rung restore cuts back to the point and re-appends.
  struct GoldenTails {
    std::string uart0;
    std::string uart1;
    std::vector<util::LogRecord> log;
    std::vector<guest::MgmtRecord> root;
  };
  GoldenTails tails_;

  void capture_into(TestbedSnapshot& out);
  void restore_state(const TestbedSnapshot& snapshot);
  void forget_golden_suffix() noexcept;
};

}  // namespace mcs::fi
