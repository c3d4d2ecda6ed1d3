// Multi-process sweep execution over the resumable logdir.
//
// The logdir SweepDriver resumes from (per-cell runlogs + plan-fingerprint
// sidecars, core/sweep.hpp) is already a coordination substrate: a cell's
// plan and seeds depend only on the spec, its artifacts commit via
// temp + rename, and completeness is decided from the files alone. So N
// worker *processes* — on one machine or on several hosts sharing the
// filesystem — can split a sweep with no shared memory at all,
// solo5libvmm-tender-style (one isolated process per unit of work): each
// worker leases grid cells via atomic claim files, executes leased cells
// through its own sharded CampaignExecutor (pooling + snapshot warm-start
// intact per process), streams the per-cell runlog + sidecar exactly as
// the single-process driver does, and releases the lease. Any worker — or
// a later SweepDriver/logreplay invocation — renders the byte-identical
// merged comparison report from the same logs.
//
// Lease protocol (all paths under the sweep logdir):
//
//   <cell>.lease   the claim file: "worker <id>\npid <p>\nheartbeat <n>\n
//                  generation <g>\n" (generation 0 for a fresh claim)
//   claim          write a unique temp file, then link(2) it to
//                  <cell>.lease — link fails with EEXIST when the lease
//                  exists, so exactly one claimer wins (atomic on POSIX
//                  shared filesystems, where O_CREAT|O_EXCL is not
//                  reliable over NFSv2/3)
//   heartbeat      periodically rewrite the lease (atomic replace),
//                  bumping its mtime + heartbeat counter
//   stale          lease mtime older than the TTL → holder presumed dead
//   steal          link(2) a claim of generation g+1 to the successor
//                  name <cell>.lease.<g+1> — exactly one stealer of a
//                  stale generation g wins it — then re-read the lease
//                  and, only if it is still that stale generation g,
//                  rename(2) the claim over it and unlink the successor.
//                  A stealer that judged g stale after a peer already
//                  replaced it finds g+1 in place and backs off; renaming
//                  the lease away instead (the old protocol) could take a
//                  peer's fresh claim and let two stealers win.
//   release        unlink
//
// Crash tolerance: a worker killed mid-cell leaves a lease that stops
// heartbeating; after the TTL any other worker steals it and re-executes
// the cell. A stolen lease whose holder was merely slow (not dead) is
// harmless: runs are deterministic in the plan and artifacts commit via
// whole-file renames, so duplicate executions write byte-identical files.
// The TTL therefore trades re-execution latency against duplicated work,
// never correctness. Clock skew between hosts eats into the TTL budget —
// keep the TTL well above (max cell wall time / heartbeat interval) plus
// the skew bound of the shared filesystem's timestamps.
#pragma once

#include <chrono>
#include <functional>
#include <optional>
#include <string>

#include "core/sweep.hpp"

namespace mcs::fi {

/// A decoded lease file plus its heartbeat age.
struct LeaseInfo {
  std::string cell_id;
  std::string worker_id;
  long pid = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t generation = 0;  ///< steals since the last fresh claim
  double age_seconds = 0.0;  ///< since the last heartbeat (lease mtime)
};

/// RAII ownership of one cell's claim file. Move-only; releasing (or
/// destroying) unlinks the lease so the cell becomes claimable again.
class CellLease {
 public:
  CellLease() = default;
  CellLease(CellLease&& other) noexcept;
  CellLease& operator=(CellLease&& other) noexcept;
  CellLease(const CellLease&) = delete;
  CellLease& operator=(const CellLease&) = delete;
  ~CellLease();

  [[nodiscard]] bool held() const noexcept { return !path_.empty(); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::string& worker_id() const noexcept {
    return worker_id_;
  }
  /// This claim reclaimed a stale (dead-holder) lease.
  [[nodiscard]] bool stole() const noexcept { return stole_; }

  /// Refresh the heartbeat: rewrite the lease (atomic replace) with a
  /// bumped counter, which also bumps its mtime. Returns false — and
  /// drops ownership without touching the file — when the lease on disk
  /// is no longer this worker's (stolen after a missed TTL): the holder
  /// should finish quietly and let the atomic artifact renames arbitrate.
  bool heartbeat();

  /// Unlink the claim file and drop ownership. Idempotent.
  void release();

  /// Drop ownership WITHOUT unlinking — the lease file stays behind as
  /// if this worker had died holding it (tests; exec-style handoff).
  void abandon() noexcept;

  /// Claim `<log_dir>/<cell_id>.lease` for `worker_id`. EBusy when a
  /// live (heartbeat younger than `ttl`) holder has it; a stale lease is
  /// stolen through its generation's successor name, so concurrent
  /// reclaimers of a dead worker's cell resolve to exactly one winner.
  /// EIo on filesystem errors.
  [[nodiscard]] static util::Expected<CellLease> try_claim(
      const std::string& log_dir, const std::string& cell_id,
      const std::string& worker_id, std::chrono::milliseconds ttl);

  [[nodiscard]] static std::string lease_path(const std::string& log_dir,
                                              const std::string& cell_id);

  /// Decode a cell's lease file, nullopt when absent (or vanishing
  /// mid-read — claims and releases race benignly with readers).
  [[nodiscard]] static std::optional<LeaseInfo> read(
      const std::string& log_dir, const std::string& cell_id);

 private:
  std::string path_;
  std::string worker_id_;
  long pid_ = 0;
  std::uint64_t heartbeats_ = 0;
  std::uint64_t generation_ = 0;
  bool stole_ = false;
};

/// The spec a distributed sweep persists into its logdir
/// (`<logdir>/sweep.spec`) so `--join` workers expand the identical grid.
inline constexpr const char* kSweepSpecFileName = "sweep.spec";

/// Atomically write `render_sweep_spec(spec)` to
/// `<spec.log_dir>/sweep.spec`. EINVAL when the spec has no logdir.
[[nodiscard]] util::Status write_spec_file(const SweepSpec& spec);

/// Parse `<log_dir>/sweep.spec`, overriding its logdir line with
/// `log_dir` (the joining host may mount the share elsewhere).
[[nodiscard]] util::Expected<SweepSpec> read_spec_file(
    const std::string& log_dir);

struct SweepWorkerConfig {
  std::string worker_id;  ///< lease owner id; empty → "w<pid>"
  /// Heartbeat age beyond which a lease counts stale (dead holder) and
  /// may be stolen. Zero → any existing lease is immediately stealable.
  std::chrono::milliseconds lease_ttl{60'000};
  /// How often the executing worker refreshes its heartbeat (per-run
  /// hook, throttled to this interval). Keep ≤ lease_ttl / 4.
  std::chrono::milliseconds heartbeat_interval{5'000};
  /// Pause between grid passes while other workers hold the remaining
  /// cells.
  std::chrono::milliseconds poll{200};
  /// Keep polling until every cell is complete (so run() returning OK
  /// means the whole grid is done and mergeable). False → return as soon
  /// as no cell is claimable, leaving stragglers to their holders.
  bool wait_for_stragglers = true;
};

/// Fired by SweepWorker after each cell it sees finish — executed here,
/// or found complete (another worker's, or a previous invocation's).
struct SweepWorkerProgress {
  const SweepCellResult* cell = nullptr;
  bool executed_here = false;
  std::size_t cells_done = 0;  ///< grid-wide, as far as this worker knows
  std::size_t cells_total = 0;
  std::uint64_t runs_executed_here = 0;  ///< cumulative, this worker
};

struct SweepWorkerStats {
  std::size_t executed = 0;  ///< cells this worker ran to completion
  std::size_t observed = 0;  ///< cells found complete (someone else's work)
  std::size_t stolen = 0;    ///< stale leases reclaimed from dead workers
  std::uint64_t runs_executed = 0;
};

/// One worker process's share of a sweep: loop over the grid, lease
/// incomplete cells, execute them through a private sharded
/// CampaignExecutor, and keep going until the whole grid is complete.
/// Safe to run concurrently — in other processes or other threads —
/// against the same logdir; the lease files arbitrate.
class SweepWorker {
 public:
  explicit SweepWorker(SweepSpec spec, ExecutorConfig executor = {},
                       SweepWorkerConfig worker = {});

  using ProgressFn = std::function<void(const SweepWorkerProgress&)>;
  void set_progress(ProgressFn fn) { progress_ = std::move(fn); }

  [[nodiscard]] const std::string& worker_id() const noexcept {
    return worker_.worker_id;
  }

  /// EINVAL when the spec has no logdir (nothing to coordinate over) or
  /// fails grid validation; EIo on filesystem failure. OK ⇒ with
  /// wait_for_stragglers, every grid cell is complete on disk.
  [[nodiscard]] util::Expected<SweepWorkerStats> run();

 private:
  SweepSpec spec_;
  ExecutorConfig executor_;
  SweepWorkerConfig worker_;
  ProgressFn progress_;
};

/// Options for the in-process coordinator behind `sweep --workers N`.
struct DistributedSweepOptions {
  unsigned workers = 2;
  /// Template for every child: worker_id becomes the id prefix (empty →
  /// "w"), children get "<prefix>0" … "<prefix>N-1".
  SweepWorkerConfig worker;
  /// Built in each child to observe its worker's progress (stderr
  /// reporting); called with the child's worker id. Null → silent.
  std::function<SweepWorker::ProgressFn(const std::string& worker_id)>
      make_worker_progress;
};

/// Fork `options.workers` child processes, each a SweepWorker over
/// `spec.log_dir` (spec file written first so late `--join` workers can
/// still pile on), wait for all of them, clean up dead children's lease
/// and temp litter, then fold the grid into a SweepResult by resuming
/// every cell from its log (re-executing any cell no worker completed —
/// the coordinator is the crash-tolerance backstop). The merged report
/// is byte-identical to the single-process SweepDriver's. Call before
/// spawning any threads in the calling process (fork(2) + threads don't
/// mix).
[[nodiscard]] util::Expected<SweepResult> run_distributed_sweep(
    const SweepSpec& spec, const ExecutorConfig& executor,
    const DistributedSweepOptions& options);

}  // namespace mcs::fi
