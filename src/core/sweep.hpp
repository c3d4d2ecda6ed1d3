// Multi-campaign sweep driver: the paper's assessment grid as one run.
//
// The dependability argument of §III is not a single campaign but a grid
// of them — scenarios × fault-intensity levels (rates) × boards — each
// summarized and compared (Figure 3 against the high-intensity shapes).
// SweepSpec names that grid; SweepDriver expands it into one TestPlan per
// cell, hands the runs of every cell it must execute to one RunQueue
// (core/executor.hpp), so one set of workers learns each rewind key once
// and serves every cell that shares it, streams each cell's run log to
// its own file, and folds the per-cell CampaignAggregates, in grid order,
// into a sweep-level result the comparison report renders side by side.
//
// Determinism: expansion always enumerates the full grid in one fixed
// order (scenario-major, then rate, then board) and deals per-cell seeds
// from one serial SplitMix64 expansion of the base seed — so a cell's
// plan, and therefore its runs, depend only on the spec, never on which
// cells happen to execute or resume. With per-cell logs persisted, an
// interrupted sweep re-invoked with the same spec rebuilds completed
// cells' aggregates from their logs (analysis::scan_run_log),
// re-executes only incomplete cells, and produces a bit-identical result.
// A sidecar fingerprint per cell ties each log to the exact plan that
// wrote it, so reusing a log directory with a changed spec re-executes
// rather than silently resuming stale data.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/log_sink.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "util/status.hpp"

namespace mcs::fi {

/// The sweep grid: every list is one axis; the driver takes the cross
/// product. Value type, cheap to copy, parseable from config text.
struct SweepSpec {
  std::string name = "sweep";
  std::vector<std::string> scenarios;    ///< ScenarioRegistry keys (≥ 1)
  std::vector<std::uint32_t> rates;      ///< inject-every-Nth-call levels (≥ 1)
  std::vector<std::string> boards;       ///< BoardRegistry keys; empty → the
                                         ///< scenario default, no board axis
  std::vector<std::string> domains;      ///< fi::FaultDomain names; empty →
                                         ///< the scenario default, no axis
  std::uint32_t runs = 8;                ///< runs per grid cell
  std::uint64_t seed = 0xC0FFEE;         ///< base seed; cells derive from it
  std::uint64_t duration_ticks = 0;      ///< 0 → the scenario/plan default
  std::string cell_tuning;               ///< applied to every cell (validated)
  std::string log_dir;  ///< per-cell run logs + resume; empty → in-memory only

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return scenarios.size() * rates.size() *
           (boards.empty() ? 1 : boards.size()) *
           (domains.empty() ? 1 : domains.size());
  }
};

/// Parse a sweep spec from config text, same conventions as
/// jh::parse_cell_tuning (one key per line, # comments, blank lines ok):
///
///   sweep "paper-grid"                 # optional name
///   scenario freertos-steady dual-cell # or one per line, accumulating
///   rate 100 50
///   board bananapi quad-a7             # optional axis
///   domain register gic dram           # optional fault-domain axis
///   runs 8
///   seed 0xC0FFEE
///   duration 60000
///   tuning ram 0x200000; console trapped   # ';' separates tuning lines
///   logdir sweep-logs
///
/// EINVAL with a line-numbered message on malformed input, duplicated
/// axis values (they would alias per-cell log files) or an empty grid.
[[nodiscard]] util::Expected<SweepSpec> parse_sweep_spec(std::string_view text);

// --- shared cell-persistence primitives -------------------------------------
// Used by SweepDriver and by the multi-process SweepWorker runtime
// (core/sweep_worker.hpp): one cell's on-disk artifacts — run log +
// fingerprint sidecar — are written crash-tolerantly and validated the
// same way no matter which process produced them.

/// Everything that determines a cell's runs, as deterministic text. The
/// sidecar `<cell>.runlog.meta` persists this; resume refuses a log whose
/// fingerprint doesn't match the current plan, so reusing a logdir with a
/// changed seed/rate/duration/tuning re-executes instead of silently
/// serving stale aggregates.
[[nodiscard]] std::string plan_fingerprint(const TestPlan& plan);

/// The fingerprint sidecar path for a cell log ("<log_path>.meta").
[[nodiscard]] std::string cell_meta_path(const std::string& log_path);

/// Write `text` to `path` atomically: stream into `<path>.<tag>.tmp`,
/// flush, then std::filesystem::rename into place — a crash mid-write can
/// never leave a truncated file at `path`, and concurrent writers of the
/// same path commit whole files, last rename wins. `tag` keeps writers'
/// temp files apart; empty → the calling process id.
[[nodiscard]] util::Status write_text_atomic(const std::string& path,
                                             std::string_view text,
                                             const std::string& tag = "");

/// True when `log_path` holds a complete run log written by exactly
/// `plan`: the sidecar fingerprint matches the plan, and the log has
/// every index 0..runs-1 exactly once with no malformed lines. Fills
/// `aggregate` (bit-identical to the live sink's) on success.
[[nodiscard]] bool cell_log_complete(const TestPlan& plan,
                                     const std::string& log_path,
                                     analysis::CampaignAggregate& aggregate);

/// Execute one grid cell and persist its artifacts crash-tolerantly, by
/// the same commit sequence SweepDriver::execute() uses per cell: the
/// stale fingerprint goes first, the run log streams into
/// `<log_path>.<tag>.tmp` and is renamed into place only once complete,
/// and the fingerprint sidecar follows, temp + rename too. An
/// interruption anywhere leaves either the previous artifacts or none —
/// never a truncated log — and because per-cell runs are deterministic in
/// the plan, a concurrent duplicate execution of the same cell (a stolen
/// lease whose old holder turned out alive) is harmless: both writers
/// commit byte-identical bytes atomically. Empty `log_path` → execute in
/// memory, persist nothing. `per_run` (optional) fires after each
/// recorded run, serialized by the executor's progress mutex — the
/// lease-heartbeat hook of the distributed runtime.
[[nodiscard]] util::Expected<analysis::CampaignAggregate> execute_cell(
    const TestPlan& plan, const std::string& log_path,
    const ExecutorConfig& config, const std::string& tag = "",
    const std::function<void(std::uint32_t)>& per_run = {});

/// Render a spec as config text that round-trips through
/// parse_sweep_spec — what a distributed coordinator persists as
/// `<logdir>/sweep.spec` so `--join` workers on the same shared
/// filesystem expand the exact same grid (same cell ids, same per-cell
/// seeds) with no other coordination channel.
[[nodiscard]] std::string render_sweep_spec(const SweepSpec& spec);

/// One executed (or resumed) grid cell.
struct SweepCellResult {
  std::string id;        ///< "scenario_rN[_board]" — also the log file stem
  TestPlan plan;         ///< the fully expanded plan the cell ran with
  std::string log_path;  ///< persisted run log; empty when not persisted
  analysis::CampaignAggregate aggregate;
  bool resumed = false;  ///< rebuilt from the persisted log, not executed
};

struct SweepResult {
  SweepSpec spec;
  std::vector<SweepCellResult> cells;       ///< grid order
  analysis::CampaignAggregate total;        ///< all cells merged, grid order
  std::size_t executed = 0;
  std::size_t resumed = 0;
};

class SweepDriver {
 public:
  explicit SweepDriver(SweepSpec spec, ExecutorConfig config = {});

  /// Fired once per cell (executed or resumed), in grid order, as soon as
  /// the cell and every cell before it are done — an executed cell once
  /// its log and fingerprint are committed. Calls come from the run
  /// queue's workers, serialised by its result lock.
  using CellProgressFn = std::function<void(const SweepCellResult&)>;
  void set_cell_progress(CellProgressFn fn) { cell_progress_ = std::move(fn); }

  /// The grid as ready-to-execute TestPlans, in the fixed grid order,
  /// seeds dealt. EINVAL on an invalid spec (empty axis, unknown
  /// scenario/board key, malformed tuning).
  [[nodiscard]] util::Expected<std::vector<TestPlan>> expand() const;

  /// Execute the sweep: resume completed cells from their persisted logs
  /// (when spec.log_dir is set), execute the rest, fold everything into a
  /// SweepResult. The resume scan — a pure read per cell — runs on a
  /// util::ThreadPool of config.threads workers. Every unresumed cell's
  /// runs then go to one RunQueue of config.threads workers; each cell
  /// streams into its own LogSink, opened with its first result and
  /// committed (temp log renamed into place, then the fingerprint) with
  /// its last. The fold stays in grid order, so results are deterministic
  /// in the spec for any thread count and any executed/resumed split. A
  /// persistence failure stops the queue and returns EIo naming the cell;
  /// cells committed before it resume on the next invocation.
  [[nodiscard]] util::Expected<SweepResult> execute();

  [[nodiscard]] const SweepSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const ExecutorConfig& config() const noexcept { return config_; }

  /// The log file a cell persists to under `log_dir` ("<id>.runlog").
  [[nodiscard]] static std::string cell_log_path(const std::string& log_dir,
                                                 const std::string& cell_id);

 private:
  SweepSpec spec_;
  ExecutorConfig config_;
  CellProgressFn cell_progress_;
};

}  // namespace mcs::fi
