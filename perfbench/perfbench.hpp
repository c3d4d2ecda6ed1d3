// End-to-end campaign benchmark: shared declarations.
//
// The benchmark drives the simulator's public API only. Timed runs go
// through the product path (fi::CampaignExecutor + analysis::LogSink for
// campaigns, fi::SweepDriver for the grid); the traced run replays the
// same runs through the benchmark's own copy of the executor's run
// lifecycle so it can put a span around every layer call. Nothing under
// src/ knows it is being measured.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/outcome.hpp"
#include "core/plan.hpp"
#include "core/sweep.hpp"
#include "core/testbed.hpp"
#include "util/status.hpp"

namespace perfbench {

namespace fi = mcs::fi;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

inline constexpr std::uint64_t kDefaultSeed = 0xC0FFEE;

using OutcomeCounts = std::array<std::uint64_t, fi::kNumOutcomes>;

/// One named workload: the plans it runs (one per grid cell; a campaign is
/// a single cell) and, for the default seed, the outcome distribution it
/// must reproduce.
struct Workload {
  std::string name;
  bool grid = false;                ///< paper-grid: run through SweepDriver
  std::vector<fi::TestPlan> plans;  ///< grid order; plan.name is the cell id
  /// The grid (log_dir set per pass). A campaign keeps the one-cell spec
  /// nearest to its plan, whose expansion the traced run times.
  fi::SweepSpec spec;
  bool pinned = false;              ///< default seed: `pin` applies
  OutcomeCounts pin{};              ///< summed over every cell
  /// One timed repetition (a 1-worker and an N-worker pass) on the slowest
  /// host observed; a timed run makes --seconds / rep_seconds of them.
  double rep_seconds = 1.0;
};

/// Build a workload's plans from the registries. `tiny` shrinks runs and
/// windows for the self-test.
[[nodiscard]] mcs::util::Expected<Workload> make_workload(std::string_view name,
                                                          std::uint64_t seed,
                                                          bool tiny);

/// Every counter the layers keep in the structs the metrics-registry
/// work will replace, read in this one place: TestbedPool::Stats,
/// Testbed::AccessCounters and util::LogPipeCounters.
struct LayerCounters {
  std::uint64_t pool_resets = 0;
  std::uint64_t pool_restores = 0;
  std::uint64_t pool_captures = 0;
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t dram_fast_ops = 0;
  std::uint64_t dram_slow_ops = 0;
  std::uint64_t deadline_refreshes = 0;
  std::uint64_t parse_lines = 0;
};

/// Pool and log-pipe counters, plus `testbed`'s access counters when one
/// is given; without one, the pool's sums over every executor run.
[[nodiscard]] LayerCounters read_counters(fi::Testbed* testbed);

/// What one traced pass over a workload measured. Times are host
/// nanoseconds summed over the pass; counts are exact sums over its runs.
struct TraceTally {
  std::uint64_t runs = 0;
  double provision_ns = 0, boot_ns = 0, window_ns = 0, classify_ns = 0;
  double sink_ns = 0;
  double guest_window_ns = 0, guest_quantum_ns = 0;
  std::array<double, 3> image_ns{};  ///< linux-root, freertos, osek
  double wall_ns = 0;
  // Exact counts.
  std::uint64_t restores = 0, resets = 0, captures = 0;
  std::uint64_t snapshot_bytes = 0, dirty_pages = 0;  ///< at the last capture
  std::uint64_t injections = 0, filtered_calls = 0;
  std::uint64_t quanta = 0, timer_calls = 0, irq_calls = 0, start_calls = 0;
  std::uint64_t rtos_dispatches = 0;
  std::uint64_t traps = 0, hvcs = 0, irqs = 0, mmio_emulations = 0;
  std::uint64_t cpu_parks = 0, panics = 0;
  std::uint64_t sgi = 0, ppi = 0, spi = 0;
  std::uint64_t tlb_hits = 0, tlb_misses = 0, dram_fast = 0, dram_slow = 0;
  std::uint64_t deadline_refreshes = 0, uart1_bytes = 0;

  /// The exact counts by name (repeat passes must agree on every one).
  [[nodiscard]] std::vector<std::pair<std::string_view, std::uint64_t>> counts() const;

  /// Add another pass's times (not its counts) to this one's.
  void add_times(const TraceTally& other);
};

/// Replay every run of `workload` at one thread through the benchmark's
/// copy of CampaignExecutor::run_with on fresh private testbeds, timing
/// each layer call. Appends each cell's run log (LogSink order) to
/// `logs`. Guest callbacks are timed one in `sample_every` (randomised
/// intervals, scaled by the exact call counts, minus `empty_span_ns`).
[[nodiscard]] TraceTally traced_pass(const Workload& workload,
                                     std::vector<std::string>& logs,
                                     unsigned sample_every, double empty_span_ns);

/// Median cost of an empty steady_clock span on this host, in ns.
[[nodiscard]] double calibrate_empty_span_ns();

}  // namespace perfbench
