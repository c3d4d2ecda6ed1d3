// Campaign execution engine: runs a test plan's runs on worker threads,
// each run on a private Testbed, with results written into pre-assigned
// slots. RunQueue serves the runs of several plans (a sweep's cells) from
// one set of workers; CampaignExecutor::execute() is its one-plan case.
//
// Determinism contract: a campaign's CampaignResult is bit-identical for
// any thread count. Every run's seed comes from one serial SplitMix64
// expansion of the plan seed, runs share no state (private Testbed, private
// Injector/RNG), and each result lands in its own pre-sized slot — worker
// scheduling can reorder *completion*, never *content*.
//
// Run lifecycle: each worker holds one long-lived (board, testbed) slot
// from the fi::TestbedPool at a time and keeps it across consecutive
// groups of runs with the same slot key. Besides its power-on state, the
// slot holds one snapshot, a *rewind point*: the latest tick boundary
// that every run of the plan shares. A run's seed reaches only its
// Injector, which draws from its RNG only when it injects, so all runs of
// a plan are identical up to the tick of their first injecting call. The
// slot's first run for a rewind key is its learning run: it restores
// power-on (Testbed::reset) and boots, captures at window open if nothing
// was injected yet, and, when the scenario's window is flat (one
// run_until to the close), steps tick by tick until the injector has
// counted every call before the first injecting one (or the window
// closes) and captures again there. Every later run restores the point,
// resumes the monitor's marks and the injector's call count from it, and
// runs only the rest of the window. Scenarios whose first injection falls
// during boot have no rewind point and restore power-on + boot per run.
// The scenario, the board name and registry entry are resolved once at
// construction, never in the per-run loop.
//
// Run queue: RunQueue groups the runs of its plans by rewind key, in plan
// order, so a group's learning run pays for every run of the group that
// its worker serves. Workers keep to their own group and join one already
// in progress only below its share of the width, or once every group is
// at its share, while the group's unclaimed runs outweigh the learning
// run each joiner makes on its own slot (claim_run_group is the rule;
// affinity scheduling after Markatos & LeBlanc, IEEE TPDS 1994). A plan
// alone in the queue is one group whose share is the whole width.
//
// Golden suffix: right after a flat window's learning run captures its
// point, it runs the rest of the window once more with a counting,
// never-injecting injector (Injector::set_golden) and keeps three things
// with the point: the fault-free RunResult (epilogue, finish() and probe
// included), a ladder of up to kLadderRungs snapshots, one at the tick
// boundary before each later injecting call in the window, and a touch
// log (util::TouchLog) of the last injecting-call interval in which the
// golden run read or wrote each DRAM page and each GIC line's enable,
// priority and target. Then it restores the point and serves its own run
// like any restored run. A point whose window holds no injecting call, or
// that the learning run has already injected past, gets no suffix.
//
// Decided runs: a restored run of a flat window runs to the tick of each
// injecting call the golden run saw. There, if its hypervisor panicked,
// it skips the rest of the window, since nothing executes on a panicked
// machine (Machine::run_tick). If every injection so far is dead
// (Injector::dead: a register flip no handler read, a no-op, or DRAM/GIC
// changes the golden run never touches from that call on) it is still on
// the golden trajectory: with no injecting call left in the window it
// takes the golden result plus its own injection fields; otherwise it
// restores the next rung, writes its dead changes back (fi::write_back)
// and goes on. A live injection, or a run past the last rung, runs to the
// close. Either way the epilogue and classification see exactly what the
// full window would have left. Capturing a point or resetting the slot
// forgets the golden suffix and its ladder.
//
// There is one production path and one oracle: execute_one() builds a
// fresh testbed and runs the whole window, no pool, no point, no decided
// run. Results are bit-identical to execute()'s (the snapshot-
// equivalence and decided-run suites assert it against execute_one).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "core/testbed_pool.hpp"
#include "platform/board_registry.hpp"

namespace mcs::fi {

class Injector;
class RunMonitor;

struct ExecutorConfig {
  /// Worker threads; 0 → util::ThreadPool::default_threads() (the
  /// MCS_CAMPAIGN_THREADS environment variable, else hw_concurrency).
  unsigned threads = 0;

  /// Issue the paper's post-mortem `jailhouse cell shutdown` probe after
  /// failed runs (Campaign::set_probe_recovery's knob).
  bool probe_recovery = true;

  /// Per-run time-advance policy. EventDriven (default) leaps inert
  /// spans between deadlines; PerTick forces the legacy polling loop.
  /// Results are bit-identical either way (the tick-equivalence suite
  /// asserts it); PerTick exists for those golden comparisons.
  jh::TickPolicy tick_policy = jh::TickPolicy::EventDriven;
};

class RunQueue;

class CampaignExecutor {
 public:
  /// The scenario is resolved here from plan.scenario via the
  /// ScenarioRegistry; an unknown key yields HarnessError runs. So is the
  /// board: tuning's `board` key overrides the plan's, and the registry
  /// entry is cached so the per-run path never re-locks the registry — an
  /// unknown board key yields HarnessError runs, exactly as the per-run
  /// lookup did.
  explicit CampaignExecutor(TestPlan plan, ExecutorConfig config = {});

  /// Per-run completion callback, fired as runs finish. With more than one
  /// worker the completion order is nondeterministic — the index argument,
  /// not the call order, identifies the run. Called under an internal
  /// mutex: callbacks never race each other.
  using ProgressFn = std::function<void(std::uint32_t, const RunResult&)>;
  void set_progress(ProgressFn fn) { progress_ = std::move(fn); }

  /// Execute all runs of the plan: a RunQueue of this one plan at
  /// config.threads workers. Deterministic in (plan.seed, plan),
  /// independent of config.threads. One worker runs in the caller's
  /// thread, in run order, and holds its slot's lease across progress
  /// callbacks.
  [[nodiscard]] CampaignResult execute();

  /// Execute a single run with an explicit seed on a freshly constructed
  /// testbed, whole window, no pool: the oracle every equivalence suite
  /// compares execute() with, and the replay path (one-off replays
  /// shouldn't grow the process-wide pool).
  [[nodiscard]] RunResult execute_one(std::uint64_t run_seed) const;

  [[nodiscard]] const TestPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const ExecutorConfig& config() const noexcept { return config_; }

  /// The board registry key this executor's runs resolve to (tuning
  /// override already applied).
  [[nodiscard]] const std::string& board_name() const noexcept {
    return board_name_;
  }

 private:
  friend class RunQueue;

  /// One run on `reused` (restored to its rewind point, else to power-on)
  /// or, when null, on a freshly built testbed (the oracle).
  [[nodiscard]] RunResult run_with(std::uint64_t run_seed, Testbed* reused) const;

  /// How a window ended: at its close, on the golden trajectory (the
  /// golden suffix's result applies), or on a panicked machine.
  enum class WindowEnd { Close, GoldenResult, PanicStop };

  /// The learning run's window on a pooled slot: capture the rewind
  /// point(s), run the point's golden suffix when it has one, then serve
  /// the run from the point like a restored run (else run to the close).
  [[nodiscard]] WindowEnd learn_window(Testbed& testbed, const RunMonitor& monitor,
                                       Injector& injector) const;

  /// Run the rest of the window fault-free from the held point, keeping
  /// its result, ladder and touch log with it; ends restored to the point.
  void run_golden_suffix(Testbed& testbed, const RunMonitor& monitor) const;

  /// A flat window resumed at the point, split at the golden run's
  /// injecting ticks: stop when the run is decided, climb the ladder while
  /// its injections stay dead, else run to the close.
  [[nodiscard]] WindowEnd resume_flat_window(Testbed& testbed,
                                             Injector& injector) const;

  /// Whether the recovery probe follows a run that ended with `result`.
  [[nodiscard]] bool probes(const RunResult& result) const;

  /// A pool lease for this executor's slot key, or an empty lease when
  /// the campaign can only produce HarnessErrors (unknown scenario/board,
  /// malformed tuning, rate 0) — error campaigns must not provision
  /// hardware.
  [[nodiscard]] TestbedLease lease_slot() const;

  /// Whether a lease taken for `other` serves this executor's runs too.
  [[nodiscard]] bool shares_slot_with(const CampaignExecutor& other) const;

  TestPlan plan_;
  ExecutorConfig config_;
  ProgressFn progress_;
  /// plan_.scenario resolved once at construction (nullptr → per-run
  /// HarnessError).
  const Scenario* scenario_ = nullptr;
  /// plan_.cell_tuning parsed once at construction; runs reuse the value
  /// (or report the parse failure as a per-run HarnessError).
  jh::CellTuning tuning_;
  util::Status tuning_status_;
  /// Board resolution hoisted out of the per-run loop: the effective
  /// registry key and its cached entry (nullptr → per-run HarnessError).
  std::string board_name_;
  std::shared_ptr<const platform::BoardRegistry::Entry> board_;
  /// Slot key, precomputed once: the board plus what setup()/boot() see
  /// of the plan — the tuning fields that reach the machine (RAM size,
  /// console kind), the scenario and the tick policy. Runs with equal
  /// slot keys boot to bit-identical state; the fault domain and every
  /// other injection field stay out. `machine_tuning_` and
  /// `pool_extra_key_` are the parts the pool joins to the board name.
  std::string machine_tuning_;
  std::string pool_extra_key_;
  /// Rewind key: the slot key plus what decides the shared prefix — hook
  /// target, CPU filter, first injecting call, arm-during-boot and window
  /// length; the seed, fault model, registers, count, domain and the rate
  /// beyond the first call stay out. Empty for a campaign that can only
  /// produce HarnessErrors, which leases no slot.
  std::string rewind_key_;
};

/// The claim rule's view of one group of a RunQueue: the queued runs of
/// every plan with one rewind key.
struct RunGroupCounters {
  std::uint64_t runs = 0;     ///< runs in the group
  std::uint64_t claimed = 0;  ///< runs handed out so far
  unsigned workers = 0;       ///< workers that have taken runs from it
};

/// claim_run_group's answer when nothing is claimable: the worker stops.
inline constexpr std::size_t kNoRunGroup = static_cast<std::size_t>(-1);

/// What a learning run costs, in restored runs of its rewind key, rounded
/// up: on CI's rewind spec (default window) a flat window's learning run
/// (boot, window and golden suffix) took 5–31 times its key's mean
/// restored run. A worker that joins a group at its share pays one, so it
/// joins only a group with more unclaimed runs than this per worker.
inline constexpr std::uint64_t kLearningRunCost = 32;

/// The group a worker at `width` takes its next run from, given its own
/// group `own` (kNoRunGroup before its first claim): its own group while
/// it has unclaimed runs; else the first group no worker has started;
/// else the first started group with unclaimed runs that has fewer
/// workers than its share, ⌈runs × width ⁄ queued runs⌉; else the group
/// with the most unclaimed runs per worker, if that is more than
/// kLearningRunCost; else kNoRunGroup. A pure function of the counters,
/// in plan order. Claims and workers only grow, so a worker that gets
/// kNoRunGroup would get it again.
[[nodiscard]] std::size_t claim_run_group(const std::vector<RunGroupCounters>& groups,
                                          std::size_t own, unsigned width);

/// One run queue over the runs of several plans, served by one set of
/// workers under the claim rule above. A worker holds one pool slot at a
/// time: it keeps its lease while the next run's plan shares its slot
/// key, and releases it before leasing another. Each run depends only on
/// its plan and seed, so which worker runs it never shows in its result.
class RunQueue {
 public:
  /// Fired once per finished run with the plan's position in the queue
  /// and the run's index in its plan. Calls are serialised by an internal
  /// mutex, and may call stop().
  using ResultFn =
      std::function<void(std::size_t plan, std::uint32_t index, RunResult run)>;

  /// Queue every run of `plans` (not owned; they must outlive the queue)
  /// for `threads` workers: 0 → util::ThreadPool::default_threads(),
  /// clamped to the pool's bound and to the number of queued runs.
  RunQueue(std::vector<const CampaignExecutor*> plans, unsigned threads);

  /// Run until every queued run has finished or stop() was called. One
  /// worker runs in the caller's thread, in queue order.
  void execute(const ResultFn& on_result);

  /// Hand out no further runs; runs already started still finish and are
  /// reported.
  void stop() noexcept { stopped_.store(true, std::memory_order_relaxed); }

 private:
  struct QueuedRun {
    std::size_t plan;
    std::uint32_t index;
    std::uint64_t seed;  ///< from execute()'s SplitMix64 expansion
  };

  void work(const ResultFn& on_result);

  std::vector<const CampaignExecutor*> plans_;
  /// Per group, its runs in plan order; a group's `claimed` counter is
  /// the position of its next unclaimed run.
  std::vector<std::vector<QueuedRun>> group_runs_;
  unsigned width_ = 1;
  std::atomic<bool> stopped_{false};
  std::mutex claim_mutex_;  ///< guards counters_
  std::vector<RunGroupCounters> counters_;
  std::mutex result_mutex_;  ///< serialises on_result
};

}  // namespace mcs::fi
