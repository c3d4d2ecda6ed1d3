// Campaign execution engine: shards a test plan's runs across worker
// threads, each run on a private Testbed, with results written into
// pre-assigned slots.
//
// Determinism contract: a campaign's CampaignResult is bit-identical for
// any thread count. Every run's seed comes from one serial SplitMix64
// expansion of the plan seed, runs share no state (private Testbed, private
// Injector/RNG), and each result lands in its own pre-sized slot — worker
// scheduling can reorder *completion*, never *content*.
//
// Run lifecycle: each worker thread checks one long-lived (board,
// testbed) slot out of the fi::TestbedPool for its whole shard. Besides
// its power-on state, the slot holds one snapshot, a *rewind point*: the
// latest tick boundary that every run of the plan shares. A run's seed
// reaches only its Injector, which draws from its RNG only when it
// injects, so all runs of a plan are identical up to the tick of their
// first injecting call. The slot's first run for a rewind key is its
// learning run: it restores power-on (Testbed::reset) and boots,
// captures at window open if nothing was injected yet, and, when the
// scenario's window is flat (one run_until to the close), steps tick by
// tick until the injector has counted every call before the first
// injecting one (or the window closes) and captures again there. Every
// later run restores the point, resumes the monitor's marks and the
// injector's call count from it, and runs only the rest of the window.
// Scenarios whose first injection falls during boot have no rewind point
// and restore power-on + boot per run. The board name and registry entry
// are resolved once at construction, never in the per-run loop.
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

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

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

class CampaignExecutor {
 public:
  /// The scenario is resolved from plan.scenario via the ScenarioRegistry
  /// at execute() time; an unknown key yields HarnessError runs. The
  /// board is resolved here, once: tuning's `board` key overrides the
  /// plan's, and the registry entry is cached so the per-run path never
  /// re-locks the registry — an unknown board key yields HarnessError
  /// runs, exactly as the per-run lookup did.
  explicit CampaignExecutor(TestPlan plan, ExecutorConfig config = {});

  /// Per-run completion callback, fired as runs finish. With more than one
  /// worker the completion order is nondeterministic — the index argument,
  /// not the call order, identifies the run. Called under an internal
  /// mutex: callbacks never race each other.
  using ProgressFn = std::function<void(std::uint32_t, const RunResult&)>;
  void set_progress(ProgressFn fn) { progress_ = std::move(fn); }

  /// Execute all runs of the plan. Deterministic in (plan.seed, plan),
  /// independent of config.threads.
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
  /// One run on `reused` (restored to its rewind point, else to power-on)
  /// or, when null, on a freshly built testbed (the oracle).
  [[nodiscard]] RunResult run_with(const Scenario* scenario,
                                   std::uint64_t run_seed,
                                   Testbed* reused) const;

  /// How a window ended: at its close, on the golden trajectory (the
  /// golden suffix's result applies), or on a panicked machine.
  enum class WindowEnd { Close, GoldenResult, PanicStop };

  /// The learning run's window on a pooled slot: capture the rewind
  /// point(s), run the point's golden suffix when it has one, then serve
  /// the run from the point like a restored run (else run to the close).
  [[nodiscard]] WindowEnd learn_window(const Scenario& scenario, Testbed& testbed,
                                       const RunMonitor& monitor,
                                       Injector& injector) const;

  /// Run the rest of the window fault-free from the held point, keeping
  /// its result, ladder and touch log with it; ends restored to the point.
  void run_golden_suffix(const Scenario& scenario, Testbed& testbed,
                         const RunMonitor& monitor) const;

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
  [[nodiscard]] TestbedLease lease_slot(const Scenario* scenario) const;

  TestPlan plan_;
  ExecutorConfig config_;
  ProgressFn progress_;
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
  /// length. Completed by execute() once the scenario is resolved; the
  /// seed, fault model, registers, count, domain and the rate beyond the
  /// first call stay out.
  std::string rewind_key_;
};

}  // namespace mcs::fi
