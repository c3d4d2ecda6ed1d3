#include "core/executor.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "core/injector.hpp"
#include "core/monitor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mcs::fi {

namespace {

RunResult harness_error(std::string detail) {
  RunResult result;
  result.outcome = Outcome::HarnessError;
  result.detail = std::move(detail);
  return result;
}

/// The tuning fields jh::apply_cell_tuning applies to the machine, in one
/// canonical form. `board` picks the slot's board and `fault domain`
/// never reaches the machine, so neither is here.
std::string machine_tuning_key(const jh::CellTuning& tuning) {
  std::string key;
  if (tuning.ram_size != 0) key += "ram " + std::to_string(tuning.ram_size);
  if (tuning.has_console_kind) {
    if (!key.empty()) key += '\n';
    key += "console " + std::to_string(static_cast<int>(tuning.console_kind));
  }
  return key;
}

}  // namespace

CampaignExecutor::CampaignExecutor(TestPlan plan, ExecutorConfig config)
    : plan_(std::move(plan)), config_(config) {
  if (!plan_.cell_tuning.empty()) {
    auto tuning = jh::parse_cell_tuning(plan_.cell_tuning);
    if (tuning.is_ok()) {
      tuning_ = tuning.value();
    } else {
      tuning_status_ = tuning.status();
    }
  }
  // The tuning's fault-domain key (if any) overrides the plan's, like the
  // board key below. Plans built via ScenarioRegistry::make arrive with
  // the override already applied; this re-resolution covers plans whose
  // tuning was attached directly (the sweep expand path). An unknown name
  // is a HarnessError on every run, like a malformed tuning.
  if (tuning_status_.is_ok() && !tuning_.fault_domain.empty() &&
      !fault_domain_from_name(tuning_.fault_domain, plan_.fault_domain)) {
    tuning_status_ = util::invalid_argument("unknown fault domain '" +
                                            tuning_.fault_domain + "'");
  }
  // Board resolution, once per campaign instead of once per run: the
  // tuning's `board` key (if any) overrides the plan's, and the registry
  // entry is cached so runs construct boards without re-locking the
  // registry. An unknown key is reported as a HarnessError on every run
  // (first included), exactly as the per-run lookup did.
  board_name_ = !tuning_.board.empty() ? tuning_.board : plan_.board;
  board_ = platform::BoardRegistry::instance().entry(board_name_);
  // Slot identity ('\x1f' separators match the pool's key encoding).
  const char* policy_tag =
      config_.tick_policy == jh::TickPolicy::PerTick ? "pertick" : "event";
  machine_tuning_ = machine_tuning_key(tuning_);
  pool_extra_key_ = plan_.scenario + '\x1f' + policy_tag;
  scenario_ = find_scenario(plan_.scenario);
  // Campaigns that can only produce HarnessErrors lease no slot and keep
  // an empty rewind key.
  if (board_ != nullptr && scenario_ != nullptr && tuning_status_.is_ok() &&
      plan_.rate != 0) {
    rewind_key_ = board_name_ + '\x1f' + machine_tuning_ + '\x1f' +
                  pool_extra_key_ + '\x1f' +
                  std::to_string(static_cast<int>(plan_.target)) + '\x1f' +
                  std::to_string(plan_.cpu_filter) + '\x1f' +
                  std::to_string(plan_.first_injection_call()) + '\x1f' +
                  (scenario_->arm_during_boot(plan_) ? "boot" : "window") +
                  '\x1f' + std::to_string(plan_.duration_ticks);
  }
}

TestbedLease CampaignExecutor::lease_slot() const {
  // Don't provision hardware for campaigns whose every run is a
  // HarnessError anyway (unknown scenario/board, malformed tuning, rate 0).
  if (rewind_key_.empty()) return TestbedLease{};
  // Slots are keyed by scenario and tick policy too, so a parked slot's
  // rewind point is one its next campaign may share.
  return TestbedPool::instance().acquire(board_name_, machine_tuning_, *board_,
                                         pool_extra_key_);
}

bool CampaignExecutor::shares_slot_with(const CampaignExecutor& other) const {
  return rewind_key_.empty() == other.rewind_key_.empty() &&
         board_name_ == other.board_name_ &&
         machine_tuning_ == other.machine_tuning_ &&
         pool_extra_key_ == other.pool_extra_key_;
}

RunResult CampaignExecutor::run_with(std::uint64_t run_seed, Testbed* reused) const {
  const Scenario* scenario = scenario_;
  if (scenario == nullptr) {
    return harness_error("unknown scenario '" + plan_.scenario + "'");
  }

  if (plan_.rate == 0) return harness_error("rate must be ≥ 1");

  if (!tuning_status_.is_ok()) {
    return harness_error("bad cell tuning: " + tuning_status_.to_string());
  }

  if (board_ == nullptr) {
    return harness_error("unknown board '" + board_name_ + "'");
  }

  // A pooled run restores the slot's rewind point when it holds this
  // rewind key's, else power-on, then sets up, boots and learns the
  // point. The oracle (execute_one) builds a private board from the
  // cached registry entry and runs the whole window.
  const bool arm_during_boot = scenario->arm_during_boot(plan_);
  std::optional<Testbed> fresh;
  Testbed* testbed = reused;
  bool restored = false;
  if (testbed != nullptr) {
    restored = testbed->has_snapshot(rewind_key_) && testbed->restore_snapshot();
    if (!restored) testbed->reset();
  } else {
    fresh.emplace(board_->factory());
    testbed = &*fresh;
  }
  if (!restored) {
    // Restored state already carries policy, tuning and the booted cells
    // (the rewind key guarantees they match); only the power-on and fresh
    // paths configure and boot.
    testbed->set_tick_policy(config_.tick_policy);
    if (!tuning_.empty()) testbed->set_cell_tuning(tuning_);
    // An unbootable testbed is a harness bug, not an experiment outcome.
    const util::Status ready = scenario->setup(*testbed);
    if (!ready.is_ok()) {
      return harness_error("scenario setup failed: " + ready.to_string());
    }
  }

  // Window this run's guest-access activity: counters are monotonic for
  // the testbed's lifetime, so the (after − before) delta is exact even
  // on reused slots.
  const Testbed::AccessCounters access_before = testbed->access_counters();

  Injector injector(plan_, run_seed, testbed->board().clock());
  RunMonitor monitor;

  WindowEnd end = WindowEnd::Close;
  if (restored) {
    // Resume where the learning run stood: its window marks, its call
    // count, its window close. A structured window's point is always
    // window open, so observe() runs it whole.
    const RunPoint& point = testbed->snapshot().point;
    monitor.resume(point.marks);
    injector.set_filtered_calls(point.filtered_calls);
    injector.attach(testbed->hypervisor());
    if (scenario->flat_window(*testbed)) {
      end = resume_flat_window(*testbed, injector);
    } else {
      scenario->observe(*testbed, plan_);
    }
  } else {
    // §III high-intensity shape: the injector is live while the root
    // shell creates and starts the cell. Figure 3 shape: boot clean, then
    // inject into the steady state.
    if (arm_during_boot) injector.attach(testbed->hypervisor());
    scenario->boot(*testbed);
    monitor.begin(*testbed);
    if (!arm_during_boot) injector.attach(testbed->hypervisor());
    if (reused != nullptr) {
      end = learn_window(*testbed, monitor, injector);
    } else {
      scenario->observe(*testbed, plan_);
    }
  }
  if (reused != nullptr) {
    restored ? TestbedPool::instance().record_restore()
             : TestbedPool::instance().record_reset();
  }

  // Observation epilogue: stop injecting, keep watching. A run decided on
  // the golden trajectory ends like the golden suffix did, epilogue and
  // probe included, so it takes that result.
  injector.set_armed(false);
  const bool golden = end == WindowEnd::GoldenResult;
  RunResult result;
  if (golden) {
    result = testbed->golden_suffix().result;
  } else {
    scenario->epilogue(*testbed);
    result = monitor.finish(*testbed);
  }
  result.fault_domain = plan_.fault_domain;
  result.injections = injector.injections();
  result.first_injection_tick = injector.first_injection_tick();
  result.flipped_bits = 0;
  for (const InjectionRecord& record : injector.records()) {
    result.flipped_bits += record.flips.size();
  }

  if (!golden && probes(result)) {
    result.shutdown_reclaimed = probe_shutdown_reclaims(*testbed);
  }

  injector.detach(testbed->hypervisor());
  TestbedPool::instance().record_access(testbed->access_counters(), access_before);
  return result;
}

CampaignExecutor::WindowEnd CampaignExecutor::learn_window(
    Testbed& testbed, const RunMonitor& monitor, Injector& injector) const {
  const Scenario& scenario = *scenario_;
  const util::Ticks close =
      testbed.board().now() + util::Ticks{plan_.duration_ticks};
  // A point is shared only while nothing has been injected.
  const auto capture = [&] {
    if (injector.injections() != 0) return;
    testbed.capture_snapshot(
        rewind_key_, RunPoint{monitor.marks(), injector.filtered_calls(), close.value});
    TestbedPool::instance().record_capture(testbed.snapshot_bytes(),
                                           testbed.board().dram().dirty_pages());
  };
  capture();  // window open
  if (!scenario.flat_window(testbed)) {
    scenario.observe(testbed, plan_);
    return WindowEnd::Close;
  }
  // Step to the last tick boundary before the first injecting call: the
  // injector has then counted every call before it.
  const std::uint64_t first = plan_.first_injection_call();
  const std::uint64_t shared_calls = first == 0 ? 0 : first - 1;
  bool stepped = false;
  while (injector.filtered_calls() < shared_calls && testbed.board().now() < close) {
    testbed.run(1);
    stepped = true;
  }
  if (stepped) capture();
  // The learning run stands on the point while it has injected nothing;
  // a point at the close holds no injecting call and needs no suffix.
  if (injector.injections() == 0 && testbed.has_snapshot(rewind_key_) &&
      testbed.board().now() < close) {
    run_golden_suffix(testbed, monitor);
    injector.attach(testbed.hypervisor());  // the restore cleared the hook
    return resume_flat_window(testbed, injector);
  }
  testbed.run_until(close);
  return WindowEnd::Close;
}

void CampaignExecutor::run_golden_suffix(Testbed& testbed,
                                         const RunMonitor& monitor) const {
  const Scenario& scenario = *scenario_;
  GoldenSuffix& golden = testbed.golden_suffix();
  const RunPoint point = testbed.snapshot().point;
  const util::Ticks close{point.window_close};
  Injector counter(plan_, 0, testbed.board().clock());
  counter.set_filtered_calls(point.filtered_calls);
  counter.set_golden(&golden.touches);
  counter.attach(testbed.hypervisor());
  testbed.track_touches(&golden.touches);
  // A rung at the tick boundary before each later injecting call, where
  // every call before it has been counted. Two calls in one tick leave no
  // such boundary, and the ladder ends there.
  for (std::uint64_t next = plan_.first_injection_call() + plan_.rate;
       testbed.rungs() < kLadderRungs; next += plan_.rate) {
    while (counter.filtered_calls() + 1 < next && testbed.board().now() < close) {
      testbed.run(1);
    }
    if (testbed.board().now() >= close || counter.filtered_calls() + 1 != next ||
        !testbed.capture_rung(
            RunPoint{point.marks, counter.filtered_calls(), point.window_close})) {
      break;
    }
    TestbedPool::instance().record_ladder_capture();
  }
  testbed.run_until(close);
  counter.set_armed(false);
  scenario.epilogue(testbed);
  golden.result = monitor.finish(testbed);
  if (probes(golden.result)) {
    golden.result.shutdown_reclaimed = probe_shutdown_reclaims(testbed);
  }
  testbed.track_touches(nullptr);
  counter.detach(testbed.hypervisor());
  golden.injecting_ticks = counter.golden_ticks();
  golden.rate = plan_.rate;
  golden.probe_recovery = config_.probe_recovery;
  golden.valid = true;
  testbed.restore_snapshot();
}

CampaignExecutor::WindowEnd CampaignExecutor::resume_flat_window(
    Testbed& testbed, Injector& injector) const {
  const GoldenSuffix& golden = testbed.golden_suffix();
  // Plans sharing the point may differ in rate and probe setting, which
  // the suffix's ladder, touch log and result depend on. The first
  // injecting tick, and with it the panic stop, is the same for all.
  const bool decidable = golden.valid && golden.rate == plan_.rate &&
                         golden.probe_recovery == config_.probe_recovery;
  for (std::size_t j = 0; j < golden.injecting_ticks.size(); ++j) {
    testbed.run_until(util::Ticks{golden.injecting_ticks[j]});
    // Nothing executes on a panicked machine: see Machine::run_tick.
    if (testbed.hypervisor().is_panicked()) {
      TestbedPool::instance().record_panic_stop();
      return WindowEnd::PanicStop;
    }
    // A live injection: the run leaves the golden trajectory here.
    if (!decidable || !injector.dead(golden.touches)) break;
    if (j + 1 == golden.injecting_ticks.size()) {
      TestbedPool::instance().record_golden_result();
      return WindowEnd::GoldenResult;
    }
    if (j == testbed.rungs()) break;  // past the ladder: go on live from here
    // Jump to the rung before the next injecting call: the golden state
    // there plus this run's dead changes, which the golden run never
    // touched since.
    testbed.restore_rung(j);
    for (const InjectionRecord& record : injector.records()) {
      for (const FaultRecord& flip : record.flips) write_back(flip, testbed.hypervisor());
    }
    injector.set_filtered_calls(testbed.rung_point(j).filtered_calls);
    injector.attach(testbed.hypervisor());  // the restore cleared the hook
    TestbedPool::instance().record_ladder_restore();
  }
  testbed.run_until(util::Ticks{testbed.snapshot().point.window_close});
  return WindowEnd::Close;
}

bool CampaignExecutor::probes(const RunResult& result) const {
  return config_.probe_recovery && result.outcome != Outcome::Correct &&
         result.outcome != Outcome::HarnessError;
}

RunResult CampaignExecutor::execute_one(std::uint64_t run_seed) const {
  return run_with(run_seed, nullptr);
}

CampaignResult CampaignExecutor::execute() {
  CampaignResult result;
  result.plan = plan_;
  result.runs.resize(plan_.runs);  // pre-sized slots: one per run
  RunQueue queue({this}, config_.threads);
  queue.execute([&](std::size_t, std::uint32_t index, RunResult run) {
    result.runs[index] = std::move(run);
    if (progress_) progress_(index, result.runs[index]);
  });
  return result;
}

std::size_t claim_run_group(const std::vector<RunGroupCounters>& groups,
                            std::size_t own, unsigned width) {
  const auto unclaimed = [](const RunGroupCounters& group) {
    return group.runs - group.claimed;
  };
  if (own < groups.size() && unclaimed(groups[own]) != 0) return own;
  std::uint64_t queued = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (unclaimed(groups[g]) != 0 && groups[g].workers == 0) return g;
    queued += groups[g].runs;
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const RunGroupCounters& group = groups[g];
    const std::uint64_t share = (group.runs * width + queued - 1) / queued;
    if (unclaimed(group) != 0 && group.workers < share) return g;
  }
  // Every open group is at its share (and so started): a joiner's learning
  // run must be worth the runs it takes over.
  std::size_t most = kNoRunGroup;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const RunGroupCounters& group = groups[g];
    if (unclaimed(group) <= kLearningRunCost * group.workers) continue;
    if (most == kNoRunGroup || unclaimed(group) * groups[most].workers >
                                   unclaimed(groups[most]) * group.workers) {
      most = g;
    }
  }
  return most;
}

RunQueue::RunQueue(std::vector<const CampaignExecutor*> plans, unsigned threads)
    : plans_(std::move(plans)) {
  std::map<std::string, std::size_t> group_of;  // rewind key → group
  std::uint64_t queued = 0;
  for (std::size_t p = 0; p < plans_.size(); ++p) {
    const TestPlan& plan = plans_[p]->plan();
    if (plan.runs == 0) continue;
    const auto [it, added] = group_of.emplace(plans_[p]->rewind_key_, group_runs_.size());
    if (added) {
      group_runs_.emplace_back();
      counters_.emplace_back();
    }
    // Seed expansion is serial and thread-count-independent; runs only
    // ever see their own seed.
    util::SplitMix64 seeder(plan.seed);
    for (std::uint32_t i = 0; i < plan.runs; ++i) {
      group_runs_[it->second].push_back({p, i, seeder.next()});
    }
    counters_[it->second].runs += plan.runs;
    queued += plan.runs;
  }
  const unsigned wanted = threads == 0 ? util::ThreadPool::default_threads() : threads;
  width_ = static_cast<unsigned>(std::max<std::uint64_t>(
      1, std::min<std::uint64_t>({wanted, util::ThreadPool::kMaxThreads, queued})));
}

void RunQueue::execute(const ResultFn& on_result) {
  if (width_ == 1) {
    work(on_result);
    return;
  }
  util::ThreadPool pool(width_);
  for (unsigned w = 0; w < pool.size(); ++w) {
    pool.submit([this, &on_result] { work(on_result); });
  }
  pool.wait_idle();
}

void RunQueue::work(const ResultFn& on_result) {
  // The steady-state per-run path is restore + run; the claim lock covers
  // a few counters. The lease is taken on the first claimed run, so a
  // worker that finds nothing to claim never provisions a testbed.
  TestbedLease lease;
  const CampaignExecutor* lessor = nullptr;  // whose slot key `lease` serves
  std::size_t own = kNoRunGroup;  // the group of the worker's last run
  for (;;) {
    QueuedRun claimed{};
    {
      const std::lock_guard<std::mutex> lock(claim_mutex_);
      if (stopped_.load(std::memory_order_relaxed)) return;
      const std::size_t g = claim_run_group(counters_, own, width_);
      if (g == kNoRunGroup) return;
      if (g != own) {
        ++counters_[g].workers;
        own = g;
      }
      claimed = group_runs_[g][counters_[g].claimed++];
    }
    const CampaignExecutor& executor = *plans_[claimed.plan];
    if (lessor == nullptr || !lessor->shares_slot_with(executor)) {
      lease.release();  // one slot per worker at a time
      lease = executor.lease_slot();
      lessor = &executor;
    }
    RunResult run = executor.run_with(claimed.seed, lease.get());
    const std::lock_guard<std::mutex> lock(result_mutex_);
    on_result(claimed.plan, claimed.index, std::move(run));
  }
}

}  // namespace mcs::fi
