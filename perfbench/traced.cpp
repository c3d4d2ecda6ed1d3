// The traced run: every run of a workload replayed at one thread through
// the benchmark's own copy of fi::CampaignExecutor::run_with, with a span
// around each layer call and a sampling decorator on every guest image.
//
// The copy makes the executor's public calls in the executor's order
// (snapshot restore, or reset + setup + boot + capture; injector attach;
// monitor begin; observe; epilogue; finish; shutdown probe), so its run
// log must be byte-identical to the product path's. The benchmark checks
// that on every pass.
#include <algorithm>
#include <map>
#include <memory>

#include "analysis/log_sink.hpp"
#include "core/injector.hpp"
#include "core/monitor.hpp"
#include "core/scenario.hpp"
#include "hypervisor/config_text.hpp"
#include "perfbench.hpp"
#include "platform/board_registry.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace jh = mcs::jh;

// Which part of a run a guest callback lands in, and which callback.
enum Phase : int { kBoot = 0, kWindow, kClassify, kNumPhases };
enum Kind : int { kStart = 0, kQuantum, kTimer, kIrq, kNumKinds };

/// Exact call counts per phase and kind, and the timings of the sampled
/// calls per kind.
struct ImageTally {
  std::array<std::array<std::uint64_t, kNumKinds>, kNumPhases> calls{};
  std::array<std::uint64_t, kNumKinds> sampled{};
  std::array<double, kNumKinds> sampled_ns{};
};

/// Forwards every callback to one of the testbed's own images and times
/// a pseudo-random one in `every` of them; a callback's time includes the
/// hypervisor traps it triggers. Timing every call would cost more than a
/// root-Linux quantum itself, and random intervals keep the sample from
/// locking onto periodic guest work (tick tasks, heartbeats).
class TracedImage final : public jh::GuestImage {
 public:
  TracedImage(jh::GuestImage& inner, const int& phase, unsigned every)
      : inner_(&inner), phase_(&phase), every_(std::max(every, 1u)) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  void on_start(jh::GuestContext& ctx) override {
    call(kStart, [&] { inner_->on_start(ctx); });
  }
  void run_quantum(jh::GuestContext& ctx) override {
    call(kQuantum, [&] { inner_->run_quantum(ctx); });
  }
  void on_timer(jh::GuestContext& ctx) override {
    call(kTimer, [&] { inner_->on_timer(ctx); });
  }
  void on_irq(jh::GuestContext& ctx, std::uint32_t irq) override {
    call(kIrq, [&] { inner_->on_irq(ctx, irq); });
  }

  [[nodiscard]] const jh::GuestImage* inner() const noexcept { return inner_; }
  [[nodiscard]] const ImageTally& tally() const noexcept { return tally_; }

 private:
  template <typename Forward>
  void call(Kind kind, Forward&& forward) {
    ++tally_.calls[*phase_][kind];
    if (--countdown_ != 0) {
      forward();
      return;
    }
    // xorshift32; the next interval is uniform on [1, 2·every − 1].
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 17;
    rng_ ^= rng_ << 5;
    countdown_ = 1 + rng_ % (2 * every_ - 1);
    const Clock::time_point start = Clock::now();
    forward();
    const Clock::time_point end = Clock::now();
    ++tally_.sampled[kind];
    tally_.sampled_ns[kind] += ns_between(start, end);
  }

  jh::GuestImage* inner_;
  const int* phase_;
  unsigned every_;
  std::uint32_t rng_ = 0x9E3779B9u;
  std::uint32_t countdown_ = 1;
  ImageTally tally_;
};

/// A private testbed and the decorators of its three guest images.
struct Slot {
  Slot(std::unique_ptr<mcs::platform::Board> board, const int& phase,
       unsigned every)
      : testbed(std::move(board)),
        images{TracedImage(testbed.linux_root(), phase, every),
               TracedImage(testbed.freertos(), phase, every),
               TracedImage(testbed.osek(), phase, every)} {}

  /// Route every cell bound to one of the testbed's images through its
  /// decorator. Setup and boot bind the bare images and a restore brings
  /// the captured bindings back, so this follows each of them.
  void bind_traced() {
    jh::Machine& machine = testbed.machine();
    for (jh::CellId id = 0; id < 16; ++id) {
      const jh::GuestImage* bound = machine.guest_for(id);
      for (TracedImage& image : images) {
        if (bound == image.inner()) machine.bind_guest(id, image);
      }
    }
  }

  fi::Testbed testbed;
  std::array<TracedImage, 3> images;  ///< linux-root, freertos, osek
};

/// The counters a run moves, sampled before and after it.
struct Sample {
  jh::Counters hv;
  std::array<std::uint64_t, 3> delivered{};  ///< SGI, PPI, SPI
  LayerCounters layer;
  std::uint64_t uart1_bytes = 0;
  std::uint64_t dispatches = 0;
};

Sample sample(fi::Testbed& testbed) {
  Sample s;
  s.hv = testbed.hypervisor().counters();
  const mcs::irq::Gic& gic = testbed.board().gic();
  for (mcs::irq::IrqId irq = 0; irq < mcs::irq::kNumIrqs; ++irq) {
    const std::size_t kind = mcs::irq::is_sgi(irq)   ? 0
                             : mcs::irq::is_ppi(irq) ? 1
                                                     : 2;
    s.delivered[kind] += gic.delivered(irq);
  }
  s.layer = read_counters(&testbed);
  s.uart1_bytes = testbed.board().uart1().total_bytes();
  s.dispatches = testbed.freertos().kernel().dispatches();
  return s;
}

void add_delta(TraceTally& t, const Sample& a, const Sample& b) {
  t.traps += b.hv.traps - a.hv.traps;
  t.hvcs += b.hv.hvcs - a.hv.hvcs;
  t.irqs += b.hv.irqs - a.hv.irqs;
  t.mmio_emulations += b.hv.mmio_emulations - a.hv.mmio_emulations;
  t.cpu_parks += b.hv.cpu_parks - a.hv.cpu_parks;
  t.panics += b.hv.panics - a.hv.panics;
  t.sgi += b.delivered[0] - a.delivered[0];
  t.ppi += b.delivered[1] - a.delivered[1];
  t.spi += b.delivered[2] - a.delivered[2];
  t.tlb_hits += b.layer.tlb_hits - a.layer.tlb_hits;
  t.tlb_misses += b.layer.tlb_misses - a.layer.tlb_misses;
  t.dram_fast += b.layer.dram_fast_ops - a.layer.dram_fast_ops;
  t.dram_slow += b.layer.dram_slow_ops - a.layer.dram_slow_ops;
  t.deadline_refreshes += b.layer.deadline_refreshes - a.layer.deadline_refreshes;
  t.uart1_bytes += b.uart1_bytes - a.uart1_bytes;
  t.rtos_dispatches += b.dispatches - a.dispatches;
}

fi::RunResult harness_error(std::string detail) {
  fi::RunResult result;
  result.outcome = fi::Outcome::HarnessError;
  result.detail = std::move(detail);
  return result;
}

/// One run: the executor's calls, in the executor's order, each phase
/// timed into `t`. `key` is the slot's snapshot identity.
fi::RunResult traced_run(Slot& slot, const fi::Scenario& scenario,
                         const fi::TestPlan& plan, const jh::CellTuning& tuning,
                         const std::string& key, std::uint64_t seed, int& phase,
                         TraceTally& t) {
  fi::Testbed& testbed = slot.testbed;
  const bool arm_during_boot = scenario.arm_during_boot(plan);

  Clock::time_point mark = Clock::now();
  const auto lap = [&mark](double& into) {
    const Clock::time_point now = Clock::now();
    into += ns_between(mark, now);
    mark = now;
  };

  bool restored = false;
  if (!arm_during_boot && testbed.has_snapshot(key)) {
    restored = testbed.restore_snapshot();
  }
  if (!restored) testbed.reset();
  lap(t.provision_ns);
  ++(restored ? t.restores : t.resets);
  const Sample before = sample(testbed);

  phase = kBoot;
  mark = Clock::now();
  if (!restored) {
    testbed.set_tick_policy(jh::TickPolicy::EventDriven);
    if (!tuning.empty()) testbed.set_cell_tuning(tuning);
    const mcs::util::Status ready = scenario.setup(testbed);
    if (!ready.is_ok()) {
      return harness_error("scenario setup failed: " + ready.to_string());
    }
  }
  slot.bind_traced();

  fi::Injector injector(plan, seed, testbed.board().clock());
  fi::RunMonitor monitor;
  if (arm_during_boot) {
    injector.attach(testbed.hypervisor());
    scenario.boot(testbed);
    slot.bind_traced();
    lap(t.boot_ns);
    phase = kWindow;
    monitor.begin(testbed);
    scenario.observe(testbed, plan);
  } else {
    if (!restored) {
      scenario.boot(testbed);
      testbed.capture_snapshot(key);
      ++t.captures;
      t.snapshot_bytes = testbed.snapshot_bytes();
      t.dirty_pages = testbed.board().dram().dirty_pages();
      slot.bind_traced();
    }
    lap(t.boot_ns);
    phase = kWindow;
    monitor.begin(testbed);
    injector.attach(testbed.hypervisor());
    scenario.observe(testbed, plan);
  }
  lap(t.window_ns);

  phase = kClassify;
  injector.set_armed(false);
  scenario.epilogue(testbed);
  fi::RunResult result = monitor.finish(testbed);
  result.fault_domain = plan.fault_domain;
  result.injections = injector.injections();
  result.first_injection_tick = injector.first_injection_tick();
  for (const fi::InjectionRecord& record : injector.records()) {
    result.flipped_bits += record.flips.size();
  }
  if (result.outcome != fi::Outcome::Correct &&
      result.outcome != fi::Outcome::HarnessError) {
    result.shutdown_reclaimed = fi::probe_shutdown_reclaims(testbed);
  }
  injector.detach(testbed.hypervisor());
  lap(t.classify_ns);

  add_delta(t, before, sample(testbed));
  t.injections += injector.injections();
  t.filtered_calls += injector.filtered_calls();
  return result;
}

/// Fold one decorator's sampled timings into `t`: each kind's mean
/// (less the empty-span cost) times its exact call count per phase. A
/// kind that was never sampled takes the image's overall mean.
void estimate(const ImageTally& tally, std::size_t image, double empty_span_ns,
              TraceTally& t) {
  const auto mean = [empty_span_ns](double ns, std::uint64_t n) {
    return std::max(0.0, ns / static_cast<double>(n) - empty_span_ns);
  };
  std::uint64_t sampled = 0;
  double sampled_ns = 0;
  for (int kind = 0; kind < kNumKinds; ++kind) {
    sampled += tally.sampled[kind];
    sampled_ns += tally.sampled_ns[kind];
  }
  const double image_mean = sampled == 0 ? 0.0 : mean(sampled_ns, sampled);
  for (int kind = 0; kind < kNumKinds; ++kind) {
    const double kind_mean = tally.sampled[kind] == 0
                                 ? image_mean
                                 : mean(tally.sampled_ns[kind], tally.sampled[kind]);
    for (int phase = 0; phase < kNumPhases; ++phase) {
      const std::uint64_t calls = tally.calls[phase][kind];
      const double ns = kind_mean * static_cast<double>(calls);
      t.image_ns[image] += ns;
      if (phase == kWindow) t.guest_window_ns += ns;
      switch (kind) {
        case kQuantum:
          t.guest_quantum_ns += ns;
          t.quanta += calls;
          break;
        case kTimer: t.timer_calls += calls; break;
        case kIrq: t.irq_calls += calls; break;
        default: t.start_calls += calls; break;
      }
    }
  }
}

}  // namespace

std::vector<std::pair<std::string_view, std::uint64_t>> TraceTally::counts() const {
  return {{"runs", runs},
          {"restores", restores},
          {"resets", resets},
          {"captures", captures},
          {"snapshot_bytes", snapshot_bytes},
          {"dirty_pages", dirty_pages},
          {"injections", injections},
          {"filtered_calls", filtered_calls},
          {"quanta", quanta},
          {"timer_calls", timer_calls},
          {"irq_calls", irq_calls},
          {"start_calls", start_calls},
          {"rtos_dispatches", rtos_dispatches},
          {"traps", traps},
          {"hvcs", hvcs},
          {"irqs", irqs},
          {"mmio_emulations", mmio_emulations},
          {"cpu_parks", cpu_parks},
          {"panics", panics},
          {"sgi_delivered", sgi},
          {"ppi_delivered", ppi},
          {"spi_delivered", spi},
          {"tlb_hits", tlb_hits},
          {"tlb_misses", tlb_misses},
          {"dram_fast_ops", dram_fast},
          {"dram_slow_ops", dram_slow},
          {"deadline_refreshes", deadline_refreshes},
          {"uart1_bytes", uart1_bytes}};
}

void TraceTally::add_times(const TraceTally& other) {
  provision_ns += other.provision_ns;
  boot_ns += other.boot_ns;
  window_ns += other.window_ns;
  classify_ns += other.classify_ns;
  sink_ns += other.sink_ns;
  guest_window_ns += other.guest_window_ns;
  guest_quantum_ns += other.guest_quantum_ns;
  for (std::size_t i = 0; i < image_ns.size(); ++i) image_ns[i] += other.image_ns[i];
  wall_ns += other.wall_ns;
}

TraceTally traced_pass(const Workload& workload, std::vector<std::string>& logs,
                       unsigned sample_every, double empty_span_ns) {
  TraceTally t;
  int phase = kBoot;
  std::map<std::string, std::unique_ptr<Slot>> slots;
  const Clock::time_point pass_start = Clock::now();
  for (const fi::TestPlan& cell : workload.plans) {
    // Resolve tuning, fault domain and board as the executor's
    // constructor does.
    fi::TestPlan plan = cell;
    jh::CellTuning tuning;
    std::string tuning_error;
    if (!plan.cell_tuning.empty()) {
      auto parsed = jh::parse_cell_tuning(plan.cell_tuning);
      if (parsed.is_ok()) {
        tuning = parsed.value();
      } else {
        tuning_error = parsed.status().to_string();
      }
    }
    if (tuning_error.empty() && !tuning.fault_domain.empty() &&
        !fi::fault_domain_from_name(tuning.fault_domain, plan.fault_domain)) {
      tuning_error = mcs::util::invalid_argument("unknown fault domain '" +
                                                 tuning.fault_domain + "'")
                         .to_string();
    }
    const std::string board_name = !tuning.board.empty() ? tuning.board : plan.board;
    const auto board = mcs::platform::BoardRegistry::instance().entry(board_name);
    const fi::Scenario* scenario = fi::find_scenario(plan.scenario);
    const std::string key =
        board_name + '\x1f' + plan.cell_tuning + '\x1f' + plan.scenario;

    std::vector<std::uint64_t> seeds(plan.runs);
    mcs::util::SplitMix64 seeder(plan.seed);
    for (std::uint64_t& seed : seeds) seed = seeder.next();

    mcs::analysis::LogSink sink;
    for (std::uint32_t i = 0; i < plan.runs; ++i) {
      fi::RunResult result;
      if (scenario == nullptr) {
        result = harness_error("unknown scenario '" + plan.scenario + "'");
      } else if (!tuning_error.empty()) {
        result = harness_error("bad cell tuning: " + tuning_error);
      } else if (board == nullptr) {
        result = harness_error("unknown board '" + board_name + "'");
      } else {
        std::unique_ptr<Slot>& slot = slots[key];
        if (slot == nullptr) {
          const Clock::time_point start = Clock::now();
          slot = std::make_unique<Slot>(board->factory(), phase, sample_every);
          t.provision_ns += ns_between(start, Clock::now());
        }
        result = traced_run(*slot, *scenario, plan, tuning, key, seeds[i], phase, t);
      }
      const Clock::time_point start = Clock::now();
      sink.record(i, result);
      t.sink_ns += ns_between(start, Clock::now());
      ++t.runs;
    }
    logs.push_back(sink.text());
  }
  t.wall_ns = ns_between(pass_start, Clock::now());

  for (const auto& [key, slot] : slots) {
    for (std::size_t image = 0; image < slot->images.size(); ++image) {
      estimate(slot->images[image].tally(), image, empty_span_ns, t);
    }
  }
  return t;
}

double calibrate_empty_span_ns() {
  constexpr int kBatches = 9;
  constexpr int kSpans = 20'000;
  std::array<double, kBatches> means{};
  for (double& batch_mean : means) {
    double sum = 0;
    for (int i = 0; i < kSpans; ++i) {
      const Clock::time_point start = Clock::now();
      const Clock::time_point end = Clock::now();
      sum += ns_between(start, end);
    }
    batch_mean = sum / kSpans;
  }
  std::sort(means.begin(), means.end());
  return means[kBatches / 2];
}

}  // namespace perfbench
