// E5 — testing-framework overhead (Figure 2's instrumentation).
//
// The paper adds "a dozen of lines of code" to Jailhouse; this
// microbenchmark measures what the added hook costs on the hypervisor hot
// paths: trap dispatch, hypercall dispatch and interrupt acknowledgement,
// with no hook, with an armed-but-filtered hook, and with a firing
// injector. Also measures whole-testbed tick throughput and the
// event-driven tick scheduler's ticks/sec on idle-heavy vs IRQ-heavy
// workloads (both tick policies, so regressions in either path show up).
//
//   $ ./bench_overhead                  # google-benchmark suite
//   $ ./bench_overhead --ticks-json     # machine-readable tick-throughput
//                                       # comparison (CI trend lines)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "platform/board_registry.hpp"

namespace {

using namespace mcs;

// --- tick-scheduler workloads ------------------------------------------------
// idle-heavy: a board whose only event source is a 100-tick heartbeat
// timer — the steady-state shape of a low-rate campaign span, where the
// deadline scheduler leaps from fire to fire.
// irq-heavy: the full FreeRTOS testbed, where every tick bears the guest
// tick interrupt and a scheduling quantum — nothing is leapable, so the
// event-driven path must cost the same as per-tick polling.
// Both run on each registered board so the perf trajectory can compare
// topologies (the 4-CPU board bears double the per-tick IRQ traffic).

/// Seconds spent advancing the idle-heavy board by `ticks` (fixture cost
/// excluded).
double time_idle_board(const std::string& board_name, bool event_driven,
                       std::uint64_t ticks) {
  std::unique_ptr<platform::Board> board = platform::make_board(board_name);
  board->timer().start(0, 100);
  const auto begin = std::chrono::steady_clock::now();
  if (event_driven) {
    board->run_ticks(ticks);
  } else {
    for (std::uint64_t i = 0; i < ticks; ++i) board->tick();
  }
  const auto end = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(board->timer().fires(0));
  return std::chrono::duration<double>(end - begin).count();
}

/// Seconds spent advancing the IRQ-heavy testbed by `ticks` (boot cost
/// excluded). On boards with spare cores the OSEK cell runs concurrently,
/// so the measured path carries both guests' interrupt traffic.
double time_irq_heavy_testbed(const std::string& board_name,
                              jh::TickPolicy policy, std::uint64_t ticks) {
  fi::Testbed testbed(platform::make_board(board_name));
  testbed.set_tick_policy(policy);
  (void)testbed.enable_hypervisor();
  testbed.boot_freertos_cell();
  if (testbed.supports_concurrent_cells()) testbed.boot_secondary_osek_cell();
  const auto begin = std::chrono::steady_clock::now();
  testbed.run(ticks);
  const auto end = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(testbed.board().uart1().total_bytes());
  return std::chrono::duration<double>(end - begin).count();
}

// access-heavy: the guest-access hot path itself — stage-2 translate +
// DRAM word access through the bus, the per-word cost every busy
// observation window is made of (and the path the future NIC's
// descriptor rings will hammer). Measured twice: with the stage-2 TLB
// (AddressSpace::translate_cached) and with a full MemoryMap walk per
// access — the pre-cache cost, kept as the in-tree baseline so the
// speedup is measurable on any host.

/// Seconds for `accesses` guest word writes through translate + bus.
double time_access_heavy_testbed(const std::string& board_name, bool cached,
                                 std::uint64_t accesses) {
  fi::Testbed testbed(platform::make_board(board_name));
  (void)testbed.enable_hypervisor();
  testbed.boot_freertos_cell();
  jh::Cell* cell = testbed.workload_cell();
  mem::AddressSpace& space = cell->address_space();
  platform::Bus& bus = testbed.board().bus();
  // Word-stride over 1 MiB of the cell's identity-mapped RAM: after the
  // first touch per page every access is a steady-state fast-path hit.
  const mem::MemRegion& ram = cell->memory_map().regions().front();
  const std::uint64_t window = std::min<std::uint64_t>(ram.size, 1u << 20);
  std::uint64_t checksum = 0;
  const auto begin = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < accesses; ++i) {
    const std::uint64_t addr = ram.virt_start + ((i * 4) & (window - 1));
    const auto walk =
        cached ? space.translate_cached(addr, mem::Access::Write, 4)
               : cell->memory_map().translate(addr, mem::Access::Write, 4);
    (void)bus.write_u32(walk.value().phys, static_cast<std::uint32_t>(i));
    checksum += walk.value().phys;
  }
  const auto end = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(checksum);
  return std::chrono::duration<double>(end - begin).count();
}

// --- hypercall path -------------------------------------------------------

void BM_HvcDispatch_NoHook(benchmark::State& state) {
  platform::BananaPiBoard board;
  jh::Hypervisor hv(board);
  (void)hv.enable(jh::make_root_cell_config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(hv.guest_hypercall(
        0, static_cast<std::uint32_t>(jh::Hypercall::HypervisorGetInfo)));
  }
}
BENCHMARK(BM_HvcDispatch_NoHook);

void BM_HvcDispatch_HookFiltered(benchmark::State& state) {
  // The injector is attached but targets the IRQ path: every trap pays
  // only the filter check — the steady-state cost of instrumentation.
  platform::BananaPiBoard board;
  jh::Hypervisor hv(board);
  (void)hv.enable(jh::make_root_cell_config());
  fi::TestPlan plan = fi::irq_vector_plan();
  fi::Injector injector(plan, 1, board.clock());
  injector.attach(hv);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hv.guest_hypercall(
        0, static_cast<std::uint32_t>(jh::Hypercall::HypervisorGetInfo)));
  }
  injector.detach(hv);
}
BENCHMARK(BM_HvcDispatch_HookFiltered);

void BM_HvcDispatch_InjectorArmed(benchmark::State& state) {
  // Worst case: the hook matches the target and applies a (dead-register)
  // flip on every single call.
  platform::BananaPiBoard board;
  jh::Hypervisor hv(board);
  (void)hv.enable(jh::make_root_cell_config());
  fi::TestPlan plan;
  plan.target = jh::HookPoint::ArchHandleHvc;
  plan.rate = 1;
  plan.phase = 1;
  plan.fault_registers = {arch::Reg::R7};  // dead: behaviour unchanged
  fi::Injector injector(plan, 1, board.clock());
  injector.attach(hv);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hv.guest_hypercall(
        0, static_cast<std::uint32_t>(jh::Hypercall::HypervisorGetInfo)));
  }
  injector.detach(hv);
}
BENCHMARK(BM_HvcDispatch_InjectorArmed);

// --- trap path (stage-2 MMIO emulation) ------------------------------------

void BM_TrapMmioEmulation(benchmark::State& state) {
  platform::BananaPiBoard board;
  jh::Hypervisor hv(board);
  (void)hv.enable(jh::make_root_cell_config());
  // Root cell GICD read: full trap + emulation round trip.
  for (auto _ : state) {
    benchmark::DoNotOptimize(hv.guest_data_abort(0, jh::kGicDistBase, 0, false));
  }
}
BENCHMARK(BM_TrapMmioEmulation);

// --- irqchip path -----------------------------------------------------------

void BM_IrqAcknowledge(benchmark::State& state) {
  platform::BananaPiBoard board;
  jh::Hypervisor hv(board);
  (void)hv.enable(jh::make_root_cell_config());
  for (auto _ : state) {
    (void)board.gic().raise_ppi(0, platform::kVirtualTimerPpi);
    benchmark::DoNotOptimize(hv.irqchip_handle_irq(0));
  }
}
BENCHMARK(BM_IrqAcknowledge);

// --- whole-testbed throughput ------------------------------------------------

void BM_TestbedTick_Golden(benchmark::State& state) {
  fi::Testbed testbed;
  (void)testbed.enable_hypervisor();
  testbed.boot_freertos_cell();
  for (auto _ : state) {
    testbed.run(1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TestbedTick_Golden);

void BM_TestbedTick_UnderInjection(benchmark::State& state) {
  fi::Testbed testbed;
  (void)testbed.enable_hypervisor();
  testbed.boot_freertos_cell();
  fi::TestPlan plan = fi::paper_medium_trap_plan();
  plan.fault_registers = {arch::Reg::R7};  // dead register: runs forever
  plan.rate = 1;
  plan.phase = 1;
  fi::Injector injector(plan, 1, testbed.board().clock());
  injector.attach(testbed.hypervisor());
  for (auto _ : state) {
    testbed.run(1);
  }
  injector.detach(testbed.hypervisor());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TestbedTick_UnderInjection);

void BM_FullMediumRun(benchmark::State& state) {
  // One complete Figure 3 run: boot, one simulated minute, classify.
  fi::TestPlan plan = fi::paper_medium_trap_plan();
  plan.runs = 1;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    fi::Campaign campaign(plan);
    benchmark::DoNotOptimize(campaign.execute_one(seed++));
  }
}
BENCHMARK(BM_FullMediumRun)->Unit(benchmark::kMillisecond);

// --- tick-scheduler throughput ------------------------------------------------
// items/sec in the report *is* ticks/sec. The idle-heavy pair is the
// deadline scheduler's headline number; the IRQ-heavy pair guards against
// regressions on the every-tick-busy path.

void BM_TickSched_IdleHeavy_PerTick(benchmark::State& state) {
  platform::BananaPiBoard board;
  board.timer().start(0, 100);
  constexpr std::uint64_t kBatch = 10'000;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < kBatch; ++i) board.tick();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_TickSched_IdleHeavy_PerTick);

void BM_TickSched_IdleHeavy_EventDriven(benchmark::State& state) {
  platform::BananaPiBoard board;
  board.timer().start(0, 100);
  constexpr std::uint64_t kBatch = 10'000;
  for (auto _ : state) {
    board.run_ticks(kBatch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_TickSched_IdleHeavy_EventDriven);

void BM_TickSched_IrqHeavy_PerTick(benchmark::State& state) {
  fi::Testbed testbed;
  testbed.set_tick_policy(jh::TickPolicy::PerTick);
  (void)testbed.enable_hypervisor();
  testbed.boot_freertos_cell();
  constexpr std::uint64_t kBatch = 1'000;
  for (auto _ : state) {
    testbed.run(kBatch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_TickSched_IrqHeavy_PerTick);

void BM_TickSched_IrqHeavy_EventDriven(benchmark::State& state) {
  fi::Testbed testbed;
  testbed.set_tick_policy(jh::TickPolicy::EventDriven);
  (void)testbed.enable_hypervisor();
  testbed.boot_freertos_cell();
  constexpr std::uint64_t kBatch = 1'000;
  for (auto _ : state) {
    testbed.run(kBatch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_TickSched_IrqHeavy_EventDriven);

// --- executor scaling ---------------------------------------------------------
// Runs-per-second of a sharded campaign at 1/2/4/8 worker threads, so
// scaling regressions show up run over run. The fixture is *between-run
// overhead*: a minimal observation window keeps each run dominated by
// exactly the work the executor adds per run — restoring the slot's
// rewind point and classification. Window throughput is the BM_TickSched
// benches' job, and the end-to-end number is perfbench's.

void BM_ExecutorThroughput(benchmark::State& state) {
  fi::TestPlan plan =
      fi::find_scenario("freertos-steady")->make_plan(fi::paper_medium_trap_plan());
  plan.runs = 32;
  plan.duration_ticks = 5;
  plan.phase = 2;
  const fi::ExecutorConfig config{.threads = static_cast<unsigned>(state.range(0)),
                                  .probe_recovery = false};
  std::uint64_t campaign_index = 0;
  std::uint64_t runs_done = 0;
  for (auto _ : state) {
    plan.seed = 0xC0FFEE + campaign_index++;
    fi::CampaignExecutor executor(plan, config);
    benchmark::DoNotOptimize(executor.execute());
    runs_done += plan.runs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(runs_done));
  state.counters["runs/s"] = benchmark::Counter(
      static_cast<double>(runs_done), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecutorThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- machine-readable tick-throughput summary ---------------------------------

void emit_json_entry(std::ostream& out, const std::string& board,
                     const char* workload, const char* policy,
                     std::uint64_t ticks, double seconds, bool last) {
  out << "    {\"board\": \"" << board << "\", \"workload\": \"" << workload
      << "\", \"policy\": \"" << policy << "\", \"ticks\": " << ticks
      << ", \"seconds\": " << seconds << ", \"ticks_per_sec\": "
      << (seconds > 0 ? static_cast<double>(ticks) / seconds : 0.0) << "}"
      << (last ? "\n" : ",\n");
}

/// `--ticks-json`: measure the idle-heavy / IRQ-heavy workload pair under
/// both tick policies on each board variant and print one JSON document —
/// the CI artifact that trends the deadline scheduler across topologies.
int run_ticks_json() {
  constexpr std::uint64_t kIdleTicks = 2'000'000;
  constexpr std::uint64_t kIrqTicks = 100'000;
  constexpr std::uint64_t kAccesses = 2'000'000;
  const std::vector<std::string> boards = {"bananapi", "quad-a7"};

  std::ostream& out = std::cout;
  out << "{\n  \"tick_throughput\": [\n";
  double first_idle_speedup = 0.0;
  double first_irq_speedup = 0.0;
  double first_access_speedup = 0.0;
  double first_irq_ticks_per_sec = 0.0;
  double first_access_per_sec = 0.0;
  for (std::size_t i = 0; i < boards.size(); ++i) {
    const std::string& board = boards[i];
    const bool last_board = i + 1 == boards.size();
    const double idle_per_tick = time_idle_board(board, false, kIdleTicks);
    const double idle_event = time_idle_board(board, true, kIdleTicks);
    const double irq_per_tick =
        time_irq_heavy_testbed(board, jh::TickPolicy::PerTick, kIrqTicks);
    const double irq_event =
        time_irq_heavy_testbed(board, jh::TickPolicy::EventDriven, kIrqTicks);
    // Access-heavy pair: "ticks" is the access count, the policy column
    // distinguishes the full per-access map walk from the TLB fast path.
    const double access_walk = time_access_heavy_testbed(board, false, kAccesses);
    const double access_tlb = time_access_heavy_testbed(board, true, kAccesses);
    emit_json_entry(out, board, "idle-heavy", "per-tick", kIdleTicks,
                    idle_per_tick, false);
    emit_json_entry(out, board, "idle-heavy", "event-driven", kIdleTicks,
                    idle_event, false);
    emit_json_entry(out, board, "irq-heavy", "per-tick", kIrqTicks,
                    irq_per_tick, false);
    emit_json_entry(out, board, "irq-heavy", "event-driven", kIrqTicks,
                    irq_event, false);
    emit_json_entry(out, board, "access-heavy", "map-walk", kAccesses,
                    access_walk, false);
    emit_json_entry(out, board, "access-heavy", "tlb-cached", kAccesses,
                    access_tlb, last_board);
    if (i == 0) {
      first_idle_speedup = idle_event > 0 ? idle_per_tick / idle_event : 0.0;
      first_irq_speedup = irq_event > 0 ? irq_per_tick / irq_event : 0.0;
      first_access_speedup = access_tlb > 0 ? access_walk / access_tlb : 0.0;
      first_irq_ticks_per_sec =
          irq_event > 0 ? static_cast<double>(kIrqTicks) / irq_event : 0.0;
      first_access_per_sec =
          access_tlb > 0 ? static_cast<double>(kAccesses) / access_tlb : 0.0;
    }
  }
  // Headline speedups keep the original (bananapi) trend-line keys; the
  // access_heavy ratio and the absolute throughput floor keys are the
  // release-perf gate's inputs.
  out << "  ],\n  \"speedup\": {\"idle_heavy\": " << first_idle_speedup
      << ", \"irq_heavy\": " << first_irq_speedup
      << ", \"access_heavy\": " << first_access_speedup
      << "},\n  \"irq_heavy_ticks_per_sec\": " << first_irq_ticks_per_sec
      << ",\n  \"access_heavy_accesses_per_sec\": " << first_access_per_sec
      << "\n}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ticks-json") == 0) return run_ticks_json();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
