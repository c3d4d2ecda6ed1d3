// Decided runs in every machine fault domain: gic, dram, device-mmio and
// irq-delivery. A restored run whose injections are all dead against its
// point's golden suffix takes the golden result at its last injecting call
// in the window, or jumps to the next ladder rung and writes its dead
// changes back; a live injection runs to the close.
//
// Every campaign here is compared with the fresh oracle
// (CampaignExecutor::execute_one), which always runs whole windows, on
// log lines and every RunResult field, on both scenarios with a flat
// window and both boards. Rate 100 puts one injecting call in a 60 000-
// tick window at arch_handle_trap, rate 50 two (the rate that reaches
// the ladder). The last test checks the machine a decided run leaves
// behind against the oracle's at the same tick, which is where a lost
// write-back would show.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "core/injector.hpp"
#include "decided_runs_support.hpp"
#include "util/rng.hpp"

namespace mcs::fi {
namespace {

using decided::Capture;
using decided::expect_identical;
using decided::fresh_campaign;
using decided::run_campaign;
using decided::Shortcuts;
using decided::shortcuts_since;

/// The scenario's paper plan in `domain` on the workload cell's CPU (the
/// OSEK cell sits on CPU 2 of quad-a7).
TestPlan domain_plan(const std::string& scenario, const std::string& board,
                     FaultDomain domain, std::uint32_t rate) {
  TestPlan plan = find_scenario(scenario)->make_plan();
  plan.board = board;
  plan.fault_domain = domain;
  plan.cpu_filter = scenario == "osek-cell" && board == "quad-a7" ? 2 : 1;
  plan.rate = rate;
  plan.runs = 6;
  return plan;
}

/// Both flat-window scenarios × both boards × rates 100 and 50 in
/// `domain`: the snapshot path matches the oracle. Returns the shortcuts
/// taken at each rate.
std::pair<Shortcuts, Shortcuts> sweep_domain(FaultDomain domain) {
  TestbedPool::instance().clear();
  std::pair<Shortcuts, Shortcuts> taken;
  for (const std::string scenario : {"freertos-steady", "osek-cell"}) {
    for (const std::string board : {"bananapi", "quad-a7"}) {
      for (const std::uint32_t rate : {kMediumRate, kHighRate}) {
        const TestPlan plan = domain_plan(scenario, board, domain, rate);
        const std::string label = scenario + " on " + board + ", " +
                                  std::string(fault_domain_name(domain)) + ", rate " +
                                  std::to_string(rate);
        const TestbedPool::Stats before = TestbedPool::instance().stats();
        const Capture snapshot = run_campaign(plan);
        const Shortcuts cell = shortcuts_since(before);
        Shortcuts& sum = rate == kMediumRate ? taken.first : taken.second;
        sum.golden_results += cell.golden_results;
        sum.ladder_restores += cell.ladder_restores;
        expect_identical(fresh_campaign(plan), snapshot, label);
      }
    }
  }
  return taken;
}

TEST(DecidedDomains, GicMatchesTheOracle) {
  const auto [one, two] = sweep_domain(FaultDomain::Gic);
  EXPECT_GT(one.golden_results, 0u);
  EXPECT_EQ(one.ladder_restores, 0u);  // one injecting call: no rung
  EXPECT_GT(two.golden_results, 0u);
  EXPECT_GT(two.ladder_restores, 0u);
}

TEST(DecidedDomains, DramMatchesTheOracle) {
  const auto [one, two] = sweep_domain(FaultDomain::Dram);
  EXPECT_GT(one.golden_results, 0u);
  EXPECT_EQ(one.ladder_restores, 0u);
  EXPECT_GT(two.golden_results, 0u);
  EXPECT_GT(two.ladder_restores, 0u);
}

TEST(DecidedDomains, DeviceMmioMatchesTheOracle) {
  const auto [one, two] = sweep_domain(FaultDomain::DeviceMmio);
  EXPECT_GT(one.golden_results + two.golden_results, 0u);  // masked-bit flips
  EXPECT_GT(two.ladder_restores, 0u);
}

TEST(DecidedDomains, IrqDeliveryMatchesTheOracle) {
  const auto [one, two] = sweep_domain(FaultDomain::IrqDelivery);
  EXPECT_GT(one.golden_results + two.golden_results, 0u);  // no-op squashes
  EXPECT_GT(two.ladder_restores, 0u);
}

/// The machine state a decided run can leave behind and a later tick can
/// depend on: time, consoles, hypervisor counters, CPUs, every GIC line
/// field and the dirty DRAM contents.
std::string machine_state(Testbed& testbed) {
  std::ostringstream out;
  platform::Board& board = testbed.board();
  out << board.now().value << '|' << board.uart0().captured() << '|'
      << board.uart1().captured() << '|' << board.log().size() << '|'
      << testbed.hypervisor().counters().traps << ' '
      << testbed.hypervisor().counters().irqs << '|';
  for (int cpu = 0; cpu < board.num_cpus(); ++cpu) {
    out << static_cast<int>(board.cpu(cpu).power_state()) << ' ';
  }
  const irq::Gic& gic = board.gic();
  for (irq::IrqId irq = 0; irq < irq::kNumIrqs; ++irq) {
    out << '|' << gic.is_enabled(irq) << int{gic.priority(irq)} << gic.target(irq);
    for (int cpu = 0; cpu < gic.num_cpus(); ++cpu) out << gic.is_pending(irq, cpu);
  }
  util::Arena arena;
  mem::PhysicalMemory::Snapshot pages;
  board.dram().snapshot_to(pages, arena);
  for (const auto& page : pages.pages) {
    out << "|page " << page.index << ' '
        << std::hash<std::string_view>{}(std::string_view(
               reinterpret_cast<const char*>(page.data), mem::kPageSize));
  }
  return out.str();
}

// A run that climbed the ladder and took the golden result stops at its
// last injecting tick. Its slot then holds the golden state there plus
// every dead change the run made — which must be exactly the state the
// oracle's whole-window run passes through at that tick.
TEST(DecidedDomains, DeadChangesCarryAcrossLadderRungs) {
  for (const FaultDomain domain : {FaultDomain::Dram, FaultDomain::Gic}) {
    TestbedPool::instance().clear();
    TestPlan plan = domain_plan("freertos-steady", "bananapi", domain, kHighRate);
    plan.runs = 1;
    const auto entry = platform::BoardRegistry::instance().entry(plan.board);
    const Scenario& scenario = *find_scenario(plan.scenario);
    int compared = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      plan.seed = seed;
      const TestbedPool::Stats before = TestbedPool::instance().stats();
      (void)run_campaign(plan);
      const Shortcuts taken = shortcuts_since(before);
      if (taken.golden_results != 1 || taken.ladder_restores == 0) continue;
      ++compared;
      // The slot the campaign parked, as the executor keys it.
      TestbedLease slot = TestbedPool::instance().acquire(
          plan.board, "", *entry, plan.scenario + '\x1f' + "event");
      Testbed& parked = *slot.get();

      Testbed oracle(entry->factory());
      ASSERT_TRUE(scenario.setup(oracle).is_ok());
      scenario.boot(oracle);
      Injector injector(plan, util::SplitMix64(seed).next(), oracle.board().clock());
      injector.attach(oracle.hypervisor());
      oracle.run_until(parked.board().now());
      injector.detach(oracle.hypervisor());
      EXPECT_EQ(injector.injections(), 2u);
      EXPECT_EQ(machine_state(parked), machine_state(oracle))
          << fault_domain_name(domain) << ", seed " << seed;
    }
    EXPECT_GT(compared, 0) << fault_domain_name(domain);
  }
}

}  // namespace
}  // namespace mcs::fi
