// Shared by the decided-run suites: one-worker campaigns on the
// production path or the fresh oracle, a field-by-field comparison of
// their results, and the pool's decided-run counters over a stretch of a
// test.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/executor.hpp"
#include "core/testbed_pool.hpp"
#include "util/rng.hpp"

namespace mcs::fi::decided {

struct Capture {
  CampaignResult result;
  std::string log;
};

/// The production path: pooled slot, rewind points, decided runs.
inline Capture run_campaign(const TestPlan& plan, bool probe_recovery = true) {
  // One slot: the shortcut counts are deterministic.
  CampaignExecutor executor(plan, {.threads = 1, .probe_recovery = probe_recovery});
  Capture out;
  executor.set_progress([&out](std::uint32_t index, const RunResult& run) {
    out.log += run_log_line(index, run) + "\n";
  });
  out.result = executor.execute();
  return out;
}

/// The oracle: every run whole on a freshly constructed testbed
/// (CampaignExecutor::execute_one), with execute()'s run seeds.
inline Capture fresh_campaign(const TestPlan& plan, bool probe_recovery = true) {
  const CampaignExecutor executor(plan, {.threads = 1, .probe_recovery = probe_recovery});
  Capture out;
  util::SplitMix64 seeds(plan.seed);
  for (std::uint32_t i = 0; i < plan.runs; ++i) {
    out.result.runs.push_back(executor.execute_one(seeds.next()));
    out.log += run_log_line(i, out.result.runs.back()) + "\n";
  }
  return out;
}

inline void expect_identical(const Capture& want, const Capture& got,
                      const std::string& label) {
  EXPECT_EQ(want.log, got.log) << label;
  ASSERT_EQ(want.result.runs.size(), got.result.runs.size()) << label;
  for (std::size_t i = 0; i < want.result.runs.size(); ++i) {
    const RunResult& x = want.result.runs[i];
    const RunResult& y = got.result.runs[i];
    const std::string at = label + ", run " + std::to_string(i);
    EXPECT_EQ(x.outcome, y.outcome) << at;
    EXPECT_EQ(x.detail, y.detail) << at;
    EXPECT_EQ(x.fault_domain, y.fault_domain) << at;
    EXPECT_EQ(x.injections, y.injections) << at;
    EXPECT_EQ(x.flipped_bits, y.flipped_bits) << at;
    EXPECT_EQ(x.first_injection_tick, y.first_injection_tick) << at;
    EXPECT_EQ(x.failure_tick, y.failure_tick) << at;
    EXPECT_EQ(x.uart1_bytes, y.uart1_bytes) << at;
    EXPECT_EQ(x.led_toggles, y.led_toggles) << at;
    EXPECT_EQ(x.traps, y.traps) << at;
    EXPECT_EQ(x.hvcs, y.hvcs) << at;
    EXPECT_EQ(x.irqs, y.irqs) << at;
    EXPECT_EQ(x.create_result, y.create_result) << at;
    EXPECT_EQ(x.start_result, y.start_result) << at;
    EXPECT_EQ(x.cell_exists, y.cell_exists) << at;
    EXPECT_EQ(x.shutdown_reclaimed, y.shutdown_reclaimed) << at;
  }
}

struct Shortcuts {
  std::uint64_t golden_results = 0;
  std::uint64_t ladder_restores = 0;
  std::uint64_t panic_stops = 0;
};

inline Shortcuts shortcuts_since(const TestbedPool::Stats& before) {
  const TestbedPool::Stats after = TestbedPool::instance().stats();
  return {after.golden_results - before.golden_results,
          after.ladder_restores - before.ladder_restores,
          after.panic_stops - before.panic_stops};
}

}  // namespace mcs::fi::decided
