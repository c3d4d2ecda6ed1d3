// Cell liveness watchdog: detection of the paper's inconsistent state and
// of CPU parks, plus the auto-remediation policy.
#include "hypervisor/watchdog.hpp"

#include <gtest/gtest.h>

#include "core/testbed.hpp"

namespace mcs::jh {
namespace {

class WatchdogTest : public ::testing::Test {
 protected:
  WatchdogTest() { EXPECT_TRUE(testbed_.enable_hypervisor().is_ok()); }

  CellWatchdog make_watchdog(RemediationPolicy policy) {
    // Default tuning: 100 ms checks, 5 silent checks before NoProgress.
    // The workload's natural print cadence has ~250 ms gaps, so anything
    // much tighter than 500 ms of tolerance false-positives.
    CellWatchdog::Options options;
    options.policy = policy;
    return CellWatchdog(testbed_.hypervisor(), options);
  }

  fi::Testbed testbed_;
};

TEST_F(WatchdogTest, HealthyCellRaisesNoAlarm) {
  CellWatchdog watchdog = make_watchdog(RemediationPolicy::ReportOnly);
  testbed_.machine().install_watchdog(&watchdog);
  testbed_.boot_freertos_cell();
  testbed_.run(3'000);
  EXPECT_EQ(watchdog.alarms(), 0u);
  testbed_.machine().install_watchdog(nullptr);
}

TEST_F(WatchdogTest, DetectsInconsistentCell) {
  // The §III finding: cell RUNNING while its CPU failed bring-up.
  CellWatchdog watchdog = make_watchdog(RemediationPolicy::ReportOnly);
  testbed_.machine().install_watchdog(&watchdog);
  testbed_.boot_freertos_cell();
  testbed_.board().cpu(1).fail_boot("entry gate not executable");
  testbed_.run(100);
  ASSERT_GE(watchdog.alarms(), 1u);
  EXPECT_EQ(watchdog.events()[0].alarm, WatchdogAlarm::CpuDead);
  EXPECT_EQ(watchdog.events()[0].cell, testbed_.freertos_cell_id());
  EXPECT_TRUE(testbed_.board().log().contains("watchdog", "cpu-dead"));
  testbed_.machine().install_watchdog(nullptr);
}

TEST_F(WatchdogTest, DetectsCpuPark) {
  CellWatchdog watchdog = make_watchdog(RemediationPolicy::ReportOnly);
  testbed_.machine().install_watchdog(&watchdog);
  testbed_.boot_freertos_cell();
  testbed_.run(200);
  testbed_.board().cpu(1).park("unhandled trap exception class 0x24");
  testbed_.run(100);
  ASSERT_GE(watchdog.alarms(), 1u);
  EXPECT_EQ(watchdog.events()[0].alarm, WatchdogAlarm::CpuParked);
  EXPECT_NE(watchdog.events()[0].detail.find("0x24"), std::string::npos);
  testbed_.machine().install_watchdog(nullptr);
}

TEST_F(WatchdogTest, DetectsSilentCell) {
  CellWatchdog watchdog = make_watchdog(RemediationPolicy::ReportOnly);
  testbed_.machine().install_watchdog(&watchdog);
  testbed_.boot_freertos_cell();
  testbed_.run(200);
  // Freeze the workload: CPU online, cell running, no output.
  auto& kernel = testbed_.freertos().kernel();
  for (std::size_t i = 0; i < kernel.task_count(); ++i) kernel.suspend(i);
  testbed_.run(2'000);
  ASSERT_GE(watchdog.alarms(), 1u);
  bool saw_no_progress = false;
  for (const WatchdogEvent& event : watchdog.events()) {
    if (event.alarm == WatchdogAlarm::NoProgress) saw_no_progress = true;
  }
  EXPECT_TRUE(saw_no_progress);
  testbed_.machine().install_watchdog(nullptr);
}

TEST_F(WatchdogTest, OneAlarmPerIncident) {
  CellWatchdog watchdog = make_watchdog(RemediationPolicy::ReportOnly);
  testbed_.machine().install_watchdog(&watchdog);
  testbed_.boot_freertos_cell();
  testbed_.board().cpu(1).fail_boot("stuck");
  testbed_.run(2'000);  // many check periods
  EXPECT_EQ(watchdog.alarms(), 1u);
  testbed_.machine().install_watchdog(nullptr);
}

TEST_F(WatchdogTest, AutoShutdownReclaimsTheCpu) {
  CellWatchdog watchdog = make_watchdog(RemediationPolicy::AutoShutdown);
  testbed_.machine().install_watchdog(&watchdog);
  testbed_.boot_freertos_cell();
  testbed_.board().cpu(1).fail_boot("broken bring-up");
  testbed_.run(100);
  ASSERT_EQ(watchdog.remediations(), 1u);
  EXPECT_TRUE(watchdog.events()[0].remediated);
  EXPECT_EQ(testbed_.freertos_cell()->state(), CellState::ShutDown);
  EXPECT_EQ(testbed_.hypervisor().cpu_owner(1), kRootCellId);
  testbed_.machine().install_watchdog(nullptr);
}

TEST_F(WatchdogTest, DetectionLatencyBoundedByCheckPeriod) {
  CellWatchdog watchdog = make_watchdog(RemediationPolicy::ReportOnly);
  testbed_.machine().install_watchdog(&watchdog);
  testbed_.boot_freertos_cell();
  const std::uint64_t fault_tick = testbed_.board().now().value;
  testbed_.board().cpu(1).fail_boot("late fault");
  testbed_.run(200);
  const std::uint64_t alarm_tick =
      watchdog.first_alarm_tick(testbed_.freertos_cell_id());
  ASSERT_GT(alarm_tick, 0u);
  EXPECT_LE(alarm_tick - fault_tick, 100u + 1);  // one check period
  testbed_.machine().install_watchdog(nullptr);
}

TEST_F(WatchdogTest, IgnoresCleanlyShutDownCells) {
  CellWatchdog watchdog = make_watchdog(RemediationPolicy::ReportOnly);
  testbed_.machine().install_watchdog(&watchdog);
  testbed_.boot_freertos_cell();
  testbed_.run(200);
  testbed_.shutdown_freertos_cell();
  testbed_.run(1'000);
  EXPECT_EQ(watchdog.alarms(), 0u);
  testbed_.machine().install_watchdog(nullptr);
}

TEST_F(WatchdogTest, SilentAfterPanic) {
  CellWatchdog watchdog = make_watchdog(RemediationPolicy::AutoShutdown);
  testbed_.machine().install_watchdog(&watchdog);
  testbed_.boot_freertos_cell();
  arch::EntryFrame frame = testbed_.board().cpu(0).make_trap_frame(
      arch::Syndrome::make(arch::ExceptionClass::Hvc, 0));
  frame.writer().set(arch::Reg::R0, 0xBAD);
  (void)testbed_.hypervisor().arch_handle_trap(frame);
  testbed_.run(500);
  // A panicked system has nothing to remediate; no false alarms either.
  EXPECT_EQ(watchdog.remediations(), 0u);
  testbed_.machine().install_watchdog(nullptr);
}

TEST_F(WatchdogTest, BatchedTicksMatchPerTickAccounting) {
  // on_ticks(n) is the event-driven scheduler's accounting primitive; it
  // must run check rounds at exactly the boundaries n on_tick() calls do.
  testbed_.boot_freertos_cell();
  testbed_.board().cpu(1).fail_boot("batch probe");

  CellWatchdog stepped = make_watchdog(RemediationPolicy::ReportOnly);
  CellWatchdog batched = make_watchdog(RemediationPolicy::ReportOnly);
  for (int i = 0; i < 250; ++i) stepped.on_tick();
  batched.on_ticks(37);   // crosses no boundary
  batched.on_ticks(100);  // crosses the 100-tick boundary mid-span
  batched.on_ticks(113);  // lands exactly on the 250th tick
  EXPECT_EQ(stepped.alarms(), batched.alarms());
  ASSERT_GE(batched.alarms(), 1u);
  EXPECT_EQ(stepped.events()[0].alarm, batched.events()[0].alarm);
}

TEST_F(WatchdogTest, TicksToNextCheckTracksBoundaries) {
  CellWatchdog watchdog = make_watchdog(RemediationPolicy::ReportOnly);
  EXPECT_EQ(watchdog.ticks_to_next_check(), 100u);
  watchdog.on_ticks(37);
  EXPECT_EQ(watchdog.ticks_to_next_check(), 63u);
  watchdog.on_ticks(63);
  EXPECT_EQ(watchdog.ticks_to_next_check(), 100u);
}

TEST_F(WatchdogTest, AlarmNames) {
  EXPECT_EQ(watchdog_alarm_name(WatchdogAlarm::CpuDead), "cpu-dead");
  EXPECT_EQ(watchdog_alarm_name(WatchdogAlarm::CpuParked), "cpu-parked");
  EXPECT_EQ(watchdog_alarm_name(WatchdogAlarm::NoProgress), "no-progress");
}

}  // namespace
}  // namespace mcs::jh
