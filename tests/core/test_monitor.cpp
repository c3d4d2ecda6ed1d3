#include "core/monitor.hpp"

#include <gtest/gtest.h>

namespace mcs::fi {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() {
    EXPECT_TRUE(testbed_.enable_hypervisor().is_ok());
  }

  void boot_and_begin() {
    testbed_.boot_freertos_cell();
    monitor_.begin(testbed_);
  }

  Testbed testbed_;
  RunMonitor monitor_;
};

TEST_F(MonitorTest, HealthyRunClassifiesCorrect) {
  boot_and_begin();
  testbed_.run(2'000);
  const RunResult result = monitor_.finish(testbed_);
  EXPECT_EQ(result.outcome, Outcome::Correct);
  EXPECT_GE(result.uart1_bytes, RunMonitor::kLiveOutputThreshold);
  EXPECT_TRUE(result.cell_exists);
  EXPECT_EQ(result.failure_tick, 0u);
}

TEST_F(MonitorTest, PanicClassifiesPanicPark) {
  boot_and_begin();
  arch::EntryFrame frame = testbed_.board().cpu(0).make_trap_frame(
      arch::Syndrome::make(arch::ExceptionClass::Hvc, 0));
  frame.writer().set(arch::Reg::R0, 0xDEAD);
  (void)testbed_.hypervisor().arch_handle_trap(frame);
  const RunResult result = monitor_.finish(testbed_);
  EXPECT_EQ(result.outcome, Outcome::PanicPark);
  EXPECT_FALSE(result.detail.empty());
  EXPECT_GT(result.failure_tick, 0u);
}

TEST_F(MonitorTest, ParkedCpuClassifiesCpuPark) {
  boot_and_begin();
  testbed_.run(100);
  testbed_.board().cpu(1).park("unhandled trap exception class 0x24");
  const RunResult result = monitor_.finish(testbed_);
  EXPECT_EQ(result.outcome, Outcome::CpuPark);
  EXPECT_NE(result.detail.find("0x24"), std::string::npos);
}

TEST_F(MonitorTest, FailedBringUpClassifiesInconsistent) {
  boot_and_begin();
  testbed_.board().cpu(1).fail_boot("entry gate not executable");
  const RunResult result = monitor_.finish(testbed_);
  EXPECT_EQ(result.outcome, Outcome::InconsistentCell);
  EXPECT_NE(result.detail.find("failed"), std::string::npos);
}

TEST_F(MonitorTest, CreateFailureClassifiesInvalidArguments) {
  // Simulate the §III root-context outcome: create rejected, no cell.
  testbed_.linux_root().cell_create(0xBAD0'0000);
  testbed_.run(5);
  monitor_.begin(testbed_);
  testbed_.run(50);
  const RunResult result = monitor_.finish(testbed_);
  EXPECT_EQ(result.outcome, Outcome::InvalidArguments);
  EXPECT_FALSE(result.cell_exists);
  EXPECT_EQ(result.create_result, jh::kHvcEInval);
}

TEST_F(MonitorTest, OnlineButSilentClassifiesSilentHang) {
  boot_and_begin();
  // Suspend every task: the cell stays online but emits nothing.
  auto& kernel = testbed_.freertos().kernel();
  for (std::size_t i = 0; i < kernel.task_count(); ++i) kernel.suspend(i);
  testbed_.run(2'000);
  const RunResult result = monitor_.finish(testbed_);
  EXPECT_EQ(result.outcome, Outcome::SilentHang);
}

TEST_F(MonitorTest, CleanShutdownClassifiesCorrect) {
  boot_and_begin();
  testbed_.run(500);
  testbed_.shutdown_freertos_cell();
  const RunResult result = monitor_.finish(testbed_);
  EXPECT_EQ(result.outcome, Outcome::Correct);
  EXPECT_NE(result.detail.find("shut down"), std::string::npos);
}

TEST_F(MonitorTest, ShutdownProbeReclaimsAfterCpuPark) {
  boot_and_begin();
  testbed_.run(100);
  testbed_.board().cpu(1).park("unhandled trap exception class 0x24");
  EXPECT_TRUE(probe_shutdown_reclaims(testbed_));
  EXPECT_EQ(testbed_.hypervisor().cpu_owner(1), jh::kRootCellId);
}

TEST_F(MonitorTest, ShutdownProbeFailsAfterPanic) {
  boot_and_begin();
  arch::EntryFrame frame = testbed_.board().cpu(0).make_trap_frame(
      arch::Syndrome::make(arch::ExceptionClass::Hvc, 0));
  frame.writer().set(arch::Reg::SP, 0);
  (void)testbed_.hypervisor().arch_handle_trap(frame);
  EXPECT_FALSE(probe_shutdown_reclaims(testbed_));
}

TEST_F(MonitorTest, OutcomeNamesAndFigure3Buckets) {
  EXPECT_EQ(outcome_name(Outcome::PanicPark), "panic-park");
  EXPECT_EQ(outcome_name(Outcome::InconsistentCell), "inconsistent-cell");
  EXPECT_TRUE(is_figure3_bucket(Outcome::Correct));
  EXPECT_TRUE(is_figure3_bucket(Outcome::PanicPark));
  EXPECT_TRUE(is_figure3_bucket(Outcome::CpuPark));
  EXPECT_FALSE(is_figure3_bucket(Outcome::InvalidArguments));
  EXPECT_FALSE(is_figure3_bucket(Outcome::SilentHang));
}

TEST_F(MonitorTest, DistributionAccumulatesAndMerges) {
  OutcomeDistribution a;
  a.add(Outcome::Correct);
  a.add(Outcome::Correct);
  a.add(Outcome::PanicPark);
  OutcomeDistribution b;
  b.add(Outcome::CpuPark);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.count(Outcome::Correct), 2u);
  EXPECT_DOUBLE_EQ(a.fraction(Outcome::Correct), 0.5);
  EXPECT_DOUBLE_EQ(OutcomeDistribution{}.fraction(Outcome::Correct), 0.0);
}

}  // namespace
}  // namespace mcs::fi
