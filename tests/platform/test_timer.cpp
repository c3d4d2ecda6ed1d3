#include "platform/timer.hpp"

#include <gtest/gtest.h>

#include "platform/board.hpp"

namespace mcs::platform {
namespace {

class TimerTest : public ::testing::Test {
 protected:
  TimerTest() : gic_(2), timer_("timer", kTimerBase, gic_, 2, clock_) {}

  /// Advance board time tick by tick, servicing the timer at each tick —
  /// the legacy polling loop the deadline scheduler must match.
  void tick_n(int n) {
    for (int i = 0; i < n; ++i) {
      clock_.tick();
      timer_.tick(clock_.now());
    }
  }

  util::SimClock clock_;
  irq::Gic gic_;
  PeriodicTimer timer_;
};

TEST_F(TimerTest, FiresEveryPeriod) {
  timer_.start(1, 10);
  tick_n(9);
  EXPECT_FALSE(gic_.is_pending(kVirtualTimerPpi, 1));
  tick_n(1);
  EXPECT_TRUE(gic_.is_pending(kVirtualTimerPpi, 1));
  EXPECT_EQ(timer_.fires(1), 1u);
  tick_n(10);
  EXPECT_EQ(timer_.fires(1), 2u);
}

TEST_F(TimerTest, PerCpuIndependence) {
  timer_.start(0, 5);
  tick_n(5);
  EXPECT_TRUE(gic_.is_pending(kVirtualTimerPpi, 0));
  EXPECT_FALSE(gic_.is_pending(kVirtualTimerPpi, 1));
}

TEST_F(TimerTest, StopHaltsFiring) {
  timer_.start(1, 3);
  tick_n(3);
  EXPECT_EQ(timer_.fires(1), 1u);
  timer_.stop(1);
  EXPECT_FALSE(timer_.is_running(1));
  tick_n(10);
  EXPECT_EQ(timer_.fires(1), 1u);
}

TEST_F(TimerTest, StopFreezesResidualUntilRestart) {
  timer_.start(1, 10);
  tick_n(6);  // 4 ticks of the period left
  timer_.stop(1);
  tick_n(25);  // paused time must not count
  ASSERT_TRUE(timer_.mmio_write(kTimerStride * 1 + kTimerCtl, 1).is_ok());
  EXPECT_EQ(timer_.mmio_read(kTimerStride * 1 + kTimerCount).value(), 4u);
  tick_n(3);
  EXPECT_EQ(timer_.fires(1), 0u);
  tick_n(1);
  EXPECT_EQ(timer_.fires(1), 1u);
}

TEST_F(TimerTest, PeriodOneFiresEveryTick) {
  timer_.start(1, 1);
  tick_n(7);
  EXPECT_EQ(timer_.fires(1), 7u);
}

TEST_F(TimerTest, MmioProgrammingPath) {
  ASSERT_TRUE(timer_.mmio_write(kTimerStride * 1 + kTimerInterval, 4).is_ok());
  ASSERT_TRUE(timer_.mmio_write(kTimerStride * 1 + kTimerCtl, 1).is_ok());
  EXPECT_TRUE(timer_.is_running(1));
  EXPECT_EQ(timer_.mmio_read(kTimerStride * 1 + kTimerInterval).value(), 4u);
  EXPECT_EQ(timer_.mmio_read(kTimerStride * 1 + kTimerCtl).value(), 1u);
  tick_n(4);
  EXPECT_EQ(timer_.fires(1), 1u);
  EXPECT_EQ(timer_.mmio_read(kTimerStride * 1 + kTimerCount).value(), 4u);
}

TEST_F(TimerTest, MmioValidation) {
  EXPECT_FALSE(timer_.mmio_write(kTimerStride * 5 + kTimerCtl, 1).is_ok());
  EXPECT_FALSE(timer_.mmio_read(kTimerStride * 5).is_ok());
  EXPECT_FALSE(timer_.mmio_write(kTimerStride * 0 + 0xC, 1).is_ok());
}

TEST_F(TimerTest, InvalidStartIgnored) {
  timer_.start(5, 10);   // absent cpu
  timer_.start(0, 0);    // zero period
  EXPECT_FALSE(timer_.is_running(0));
  EXPECT_EQ(timer_.fires(5), 0u);
}

TEST_F(TimerTest, ResetClearsState) {
  PeriodicTimer::Snapshot power_on;
  timer_.snapshot_to(power_on);
  timer_.start(0, 2);
  tick_n(2);
  timer_.restore_from(power_on);
  EXPECT_FALSE(timer_.is_running(0));
  EXPECT_EQ(timer_.fires(0), 0u);
  EXPECT_EQ(timer_.next_deadline(clock_.now()), kNoDeadline);
}

// --- deadline publication (the event-driven scheduler contract) -------------

TEST_F(TimerTest, QuiescentTimerPublishesNoDeadline) {
  EXPECT_EQ(timer_.next_deadline(clock_.now()), kNoDeadline);
  timer_.start(0, 5);
  timer_.stop(0);
  EXPECT_EQ(timer_.next_deadline(clock_.now()), kNoDeadline);
}

TEST_F(TimerTest, DeadlineIsEarliestArmedFire) {
  timer_.start(0, 10);
  tick_n(2);
  timer_.start(1, 3);  // armed at tick 2 → fires at 5; cpu0 fires at 10
  EXPECT_EQ(timer_.next_deadline(clock_.now()).value, 5u);
  tick_n(3);
  EXPECT_EQ(timer_.fires(1), 1u);
  EXPECT_EQ(timer_.next_deadline(clock_.now()).value, 8u);
}

TEST_F(TimerTest, GapTickIsEquivalentToPolling) {
  // The board may call tick(now) once at the deadline instead of once per
  // tick; the fire count and rearmed deadline must be identical.
  timer_.start(0, 50);
  clock_.advance(util::Ticks{50});
  timer_.tick(clock_.now());
  EXPECT_EQ(timer_.fires(0), 1u);
  EXPECT_EQ(timer_.next_deadline(clock_.now()).value, 100u);
  EXPECT_TRUE(gic_.is_pending(kVirtualTimerPpi, 0));
}

}  // namespace
}  // namespace mcs::platform
