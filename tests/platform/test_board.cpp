#include "platform/board.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "platform/board_registry.hpp"
#include "util/arena.hpp"

namespace mcs::platform {
namespace {

/// What fi::Testbed::reset() restores: the board as construction left it.
struct PowerOn {
  explicit PowerOn(const Board& board) { board.snapshot_to(snapshot, arena); }
  void restore(Board& board) const { board.restore_from(snapshot); }

  util::Arena arena;
  Board::Snapshot snapshot;
};

TEST(Board, ComposesThePaperTestbed) {
  BananaPiBoard board;
  EXPECT_EQ(board.num_cpus(), 2);  // dual-core Cortex-A7
  EXPECT_EQ(board.dram().size(), 1ull << 30);  // 1 GB of RAM
  EXPECT_EQ(board.cpu(0).id(), 0);
  EXPECT_EQ(board.cpu(1).id(), 1);
  EXPECT_EQ(board.name(), "bananapi");
  EXPECT_EQ(board.spec().num_cpus, 2);
}

TEST(Board, QuadVariantSizesCpuStorageFromSpec) {
  QuadA7Board board;
  EXPECT_EQ(board.num_cpus(), 4);
  for (int cpu = 0; cpu < board.num_cpus(); ++cpu) {
    EXPECT_EQ(board.cpu(cpu).id(), cpu);
  }
  EXPECT_EQ(board.gic().num_cpus(), 4);
  // Same A20 peripheral block at the same physical windows.
  EXPECT_EQ(board.bus().find_device(kUart1Base), &board.uart1());
  // Per-CPU timers exist for every core.
  board.timer().start(3, 5);
  board.run_ticks(5);
  EXPECT_EQ(board.timer().fires(3), 1u);
  EXPECT_TRUE(board.gic().is_pending(kVirtualTimerPpi, 3));
}

TEST(BoardRegistry, ShipsBothBuiltinVariants) {
  BoardRegistry& registry = BoardRegistry::instance();
  EXPECT_GE(registry.size(), 2u);
  const std::vector<std::string> names = registry.names();
  for (const char* expected : {"bananapi", "quad-a7"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(BoardRegistry, MakeBuildsFreshBoardsByName) {
  std::unique_ptr<Board> pi = make_board("bananapi");
  std::unique_ptr<Board> quad = make_board("quad-a7");
  ASSERT_NE(pi, nullptr);
  ASSERT_NE(quad, nullptr);
  EXPECT_EQ(pi->num_cpus(), 2);
  EXPECT_EQ(quad->num_cpus(), 4);
  EXPECT_NE(pi.get(), make_board("bananapi").get());  // fresh instances
  EXPECT_EQ(make_board("no-such-board"), nullptr);
}

TEST(BoardRegistry, FindSpecWithoutConstructingHardware) {
  const BoardSpec* spec = find_board_spec("quad-a7");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->num_cpus, 4);
  EXPECT_EQ(spec->ram_size, mem::kDramSize);
  EXPECT_EQ(spec->devices.size(), 4u);
  EXPECT_EQ(find_board_spec("no-such-board"), nullptr);
  EXPECT_NE(find_board_spec(kDefaultBoard), nullptr);
}

TEST(Board, DevicesAttachedToBus) {
  BananaPiBoard board;
  EXPECT_EQ(board.bus().find_device(kUart0Base), &board.uart0());
  EXPECT_EQ(board.bus().find_device(kUart1Base), &board.uart1());
  EXPECT_EQ(board.bus().find_device(kTimerBase), &board.timer());
  EXPECT_EQ(board.bus().find_device(kGpioBase), &board.gpio());
}

TEST(Board, TickAdvancesClockAndDevices) {
  BananaPiBoard board;
  board.timer().start(0, 3);
  board.run_ticks(3);
  EXPECT_EQ(board.now().value, 3u);
  EXPECT_TRUE(board.gic().is_pending(kVirtualTimerPpi, 0));
}

TEST(Board, RunTicksAccumulates) {
  BananaPiBoard board;
  board.run_ticks(10);
  board.run_ticks(5);
  EXPECT_EQ(board.now().value, 15u);
}

TEST(Board, ResetClearsCpusAndIrqState) {
  BananaPiBoard board;
  const PowerOn power_on(board);
  (void)board.cpu(1).power_on(0x1000);
  (void)board.cpu(1).complete_boot();
  (void)board.gic().raise_ppi(0, 27);
  power_on.restore(board);
  EXPECT_EQ(board.cpu(1).power_state(), arch::PowerState::Off);
  EXPECT_FALSE(board.gic().is_pending(27, 0));
}

// --- power-on restore (the testbed pool's reuse contract) -------------------

TEST(Board, ResetRestoresClockSerialAndEventLog) {
  BananaPiBoard board;
  const PowerOn power_on(board);
  (void)board.uart1().mmio_write(kUartThr, 'x');
  board.log().log(board.now(), util::Severity::Info, "test", -1, "entry");
  board.run_ticks(4);
  power_on.restore(board);
  // Power-on restore: a reused board must be indistinguishable from a
  // freshly built one — time restarts at 0, captures and logs are empty.
  EXPECT_EQ(board.now().value, 0u);
  EXPECT_TRUE(board.uart1().captured().empty());
  EXPECT_EQ(board.log().size(), 0u);
}

TEST(Board, ResetRestoresTimerDeadlinesToQuiescent) {
  BananaPiBoard board;
  const PowerOn power_on(board);
  board.timer().start(0, 7);
  board.timer().start(1, 13);
  board.run_ticks(3);
  EXPECT_NE(board.next_device_deadline(), kNoDeadline);
  power_on.restore(board);
  // All timers disarmed, fire counters rewound: no deadline constrains
  // the next run's event-driven leaps.
  EXPECT_EQ(board.next_device_deadline(), kNoDeadline);
  EXPECT_FALSE(board.timer().is_running(0));
  EXPECT_EQ(board.timer().fires(0), 0u);
}

TEST(Board, ResetRestoresUartGpioWindowsToPowerOn) {
  BananaPiBoard board;
  const PowerOn power_on(board);
  (void)board.uart0().mmio_write(kUartThr, 'a');
  board.uart1().feed_rx("pending");
  board.gpio().set_line(kGreenLedLine, true);
  board.gpio().set_line(3, true);
  power_on.restore(board);
  EXPECT_EQ(board.uart0().total_bytes(), 0u);
  EXPECT_FALSE(board.uart1().mmio_read(kUartLsr).value() & kLsrDataReady);
  EXPECT_FALSE(board.gpio().led_on());
  EXPECT_FALSE(board.gpio().line(3));
  EXPECT_EQ(board.gpio().led_toggles(), 0u);
}

TEST(Board, ResetRestoresUartIerAndGpioDirReadBackThroughMmio) {
  BananaPiBoard board;
  const PowerOn power_on(board);
  ASSERT_TRUE(board.bus().write_u32(kUart1Base + kUartIer, 1).is_ok());
  ASSERT_TRUE(board.bus().write_u32(kGpioBase + kGpioDir, 0xFF).is_ok());
  ASSERT_EQ(board.bus().read_u32(kUart1Base + kUartIer).value(), 1u);
  ASSERT_EQ(board.bus().read_u32(kGpioBase + kGpioDir).value(), 0xFFu);
  power_on.restore(board);
  EXPECT_EQ(board.bus().read_u32(kUart1Base + kUartIer).value(), 0u);
  EXPECT_EQ(board.bus().read_u32(kGpioBase + kGpioDir).value(), 0u);
}

TEST(Board, ResetRestoresIrqchipLineState) {
  QuadA7Board board;
  const PowerOn power_on(board);
  (void)board.gic().enable(kUart1Irq);
  (void)board.gic().set_target(kUart1Irq, 2);
  (void)board.gic().set_priority(kUart1Irq, 0x10);
  (void)board.gic().raise_spi(kUart1Irq);
  (void)board.gic().raise_ppi(1, kVirtualTimerPpi);
  power_on.restore(board);
  EXPECT_FALSE(board.gic().is_enabled(kUart1Irq));
  EXPECT_EQ(board.gic().target(kUart1Irq), 0);
  EXPECT_FALSE(board.gic().is_pending(kUart1Irq, 2));
  EXPECT_FALSE(board.gic().is_pending(kVirtualTimerPpi, 1));
  // Banked per-CPU lines come back enabled at the default priority, the
  // same state construction produces.
  EXPECT_TRUE(board.gic().is_enabled(kVirtualTimerPpi));
}

TEST(Board, ResetZeroesDramInPlaceWithoutFreeingPages) {
  BananaPiBoard board;
  const PowerOn power_on(board);
  ASSERT_TRUE(board.dram().write_u32(mem::kDramBase + 0x1000, 0xDEADBEEF).is_ok());
  const std::size_t resident = board.dram().resident_pages();
  ASSERT_GT(resident, 0u);
  power_on.restore(board);
  // Contents are power-on zeroes, but the pages stay resident (reuse
  // keeps the arena warm — no frees, no future allocations).
  EXPECT_EQ(board.dram().read_u32(mem::kDramBase + 0x1000).value(), 0u);
  EXPECT_EQ(board.dram().resident_pages(), resident);
}

TEST(Board, ResetZeroesCpuProfilingCounters) {
  BananaPiBoard board;
  const PowerOn power_on(board);
  board.cpu(0).trap_entries = 7;
  board.cpu(1).irq_entries = 3;
  power_on.restore(board);
  EXPECT_EQ(board.cpu(0).trap_entries, 0u);
  EXPECT_EQ(board.cpu(1).irq_entries, 0u);
}

TEST(Board, EventLogIsShared) {
  BananaPiBoard board;
  board.log().log(board.now(), util::Severity::Info, "test", -1, "entry");
  EXPECT_EQ(board.log().size(), 1u);
}

// --- the deadline scheduler -------------------------------------------------

TEST(Board, DeadlineCacheRefreshesOncePerRearmNotPerQuery) {
  BananaPiBoard board;
  // Quiescent polling: the first query may compute, every later one is a
  // cache hit.
  const std::uint64_t idle_before = board.deadline_refreshes();
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(board.next_device_deadline(), kNoDeadline);
  }
  EXPECT_LE(board.deadline_refreshes() - idle_before, 1u);

  // Arming a timer invalidates the cache exactly once...
  board.timer().start(0, 100);
  const std::uint64_t armed_before = board.deadline_refreshes();
  EXPECT_EQ(board.next_device_deadline().value, 100u);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(board.next_device_deadline().value, 100u);
  }
  EXPECT_EQ(board.deadline_refreshes() - armed_before, 1u);

  // ...and a busy span refreshes once per re-arm (10 fires in 1000
  // ticks), never once per tick: the cached value stays exact throughout.
  const std::uint64_t busy_before = board.deadline_refreshes();
  for (int tick = 0; tick < 1'000; ++tick) {
    board.tick();
    EXPECT_EQ(board.next_device_deadline().value,
              (board.now().value / 100 + 1) * 100);
  }
  EXPECT_EQ(board.timer().fires(0), 10u);
  const std::uint64_t busy_refreshes = board.deadline_refreshes() - busy_before;
  EXPECT_GE(busy_refreshes, 10u);   // every re-arm was noticed
  EXPECT_LE(busy_refreshes, 12u);   // but queries between re-arms were hits
}

TEST(Board, DeadlineCacheSurvivesResetAndRestore) {
  BananaPiBoard board;
  const PowerOn power_on(board);
  board.timer().start(0, 50);
  EXPECT_EQ(board.next_device_deadline().value, 50u);

  power_on.restore(board);  // timer disarmed: the cache must not echo the old 50
  EXPECT_EQ(board.next_device_deadline(), kNoDeadline);

  board.timer().start(1, 30);
  util::Arena arena(1 << 20);
  Board::Snapshot snapshot;
  board.snapshot_to(snapshot, arena);
  board.run_ticks(30);  // fire + re-arm: deadline now 60
  EXPECT_EQ(board.next_device_deadline().value, 60u);

  board.restore_from(snapshot);  // back to t=0, deadline 30 again
  EXPECT_EQ(board.next_device_deadline().value, 30u);
}

TEST(Board, QuiescentBoardPublishesNoDeadline) {
  BananaPiBoard board;
  EXPECT_EQ(board.next_device_deadline(), kNoDeadline);
  board.advance_to(util::Ticks{100'000});  // one leap, no device service
  EXPECT_EQ(board.now().value, 100'000u);
}

TEST(Board, AdvanceToStopsAtEveryTimerDeadline) {
  BananaPiBoard board;
  board.timer().start(0, 100);
  board.advance_to(util::Ticks{1'000});
  EXPECT_EQ(board.now().value, 1'000u);
  EXPECT_EQ(board.timer().fires(0), 10u);
  EXPECT_TRUE(board.gic().is_pending(kVirtualTimerPpi, 0));
}

TEST(Board, AdvanceToMatchesPerTickPolling) {
  // The golden property at board level: leaping produces exactly the
  // state per-tick polling does — on every registered board variant,
  // with a timer armed on every core the variant has.
  for (const std::string& name : BoardRegistry::instance().names()) {
    std::unique_ptr<Board> polled = make_board(name);
    std::unique_ptr<Board> leaped = make_board(name);
    ASSERT_NE(polled, nullptr) << name;
    for (Board* board : {polled.get(), leaped.get()}) {
      for (int cpu = 0; cpu < board->num_cpus(); ++cpu) {
        board->timer().start(cpu, 7 + 6 * static_cast<std::uint32_t>(cpu));
      }
    }
    for (int i = 0; i < 200; ++i) polled->tick();
    leaped->advance_to(util::Ticks{200});
    EXPECT_EQ(polled->now(), leaped->now()) << name;
    for (int cpu = 0; cpu < polled->num_cpus(); ++cpu) {
      EXPECT_EQ(polled->timer().fires(cpu), leaped->timer().fires(cpu))
          << name << " cpu" << cpu;
      EXPECT_EQ(polled->timer().fires(cpu),
                200u / (7u + 6u * static_cast<std::uint32_t>(cpu)))
          << name << " cpu" << cpu;
    }
  }
}

TEST(Board, SnapshotRoundTripRestoresClockDevicesAndDram) {
  BananaPiBoard board;
  util::Arena page_arena(64 * mem::kPageSize);
  board.timer().start(0, 10);
  board.gpio().set_line(kGreenLedLine, true);
  ASSERT_TRUE(board.dram().write_u32(mem::kDramBase + 0x100, 0xCAFEF00D).is_ok());
  board.log().log(board.now(), util::Severity::Info, "test", -1, "captured");
  board.run_ticks(25);  // 2 timer fires, pending PPI state, clock at 25

  Board::Snapshot snapshot;
  board.snapshot_to(snapshot, page_arena);
  const std::uint64_t fires_at_capture = board.timer().fires(0);
  const std::size_t log_at_capture = board.log().size();

  // Diverge: more time, more DRAM writes, more log records.
  board.run_ticks(100);
  ASSERT_TRUE(board.dram().write_u32(mem::kDramBase + 0x100, 0).is_ok());
  ASSERT_TRUE(board.dram().write_u32(mem::kDramBase + 64 * mem::kPageSize, 7).is_ok());
  board.log().log(board.now(), util::Severity::Info, "test", -1, "post-capture");
  ASSERT_NE(board.timer().fires(0), fires_at_capture);

  board.restore_from(snapshot);
  EXPECT_EQ(board.now().value, 25u);
  EXPECT_EQ(board.timer().fires(0), fires_at_capture);
  EXPECT_TRUE(board.gpio().line(kGreenLedLine));
  EXPECT_EQ(board.dram().read_u32(mem::kDramBase + 0x100).value(), 0xCAFEF00Du);
  EXPECT_EQ(board.dram().read_u32(mem::kDramBase + 64 * mem::kPageSize).value(), 0u);
  EXPECT_EQ(board.log().size(), log_at_capture);

  // The restored board resumes the captured schedule exactly: the same
  // 100 ticks must now reproduce the diverged run's fire count.
  const std::uint64_t diverged_fires = (25u + 100u) / 10u;
  board.run_ticks(100);
  EXPECT_EQ(board.timer().fires(0), diverged_fires);
}

TEST(Board, UartSnapshotTruncatesCaptureToTheMark) {
  BananaPiBoard board;
  util::Arena page_arena(16 * mem::kPageSize);
  ASSERT_TRUE(board.uart0().mmio_write(kUartThr, 'a').is_ok());
  ASSERT_TRUE(board.uart0().mmio_write(kUartThr, 'b').is_ok());
  Board::Snapshot snapshot;
  board.snapshot_to(snapshot, page_arena);
  ASSERT_TRUE(board.uart0().mmio_write(kUartThr, 'c').is_ok());
  ASSERT_EQ(board.uart0().captured(), "abc");
  board.restore_from(snapshot);
  EXPECT_EQ(board.uart0().captured(), "ab");
}

}  // namespace
}  // namespace mcs::platform
