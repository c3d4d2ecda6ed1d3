// Machine orchestration: guest binding, tick ordering, panic freeze.
#include "hypervisor/machine.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/testbed.hpp"

#include "guests/freertos_image.hpp"
#include "hypervisor/hypervisor.hpp"

namespace mcs::jh {
namespace {

constexpr std::uint64_t kConfigAddr = 0x4800'0000;

/// Minimal guest that counts its callbacks.
class CountingGuest final : public GuestImage {
 public:
  [[nodiscard]] std::string_view name() const override { return "counting"; }
  void on_start(GuestContext&) override { ++starts; }
  void run_quantum(GuestContext&) override { ++quanta; }
  void on_timer(GuestContext& ctx) override {
    ++timers;
    if (start_timer_once && timers == 1) ctx.stop_periodic_timer();
  }
  void on_irq(GuestContext&, std::uint32_t irq) override {
    irqs.push_back(irq);
  }

  int starts = 0;
  int quanta = 0;
  int timers = 0;
  bool start_timer_once = false;
  std::vector<std::uint32_t> irqs;
};

class MachineTest : public ::testing::Test {
 protected:
  MachineTest() : hv_(board_), machine_(board_, hv_) {
    EXPECT_TRUE(hv_.enable(make_root_cell_config()).is_ok());
    hv_.register_config(kConfigAddr, make_freertos_cell_config());
  }

  CellId start_cell_with(GuestImage& image) {
    const HvcResult id = hv_.guest_hypercall(
        0, static_cast<std::uint32_t>(Hypercall::CellCreate), kConfigAddr);
    EXPECT_GT(id, 0);
    machine_.bind_guest(static_cast<CellId>(id), image);
    EXPECT_EQ(hv_.guest_hypercall(
                  0, static_cast<std::uint32_t>(Hypercall::CellStart),
                  static_cast<std::uint32_t>(id)),
              0);
    return static_cast<CellId>(id);
  }

  platform::BananaPiBoard board_;
  Hypervisor hv_;
  Machine machine_;
};

TEST_F(MachineTest, OnStartFiresOncePerBringUp) {
  CountingGuest guest;
  (void)start_cell_with(guest);
  machine_.run_ticks(10);
  EXPECT_EQ(guest.starts, 1);
  EXPECT_GE(guest.quanta, 8);
}

TEST_F(MachineTest, QuantaStopWhenCpuParks) {
  CountingGuest guest;
  (void)start_cell_with(guest);
  machine_.run_ticks(5);
  const int quanta_before = guest.quanta;
  board_.cpu(1).park("test park");
  machine_.run_ticks(20);
  EXPECT_EQ(guest.quanta, quanta_before);
}

TEST_F(MachineTest, PanicFreezesAllGuests) {
  CountingGuest guest;
  (void)start_cell_with(guest);
  machine_.run_ticks(5);
  arch::EntryFrame bad = board_.cpu(0).make_trap_frame(
      arch::Syndrome::make(arch::ExceptionClass::Hvc, 0));
  bad.writer().set(arch::Reg::R0, 0x1);
  (void)hv_.arch_handle_trap(bad);
  const int quanta_before = guest.quanta;
  machine_.run_ticks(50);
  EXPECT_EQ(guest.quanta, quanta_before);
  // Time itself still flows (the board clock is hardware).
  EXPECT_EQ(board_.now().value, 55u);
}

TEST_F(MachineTest, TimerDeliveryReachesGuest) {
  CountingGuest guest;
  const CellId id = start_cell_with(guest);
  machine_.run_tick();  // bring-up
  board_.timer().start(1, 5);
  machine_.run_ticks(21);
  EXPECT_EQ(guest.timers, 4);
  (void)id;
}

TEST_F(MachineTest, UnbindStopsCallbacks) {
  CountingGuest guest;
  const CellId id = start_cell_with(guest);
  machine_.run_ticks(5);
  machine_.unbind_guest(id);
  const int quanta_before = guest.quanta;
  machine_.run_ticks(10);
  EXPECT_EQ(guest.quanta, quanta_before);
  EXPECT_EQ(machine_.guest_for(id), nullptr);
}

TEST_F(MachineTest, RebindReplacesImage) {
  CountingGuest first;
  CountingGuest second;
  const CellId id = start_cell_with(first);
  machine_.run_ticks(3);
  machine_.bind_guest(id, second);
  machine_.run_ticks(3);
  EXPECT_GT(first.quanta, 0);
  EXPECT_GT(second.quanta, 0);
}

TEST_F(MachineTest, SgiDeliveredToGuestOnIrq) {
  CountingGuest guest;
  (void)start_cell_with(guest);
  machine_.run_tick();
  ASSERT_TRUE(board_.gic().send_sgi(0, 1, 14).is_ok());
  machine_.run_tick();
  ASSERT_EQ(guest.irqs.size(), 1u);
  EXPECT_EQ(guest.irqs[0], 14u);
}

TEST_F(MachineTest, IrqDeliveryCappedPerTick) {
  CountingGuest guest;
  (void)start_cell_with(guest);
  machine_.run_tick();
  // Flood SGIs: more than the per-tick cap.
  for (irq::IrqId sgi = 0; sgi < 12; ++sgi) {
    (void)board_.gic().send_sgi(0, 1, sgi % 16);
  }
  machine_.run_tick();
  EXPECT_LE(guest.irqs.size(), 8u);  // kMaxIrqsPerTick
  machine_.run_tick();               // the rest drain next tick
  EXPECT_GE(guest.irqs.size(), 10u);
}

TEST_F(MachineTest, GuestForUnknownCellIsNull) {
  EXPECT_EQ(machine_.guest_for(42), nullptr);
}

// Machine::run_tick's panic invariant, pinned where it lives: after the
// hypervisor panics, ticks still run the devices (the timers keep raising
// their PPIs), but nothing RunMonitor::finish() or
// probe_shutdown_reclaims() reads changes. The executor's panic stop
// skips the rest of a window on the strength of this.
TEST(MachinePanic, DeviceTicksChangeNothingTheClassifierReads) {
  fi::Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  testbed.run(600);  // the root polls, FreeRTOS prints and blinks
  Hypervisor& hv = testbed.hypervisor();
  platform::Board& board = testbed.board();
  arch::EntryFrame bad =
      board.cpu(1).make_trap_frame(arch::Syndrome::make(arch::ExceptionClass::Hvc, 0));
  bad.writer().set(arch::Reg::R0, 0x1);  // wild trap-context pointer
  (void)hv.arch_handle_trap(bad);
  ASSERT_TRUE(hv.is_panicked());

  const auto classifier_inputs = [&] {
    std::ostringstream out;
    out << board.uart1().captured() << '|' << board.gpio().led_toggles() << '|';
    const Counters& c = hv.counters();
    out << c.traps << ' ' << c.hvcs << ' ' << c.irqs << ' ' << c.mmio_emulations << ' '
        << c.unhandled_traps << ' ' << c.cpu_parks << ' ' << c.panics << ' '
        << c.hypercall_errors << ' ' << hv.panic_reason() << '|';
    for (const Hypercall op : {Hypercall::CellCreate, Hypercall::CellStart,
                               Hypercall::CellShutdown, Hypercall::CellDestroy}) {
      out << testbed.linux_root().last_result(op) << ' ';
    }
    out << testbed.linux_root().records().size() << '|' << board.log().size() << '|';
    for (Cell* cell : hv.cells()) {
      out << cell->id() << ':' << static_cast<int>(cell->state()) << ':'
          << cell->console_bytes << ' ';
    }
    for (int cpu = 0; cpu < board.num_cpus(); ++cpu) {
      out << '|' << static_cast<int>(board.cpu(cpu).power_state()) << ' '
          << board.cpu(cpu).halt_reason() << ' ' << hv.cpu_owner(cpu);
    }
    return out.str();
  };
  const std::string before = classifier_inputs();
  const std::uint64_t tick_before = board.now().value;
  for (int tick = 0; tick < 500; ++tick) testbed.machine().run_tick();
  EXPECT_EQ(board.now().value, tick_before + 500);
  EXPECT_TRUE(board.gic().any_pending(1));  // device ticks did run
  EXPECT_EQ(classifier_inputs(), before);
}

}  // namespace
}  // namespace mcs::jh
