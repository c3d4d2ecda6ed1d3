// Cell lifecycle across the full machine: create → start → bring-up →
// run → shutdown → destroy, including the §III hot-plug swap semantics
// and the inconsistent-state window.
#include <gtest/gtest.h>

#include "guests/freertos_image.hpp"
#include "hypervisor/machine.hpp"

namespace mcs::jh {
namespace {

constexpr std::uint64_t kConfigAddr = 0x4800'0000;

class LifecycleTest : public ::testing::Test {
 protected:
  LifecycleTest() : hv_(board_), machine_(board_, hv_) {
    hv_.snapshot_to(power_on_);
    EXPECT_TRUE(hv_.enable(make_root_cell_config()).is_ok());
    hv_.register_config(kConfigAddr, make_freertos_cell_config());
  }

  CellId create_cell() {
    const HvcResult id = hv_.guest_hypercall(
        0, static_cast<std::uint32_t>(Hypercall::CellCreate), kConfigAddr);
    EXPECT_GT(id, 0);
    machine_.bind_guest(static_cast<CellId>(id), freertos_);
    return static_cast<CellId>(id);
  }

  HvcResult call(Hypercall op, std::uint32_t arg) {
    return hv_.guest_hypercall(0, static_cast<std::uint32_t>(op), arg);
  }

  platform::BananaPiBoard board_;
  Hypervisor hv_;
  Machine machine_;
  guest::FreeRtosImage freertos_;
  Hypervisor::Snapshot power_on_;  ///< the hypervisor as constructed
};

TEST_F(LifecycleTest, StartBringsCpuOnlineNextTick) {
  const CellId id = create_cell();
  ASSERT_EQ(call(Hypercall::CellStart, id), 0);
  // The window: cell says Running, CPU still in bring-up.
  EXPECT_EQ(hv_.find_cell(id)->state(), CellState::Running);
  EXPECT_EQ(board_.cpu(1).power_state(), arch::PowerState::Booting);
  machine_.run_tick();
  EXPECT_TRUE(board_.cpu(1).is_online());
}

TEST_F(LifecycleTest, StartedCellRunsWorkload) {
  const CellId id = create_cell();
  ASSERT_EQ(call(Hypercall::CellStart, id), 0);
  machine_.run_ticks(3'000);
  EXPECT_GT(freertos_.blink_count(), 0u);
  EXPECT_GT(freertos_.messages_validated(), 0u);
  EXPECT_GT(board_.uart1().total_bytes(), 0u);
  EXPECT_EQ(freertos_.data_errors(), 0u);
}

TEST_F(LifecycleTest, StartNonexistentCellIsENoEnt) {
  EXPECT_EQ(call(Hypercall::CellStart, 42), kHvcENoEnt);
}

TEST_F(LifecycleTest, StartRootCellIsEInval) {
  EXPECT_EQ(call(Hypercall::CellStart, kRootCellId), kHvcEInval);
}

TEST_F(LifecycleTest, DoubleStartIsEBusy) {
  const CellId id = create_cell();
  ASSERT_EQ(call(Hypercall::CellStart, id), 0);
  machine_.run_tick();
  EXPECT_EQ(call(Hypercall::CellStart, id), kHvcEBusy);
}

TEST_F(LifecycleTest, ShutdownReturnsResourcesToRoot) {
  const CellId id = create_cell();
  ASSERT_EQ(call(Hypercall::CellStart, id), 0);
  machine_.run_ticks(100);
  ASSERT_EQ(call(Hypercall::CellShutdown, id), 0);
  EXPECT_EQ(hv_.find_cell(id)->state(), CellState::ShutDown);
  EXPECT_EQ(hv_.cpu_owner(1), kRootCellId);
  EXPECT_EQ(board_.cpu(1).power_state(), arch::PowerState::Off);
  EXPECT_FALSE(board_.gic().is_enabled(platform::kUart1Irq));
}

TEST_F(LifecycleTest, ShutdownRequiresRunning) {
  const CellId id = create_cell();
  EXPECT_EQ(call(Hypercall::CellShutdown, id), kHvcEInval);
  EXPECT_EQ(call(Hypercall::CellShutdown, kRootCellId), kHvcEInval);
  EXPECT_EQ(call(Hypercall::CellShutdown, 42), kHvcENoEnt);
}

TEST_F(LifecycleTest, DestroyRestoresRootMemory) {
  const CellId id = create_cell();
  ASSERT_FALSE(hv_.root_cell()
                   .memory_map()
                   .translate(kFreeRtosRamBase, mem::Access::Write)
                   .is_ok());
  ASSERT_EQ(call(Hypercall::CellDestroy, id), 0);
  EXPECT_EQ(hv_.find_cell(id), nullptr);
  EXPECT_TRUE(hv_.root_cell()
                  .memory_map()
                  .translate(kFreeRtosRamBase, mem::Access::Write)
                  .is_ok());
}

TEST_F(LifecycleTest, DestroyRunningCellReclaimsFirst) {
  const CellId id = create_cell();
  ASSERT_EQ(call(Hypercall::CellStart, id), 0);
  machine_.run_ticks(10);
  ASSERT_EQ(call(Hypercall::CellDestroy, id), 0);
  EXPECT_EQ(hv_.cpu_owner(1), kRootCellId);
  EXPECT_EQ(hv_.cells().size(), 1u);
}

TEST_F(LifecycleTest, DestroyRootIsEInval) {
  EXPECT_EQ(call(Hypercall::CellDestroy, kRootCellId), kHvcEInval);
}

TEST_F(LifecycleTest, CreateStartDestroyCycleRepeats) {
  // §III: "only destroying the cell and reallocating it fixes the
  // problem" — the cycle must be repeatable indefinitely.
  for (int round = 0; round < 5; ++round) {
    const HvcResult id = call(Hypercall::CellCreate, kConfigAddr);
    ASSERT_GT(id, 0) << "round " << round;
    machine_.bind_guest(static_cast<CellId>(id), freertos_);
    ASSERT_EQ(call(Hypercall::CellStart, static_cast<std::uint32_t>(id)), 0);
    machine_.run_ticks(50);
    EXPECT_TRUE(board_.cpu(1).is_online());
    ASSERT_EQ(call(Hypercall::CellDestroy, static_cast<std::uint32_t>(id)), 0);
    machine_.unbind_guest(static_cast<CellId>(id));
  }
  EXPECT_EQ(hv_.cells().size(), 1u);
}

TEST_F(LifecycleTest, SetLoadableReturnsToCreated) {
  const CellId id = create_cell();
  ASSERT_EQ(call(Hypercall::CellStart, id), 0);
  machine_.run_ticks(5);
  ASSERT_EQ(call(Hypercall::CellShutdown, id), 0);
  EXPECT_EQ(call(Hypercall::CellSetLoadable, id), 0);
  EXPECT_EQ(hv_.find_cell(id)->state(), CellState::Created);
  // And it can start again.
  EXPECT_EQ(call(Hypercall::CellStart, id), 0);
}

TEST_F(LifecycleTest, ParkedCellCpuRecoversOnlyViaDestroy) {
  const CellId id = create_cell();
  ASSERT_EQ(call(Hypercall::CellStart, id), 0);
  machine_.run_ticks(10);
  board_.cpu(1).park("unhandled trap exception class 0x24");
  // Start again fails while parked (cell still Running anyway).
  EXPECT_EQ(call(Hypercall::CellStart, id), kHvcEBusy);
  ASSERT_EQ(call(Hypercall::CellDestroy, id), 0);
  machine_.unbind_guest(id);
  // Re-create and start: the CPU boots again.
  const CellId id2 = create_cell();
  ASSERT_EQ(call(Hypercall::CellStart, id2), 0);
  machine_.run_tick();
  EXPECT_TRUE(board_.cpu(1).is_online());
}

// cell_on_cpu() reads a per-CPU table; after every operation that moves
// a CPU or creates/removes a cell it must still equal the owner lookup.
TEST_F(LifecycleTest, CellTableFollowsEveryOwnershipChange) {
  const auto table_matches = [&](const char* when) {
    EXPECT_EQ(hv_.cell_on_cpu(-1), nullptr) << when;
    EXPECT_EQ(hv_.cell_on_cpu(board_.num_cpus()), nullptr) << when;
    for (int cpu = 0; cpu < board_.num_cpus(); ++cpu) {
      EXPECT_EQ(hv_.cell_on_cpu(cpu), hv_.find_cell(hv_.cpu_owner(cpu)))
          << when << ", cpu " << cpu;
    }
  };
  table_matches("enable");

  CellId id = create_cell();
  table_matches("create");
  ASSERT_EQ(call(Hypercall::CellStart, id), 0);
  EXPECT_EQ(hv_.cell_on_cpu(1), hv_.find_cell(id));
  table_matches("start");
  machine_.run_ticks(5);
  Hypervisor::Snapshot snapshot;
  hv_.snapshot_to(snapshot);

  ASSERT_EQ(call(Hypercall::CellShutdown, id), 0);
  table_matches("shutdown");
  ASSERT_EQ(call(Hypercall::CellStart, id), 0);
  table_matches("restart");
  ASSERT_EQ(call(Hypercall::CellDestroy, id), 0);
  table_matches("destroy running");

  hv_.restore_from(snapshot);  // rebuilds the destroyed cell object
  ASSERT_NE(hv_.find_cell(id), nullptr);
  EXPECT_EQ(hv_.cell_on_cpu(1), hv_.find_cell(id));
  table_matches("restore");

  hv_.restore_from(power_on_);
  EXPECT_EQ(hv_.cell_on_cpu(0), nullptr);
  table_matches("reset");
  ASSERT_TRUE(hv_.enable(make_root_cell_config()).is_ok());
  EXPECT_EQ(hv_.cell_on_cpu(0), &hv_.root_cell());
  table_matches("re-enable");

  // Destroyed before it ever started: the CPU keeps the dead owner id.
  hv_.register_config(kConfigAddr, make_freertos_cell_config());
  id = create_cell();
  ASSERT_EQ(call(Hypercall::CellDestroy, id), 0);
  EXPECT_EQ(hv_.cell_on_cpu(1), nullptr);
  table_matches("destroy unstarted");
}

// The config registry is part of the power-on state: after a power-on
// restore, creating a cell from a config registered before it fails the
// way it does on a hypervisor that never saw the config.
TEST_F(LifecycleTest, PowerOnRestoreForgetsRegisteredConfigs) {
  platform::BananaPiBoard fresh_board;
  Hypervisor fresh(fresh_board);
  ASSERT_TRUE(fresh.enable(make_root_cell_config()).is_ok());
  const HvcResult unregistered = fresh.guest_hypercall(
      0, static_cast<std::uint32_t>(Hypercall::CellCreate), kConfigAddr);
  ASSERT_EQ(unregistered, kHvcEInval);

  hv_.restore_from(power_on_);
  ASSERT_TRUE(hv_.enable(make_root_cell_config()).is_ok());
  EXPECT_EQ(call(Hypercall::CellCreate, kConfigAddr), unregistered);
  EXPECT_EQ(hv_.find_cell(1), nullptr);
}

}  // namespace
}  // namespace mcs::jh
