#include "core/testbed.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

#include "hypervisor/ivshmem.hpp"
#include "platform/board_registry.hpp"

namespace mcs::fi {
namespace {

TEST(Testbed, EnableIsIdempotent) {
  Testbed testbed;
  EXPECT_TRUE(testbed.enable_hypervisor().is_ok());
  EXPECT_TRUE(testbed.enable_hypervisor().is_ok());
  EXPECT_TRUE(testbed.hypervisor().is_enabled());
}

TEST(Testbed, BootBringsUpThePaperDeployment) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  ASSERT_NE(testbed.freertos_cell(), nullptr);
  EXPECT_EQ(testbed.freertos_cell()->state(), jh::CellState::Running);
  EXPECT_TRUE(testbed.board().cpu(Testbed::kFreeRtosCpu).is_online());
  EXPECT_EQ(testbed.hypervisor().cpu_owner(Testbed::kRootCpu), jh::kRootCellId);
  EXPECT_EQ(testbed.hypervisor().cpu_owner(Testbed::kFreeRtosCpu),
            testbed.freertos_cell_id());
}

TEST(Testbed, GoldenProfileFindsTheThreeCandidates) {
  // The paper's profiling step: golden runs show which hypervisor
  // functions are exercised — all three candidates must be hot.
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  const auto profile = testbed.profile_golden(10'000);
  EXPECT_GT(profile.irqchip_entries, 1'000u);  // tick interrupts
  EXPECT_GT(profile.trap_entries, 50u);
  EXPECT_GT(profile.hvc_entries, 50u);
  EXPECT_GT(profile.per_cpu_traps[0], 0u);
  EXPECT_GT(profile.per_cpu_traps[1], 0u);
}

TEST(Testbed, ShutdownAndDestroyRoundTrip) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  const jh::CellId id = testbed.freertos_cell_id();
  testbed.shutdown_freertos_cell();
  EXPECT_EQ(testbed.hypervisor().find_cell(id)->state(),
            jh::CellState::ShutDown);
  testbed.destroy_freertos_cell();
  EXPECT_EQ(testbed.hypervisor().find_cell(id), nullptr);
}

TEST(Testbed, RunAdvancesBoardTime) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.run(123);
  EXPECT_EQ(testbed.board().now().value, 123u);
}

TEST(Testbed, TwoTestbedsAreIndependent) {
  Testbed a;
  Testbed b;
  ASSERT_TRUE(a.enable_hypervisor().is_ok());
  ASSERT_TRUE(b.enable_hypervisor().is_ok());
  a.boot_freertos_cell();
  EXPECT_NE(a.freertos_cell(), nullptr);
  EXPECT_EQ(b.freertos_cell(), nullptr);
  EXPECT_EQ(b.board().now().value, 0u);
}

// --- power-on restore (the testbed pool's reuse contract) -------------------

TEST(Testbed, RootTlbRevalidatesAcrossCellLifecycle) {
  // The stale-TLB hazard at system level: the root cell's address space
  // caches a translation for the loanable RAM pool, then cell create
  // carves that pool out of the root map. A stale hit would let the root
  // keep reaching memory it loaned away — the exact isolation break the
  // generation protocol exists to prevent.
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  mem::AddressSpace& root = testbed.hypervisor().root_cell().address_space();

  const mem::GuestAddr pool = jh::kFreeRtosRamBase;  // root maps it identity
  const auto before = root.translate_cached(pool, mem::Access::Write, 4);
  ASSERT_TRUE(before.is_ok());
  EXPECT_EQ(before.value().phys, pool);

  testbed.boot_freertos_cell();  // carve-out: the pool leaves the root map
  EXPECT_EQ(root.translate_cached(pool, mem::Access::Write, 4).status().code(),
            util::Code::EFault);

  testbed.destroy_workload_cell();  // hand-back: translations return
  const auto after = root.translate_cached(pool, mem::Access::Write, 4);
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(after.value().phys, pool);
}

TEST(Testbed, TlbRevalidatesAfterSnapshotRestore) {
  // Snapshot restore reassigns the region vectors it captured, so every
  // region pointer cached before the restore dangles. The map generation
  // bump is what keeps those pointers from ever being dereferenced; under
  // the sanitize CI job a stale hit here is a hard use-after-free.
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  testbed.capture_snapshot("tlb");

  mem::AddressSpace& root = testbed.hypervisor().root_cell().address_space();
  const mem::GuestAddr pool = jh::kFreeRtosRamBase;
  // Captured state: the pool is carved out of the root.
  ASSERT_FALSE(root.translate_cached(pool, mem::Access::Read, 4).is_ok());

  // Destroy hands the pool back and fills the root TLB with a pointer
  // into the *current* region vector.
  testbed.destroy_workload_cell();
  ASSERT_TRUE(root.translate_cached(pool, mem::Access::Read, 4).is_ok());

  // Restore rewinds to the carved state: the cached pointer is stale and
  // the walk must fault again instead of hitting it.
  ASSERT_TRUE(testbed.restore_snapshot());
  EXPECT_EQ(root.translate_cached(pool, mem::Access::Read, 4).status().code(),
            util::Code::EFault);
  ASSERT_NE(testbed.freertos_cell(), nullptr);
  EXPECT_EQ(testbed.freertos_cell()->state(), jh::CellState::Running);
}

TEST(TestbedReset, RestoresHypervisorMachineAndCellBookkeeping) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  ASSERT_NE(testbed.workload_cell(), nullptr);
  testbed.run(100);
  testbed.reset();
  EXPECT_FALSE(testbed.hypervisor().is_enabled());
  EXPECT_EQ(testbed.workload_cell_id(), 0u);
  EXPECT_EQ(testbed.secondary_cell_id(), 0u);
  EXPECT_EQ(testbed.board().now().value, 0u);
  EXPECT_EQ(testbed.hypervisor().counters().traps, 0u);
  EXPECT_EQ(testbed.hypervisor().cpu_owner(Testbed::kFreeRtosCpu),
            jh::kRootCellId);
  // The whole lifecycle works again from scratch on the same object.
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  ASSERT_NE(testbed.workload_cell(), nullptr);
  EXPECT_EQ(testbed.workload_cell()->state(), jh::CellState::Running);
}

TEST(TestbedReset, ReusedLifecycleMatchesFreshObservables) {
  // The same boot + window on a reused testbed must reproduce a fresh
  // testbed's observables exactly (the bit-identity the equivalence
  // suite pins campaign-wide, here at the testbed level).
  const auto drive = [](Testbed& testbed) {
    EXPECT_TRUE(testbed.enable_hypervisor().is_ok());
    testbed.boot_freertos_cell();
    testbed.run(500);
  };
  Testbed fresh;
  drive(fresh);

  Testbed reused;
  drive(reused);       // dirty it with a full first run
  reused.reset();
  drive(reused);       // second run on the reused object

  EXPECT_EQ(fresh.board().uart1().captured(), reused.board().uart1().captured());
  EXPECT_EQ(fresh.board().gpio().led_toggles(), reused.board().gpio().led_toggles());
  EXPECT_EQ(fresh.hypervisor().counters().traps,
            reused.hypervisor().counters().traps);
  EXPECT_EQ(fresh.hypervisor().counters().irqs,
            reused.hypervisor().counters().irqs);
  EXPECT_EQ(fresh.board().log().to_text(), reused.board().log().to_text());
  EXPECT_EQ(fresh.freertos().messages_validated(),
            reused.freertos().messages_validated());
}

TEST(TestbedReset, RestoresRootSharedCarvingForConcurrentCells) {
  // On the quad board the dual-cell deployment leaves the shared IO
  // windows ROOTSHARED (un-carved). After a reset, the same two-cell
  // bring-up must succeed again — stale carving state from the previous
  // run would make the second create fail root-coverage validation.
  Testbed testbed(platform::make_board("quad-a7"));
  ASSERT_TRUE(testbed.supports_concurrent_cells());
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(testbed.enable_hypervisor().is_ok()) << "round " << round;
    testbed.boot_freertos_cell();
    testbed.boot_secondary_osek_cell();
    ASSERT_NE(testbed.workload_cell(), nullptr) << "round " << round;
    ASSERT_NE(testbed.secondary_cell(), nullptr) << "round " << round;
    EXPECT_EQ(testbed.secondary_cell()->state(), jh::CellState::Running)
        << "round " << round;
    testbed.run(200);
    testbed.reset();
  }
}

TEST(TestbedReset, RestoresIvshmemRingContentsToPowerOn) {
  Testbed testbed(platform::make_board("quad-a7"));
  testbed.set_ivshmem(true);
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  testbed.boot_secondary_osek_cell();
  // Dirty the shared window the way the traffic scenario would: ring
  // header plus payload bytes.
  ASSERT_TRUE(
      testbed.board().dram().write_u32(jh::kIvshmemRingAToB + 8, 0x1000).is_ok());
  ASSERT_TRUE(
      testbed.board().dram().write_u32(jh::kIvshmemRingAToB + 16, 0xFEED).is_ok());
  testbed.ivshmem_stats().sent = 5;
  testbed.reset();
  EXPECT_EQ(testbed.board().dram().read_u32(jh::kIvshmemRingAToB + 8).value(), 0u);
  EXPECT_EQ(testbed.board().dram().read_u32(jh::kIvshmemRingAToB + 16).value(), 0u);
  EXPECT_EQ(testbed.ivshmem_stats().sent, 0u);
  EXPECT_FALSE(testbed.ivshmem_enabled());
}

TEST(TestbedReset, RunArenaIsRunScoped) {
  Testbed testbed;
  auto* scratch = testbed.run_arena().allocate_array<std::uint64_t>(8);
  scratch[0] = 42;
  EXPECT_GT(testbed.run_arena().bytes_in_use(), 0u);
  testbed.reset();
  EXPECT_EQ(testbed.run_arena().bytes_in_use(), 0u);
}

// --- golden-suffix ladder ----------------------------------------------------

/// A printable fingerprint of everything a run can observe or a later
/// tick can depend on: time, both consoles byte for byte, the event log,
/// root records, GPIO, hypervisor counters and cells, CPU state, every
/// GIC line, the timers, guest progress and the dirty DRAM contents.
std::string fingerprint(Testbed& testbed) {
  std::ostringstream out;
  platform::Board& board = testbed.board();
  out << "tick " << board.now().value << "\nuart0 " << board.uart0().captured()
      << "\nuart1 " << board.uart1().captured() << "\n";
  for (const util::LogRecord& record : board.log().records()) {
    out << "log " << record.timestamp.value << ' ' << record.component << ' '
        << record.message << "\n";
  }
  for (const guest::MgmtRecord& record : testbed.linux_root().records()) {
    out << "root " << static_cast<int>(record.op) << ' ' << record.arg << ' '
        << record.result << ' ' << record.tick << "\n";
  }
  out << "led " << board.gpio().led_toggles() << "\n";
  const jh::Counters& counters = testbed.hypervisor().counters();
  out << "hv " << counters.traps << ' ' << counters.hvcs << ' ' << counters.irqs
      << ' ' << counters.panics << "\n";
  for (jh::Cell* cell : testbed.hypervisor().cells()) {
    out << "cell " << cell->id() << ' ' << static_cast<int>(cell->state()) << ' '
        << cell->console_bytes << "\n";
  }
  for (int cpu = 0; cpu < board.num_cpus(); ++cpu) {
    const arch::Cpu& core = board.cpu(cpu);
    out << "cpu " << cpu << ' ' << static_cast<int>(core.power_state());
    for (const arch::Word word : core.regs().r) out << ' ' << word;
    const std::uint64_t stride = static_cast<std::uint64_t>(cpu) * platform::kTimerStride;
    out << " timer " << board.timer().mmio_read(stride + platform::kTimerCtl).value() << ' '
        << board.timer().mmio_read(stride + platform::kTimerInterval).value() << ' '
        << board.timer().mmio_read(stride + platform::kTimerCount).value() << "\n";
  }
  const irq::Gic& gic = board.gic();
  for (irq::IrqId irq = 0; irq < irq::kNumIrqs; ++irq) {
    out << "irq " << irq << ' ' << gic.is_enabled(irq) << ' ' << int{gic.priority(irq)}
        << ' ' << gic.target(irq) << ' ' << gic.delivered(irq);
    for (int cpu = 0; cpu < gic.num_cpus(); ++cpu) {
      out << ' ' << gic.is_pending(irq, cpu) << gic.is_active(irq, cpu);
    }
    out << "\n";
  }
  out << "freertos " << testbed.freertos().blink_count() << ' '
      << testbed.freertos().kernel().ticks() << "\n";
  util::Arena arena;
  mem::PhysicalMemory::Snapshot pages;
  board.dram().snapshot_to(pages, arena);
  for (const auto& page : pages.pages) {
    out << "page " << page.index << ' '
        << std::hash<std::string_view>{}(std::string_view(
               reinterpret_cast<const char*>(page.data), mem::kPageSize))
        << "\n";
  }
  return out.str();
}

// A rung restored into a run that is behind it on the golden trajectory
// gives the golden run's state at the rung's tick — including the bytes,
// log records and root records it appended after the point — and the
// same future.
TEST(TestbedLadder, RestoredRungEqualsTheGoldenStateAtItsTick) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  testbed.run(100);
  RunPoint point;
  point.filtered_calls = 3;
  testbed.capture_snapshot("ladder", point);

  // The golden run: some ticks, a log record and a root record of its
  // own, then a rung; then more ticks and a second rung.
  testbed.run(300);
  testbed.board().log().log(testbed.board().now(), util::Severity::Info, "test", -1,
                            "golden marker");
  testbed.linux_root().enqueue({jh::Hypercall::CellGetState, testbed.workload_cell_id()});
  testbed.run(200);
  RunPoint first = point;
  first.filtered_calls = 7;
  ASSERT_TRUE(testbed.capture_rung(first));
  const std::string at_first = fingerprint(testbed);
  // The rung sits past appended state of every kind.
  ASSERT_NE(at_first.find("golden marker"), std::string::npos);
  ASSERT_EQ(testbed.linux_root().records().size(),
            testbed.snapshot().linux_root.record_count + 1);
  ASSERT_GT(testbed.board().uart0().total_bytes(),
            testbed.snapshot().board.uart0.captured_size);
  ASSERT_GT(testbed.board().uart1().total_bytes(),
            testbed.snapshot().board.uart1.captured_size);
  testbed.run(400);
  const std::string after_first = fingerprint(testbed);
  RunPoint second = point;
  second.filtered_calls = 11;
  ASSERT_TRUE(testbed.capture_rung(second));
  testbed.run(2'000);
  ASSERT_EQ(testbed.rungs(), 2u);
  EXPECT_EQ(testbed.rung_point(0).filtered_calls, 7u);
  EXPECT_EQ(testbed.rung_point(1).filtered_calls, 11u);

  // A run from the point, a little behind the first rung, jumps to it.
  ASSERT_TRUE(testbed.restore_snapshot());
  testbed.run(50);
  ASSERT_NE(fingerprint(testbed), at_first);
  testbed.restore_rung(0);
  EXPECT_EQ(fingerprint(testbed), at_first);
  testbed.run(400);
  EXPECT_EQ(fingerprint(testbed), after_first);
  // From the first rung's tick straight on to the second (and back to
  // the point, which the rungs leave intact).
  testbed.restore_rung(1);
  EXPECT_EQ(fingerprint(testbed), after_first);
  ASSERT_TRUE(testbed.restore_snapshot());
  testbed.restore_rung(0);
  EXPECT_EQ(fingerprint(testbed), at_first);
}

TEST(TestbedLadder, RungsNeedAPointAndStopAtTheLadderLength) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  EXPECT_FALSE(testbed.capture_rung(RunPoint{}));  // no point held
  testbed.capture_snapshot("ladder");
  for (std::size_t i = 0; i < kLadderRungs; ++i) {
    testbed.run(10);
    EXPECT_TRUE(testbed.capture_rung(RunPoint{}));
  }
  EXPECT_FALSE(testbed.capture_rung(RunPoint{}));
  EXPECT_EQ(testbed.rungs(), kLadderRungs);

  // A guest table that grew since the point cannot be rewound into a run
  // still behind it: no rung.
  testbed.capture_snapshot("grown");
  (void)testbed.freertos().kernel().create_queue(4);
  EXPECT_FALSE(testbed.capture_rung(RunPoint{}));
  EXPECT_EQ(testbed.rungs(), 0u);
}

}  // namespace
}  // namespace mcs::fi
