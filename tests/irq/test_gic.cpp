#include "irq/gic.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace mcs::irq {
namespace {

TEST(Gic, ClassifiesLineKinds) {
  EXPECT_TRUE(is_sgi(0));
  EXPECT_TRUE(is_sgi(15));
  EXPECT_TRUE(is_ppi(16));
  EXPECT_TRUE(is_ppi(27));
  EXPECT_TRUE(is_spi(32));
  EXPECT_FALSE(is_spi(kNumIrqs));
  EXPECT_FALSE(is_sgi(16));
}

TEST(Gic, BankedLinesEnabledAtReset) {
  Gic gic(2);
  EXPECT_TRUE(gic.is_enabled(27));   // virtual-timer PPI
  EXPECT_TRUE(gic.is_enabled(0));    // SGI
  EXPECT_FALSE(gic.is_enabled(34));  // SPIs need explicit enabling
}

TEST(Gic, SpiDeliveryNeedsEnableAndTarget) {
  Gic gic(2);
  ASSERT_TRUE(gic.raise_spi(34).is_ok());
  EXPECT_EQ(gic.peek(0), kSpuriousIrq);  // disabled: not deliverable
  ASSERT_TRUE(gic.enable(34).is_ok());
  ASSERT_TRUE(gic.raise_spi(34).is_ok());
  EXPECT_EQ(gic.peek(0), 34u);  // default target cpu0
  ASSERT_TRUE(gic.set_target(34, 1).is_ok());
  ASSERT_TRUE(gic.raise_spi(34).is_ok());
  EXPECT_EQ(gic.peek(1), 34u);
}

TEST(Gic, AcknowledgeMovesToActiveAndEoiClears) {
  Gic gic(2);
  ASSERT_TRUE(gic.raise_ppi(1, 27).is_ok());
  EXPECT_TRUE(gic.is_pending(27, 1));
  const IrqId acked = gic.acknowledge(1);
  EXPECT_EQ(acked, 27u);
  EXPECT_FALSE(gic.is_pending(27, 1));
  EXPECT_TRUE(gic.is_active(27, 1));
  EXPECT_EQ(gic.peek(1), kSpuriousIrq);  // active blocks re-delivery
  ASSERT_TRUE(gic.end_of_interrupt(1, 27).is_ok());
  EXPECT_FALSE(gic.is_active(27, 1));
}

TEST(Gic, AcknowledgeEmptyIsSpurious) {
  Gic gic(2);
  EXPECT_EQ(gic.acknowledge(0), kSpuriousIrq);
  EXPECT_EQ(gic.acknowledge(-1), kSpuriousIrq);
  EXPECT_EQ(gic.acknowledge(7), kSpuriousIrq);  // absent cpu
}

TEST(Gic, EoiWithoutActiveFails) {
  Gic gic(2);
  EXPECT_EQ(gic.end_of_interrupt(0, 27).code(), util::Code::EInval);
}

TEST(Gic, PriorityOrdersDelivery) {
  Gic gic(1);
  ASSERT_TRUE(gic.enable(40).is_ok());
  ASSERT_TRUE(gic.enable(50).is_ok());
  ASSERT_TRUE(gic.set_priority(40, 0x80).is_ok());
  ASSERT_TRUE(gic.set_priority(50, 0x40).is_ok());  // more urgent
  ASSERT_TRUE(gic.raise_spi(40).is_ok());
  ASSERT_TRUE(gic.raise_spi(50).is_ok());
  EXPECT_EQ(gic.acknowledge(0), 50u);
  EXPECT_EQ(gic.acknowledge(0), 40u);
}

TEST(Gic, EqualPriorityLowestIdWins) {
  Gic gic(1);
  for (IrqId irq : {40u, 36u}) {
    ASSERT_TRUE(gic.enable(irq).is_ok());
    ASSERT_TRUE(gic.set_priority(irq, 0x80).is_ok());
    ASSERT_TRUE(gic.raise_spi(irq).is_ok());
  }
  EXPECT_EQ(gic.acknowledge(0), 36u);
}

TEST(Gic, PriorityMaskBlocksDelivery) {
  Gic gic(1);
  ASSERT_TRUE(gic.enable(40).is_ok());
  ASSERT_TRUE(gic.set_priority(40, 0x80).is_ok());
  ASSERT_TRUE(gic.raise_spi(40).is_ok());
  gic.set_priority_mask(0, 0x80);  // only priorities < 0x80 pass
  EXPECT_EQ(gic.peek(0), kSpuriousIrq);
  gic.set_priority_mask(0, 0x81);
  EXPECT_EQ(gic.peek(0), 40u);
}

TEST(Gic, SgiRoutesToTargetCpuOnly) {
  Gic gic(2);
  ASSERT_TRUE(gic.send_sgi(0, 1, 14).is_ok());
  EXPECT_EQ(gic.peek(0), kSpuriousIrq);
  EXPECT_EQ(gic.peek(1), 14u);
}

TEST(Gic, SgiValidation) {
  Gic gic(2);
  EXPECT_FALSE(gic.send_sgi(0, 1, 20).is_ok());  // PPI, not SGI
  EXPECT_FALSE(gic.send_sgi(0, 5, 1).is_ok());   // absent target
  EXPECT_FALSE(gic.send_sgi(-1, 1, 1).is_ok());
}

TEST(Gic, RoutingValidation) {
  Gic gic(2);
  EXPECT_FALSE(gic.set_target(16, 1).is_ok());   // PPIs not routable
  EXPECT_FALSE(gic.set_target(34, 3).is_ok());   // absent cpu
  EXPECT_FALSE(gic.enable(kNumIrqs).is_ok());    // out of range
  EXPECT_FALSE(gic.raise_spi(27).is_ok());       // PPI via SPI API
  EXPECT_FALSE(gic.raise_ppi(0, 34).is_ok());    // SPI via PPI API
}

TEST(Gic, PerCpuPendingIsIndependent) {
  Gic gic(2);
  ASSERT_TRUE(gic.raise_ppi(0, 27).is_ok());
  EXPECT_TRUE(gic.is_pending(27, 0));
  EXPECT_FALSE(gic.is_pending(27, 1));
}

TEST(Gic, ForcePendingMakesALineDeliverable) {
  // The fault-injection entry points: force_pending asserts a line as if
  // the distributor's ISPENDR had been corrupted, squash_pending drops
  // one as if the assertion were lost — both through the same pending
  // machinery guest-raised interrupts use, so the peek index stays
  // coherent.
  Gic gic(2);
  ASSERT_TRUE(gic.enable(34).is_ok());
  ASSERT_TRUE(gic.set_target(34, 1).is_ok());
  gic.force_pending(1, 34);
  EXPECT_TRUE(gic.is_pending(34, 1));
  EXPECT_EQ(gic.peek(1), 34u);
  gic.squash_pending(1, 34);
  EXPECT_FALSE(gic.is_pending(34, 1));
  EXPECT_EQ(gic.peek(1), kSpuriousIrq);
}

TEST(Gic, ForceAndSquashPendingBoundsCheck) {
  Gic gic(2);
  // Out-of-range lines and CPUs are ignored, never UB.
  gic.force_pending(-1, 34);
  gic.force_pending(2, 34);
  gic.force_pending(0, kNumIrqs);
  gic.squash_pending(-1, 34);
  gic.squash_pending(0, kNumIrqs);
  for (int cpu = 0; cpu < 2; ++cpu) {
    for (IrqId irq = 0; irq < kNumIrqs; ++irq) {
      EXPECT_FALSE(gic.is_pending(irq, cpu));
    }
  }
}

TEST(Gic, ForcedPendingSurvivesSnapshotRoundTrip) {
  Gic gic(2);
  ASSERT_TRUE(gic.enable(40).is_ok());
  gic.force_pending(0, 40);
  Gic::Snapshot snapshot;
  gic.snapshot_to(snapshot);
  gic.squash_pending(0, 40);
  EXPECT_FALSE(gic.is_pending(40, 0));
  gic.restore_from(snapshot);
  // restore_from rebuilds the pending index from line state, so a forced
  // assertion restores exactly like a guest-raised one.
  EXPECT_TRUE(gic.is_pending(40, 0));
  EXPECT_EQ(gic.peek(0), 40u);
}

TEST(Gic, ResetCpuDropsPendingAndActive) {
  Gic gic(2);
  ASSERT_TRUE(gic.raise_ppi(1, 27).is_ok());
  (void)gic.acknowledge(1);
  ASSERT_TRUE(gic.raise_ppi(1, 28).is_ok());
  gic.reset_cpu(1);
  EXPECT_FALSE(gic.is_active(27, 1));
  EXPECT_FALSE(gic.is_pending(28, 1));
  EXPECT_EQ(gic.peek(1), kSpuriousIrq);
}

TEST(Gic, DeliveredCounterTracksAcks) {
  Gic gic(1);
  ASSERT_TRUE(gic.raise_ppi(0, 27).is_ok());
  (void)gic.acknowledge(0);
  (void)gic.end_of_interrupt(0, 27);
  ASSERT_TRUE(gic.raise_ppi(0, 27).is_ok());
  (void)gic.acknowledge(0);
  EXPECT_EQ(gic.delivered(27), 2u);
}

TEST(Gic, EnableAssignsDefaultPriority) {
  Gic gic(1);
  EXPECT_EQ(gic.priority(40), kIdlePriority);
  ASSERT_TRUE(gic.enable(40).is_ok());
  EXPECT_EQ(gic.priority(40), kDefaultPriority);
}

// Property: after any sequence of raise/ack/EOI, a line is never both
// pending and active on the same CPU (the GIC state-machine invariant).
class GicStateProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GicStateProperty, PendingAndActiveAreExclusivePerAck) {
  Gic gic(2);
  util::Xoshiro256 rng(GetParam());
  ASSERT_TRUE(gic.enable(34).is_ok());
  for (int step = 0; step < 500; ++step) {
    switch (rng.below(3)) {
      case 0: (void)gic.raise_ppi(static_cast<int>(rng.below(2)), 27); break;
      case 1: {
        const int cpu = static_cast<int>(rng.below(2));
        const IrqId acked = gic.acknowledge(cpu);
        if (acked != kSpuriousIrq) {
          ASSERT_FALSE(gic.is_pending(acked, cpu));
          ASSERT_TRUE(gic.is_active(acked, cpu));
        }
        break;
      }
      default: {
        const int cpu = static_cast<int>(rng.below(2));
        (void)gic.end_of_interrupt(cpu, 27);
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GicStateProperty, ::testing::Values(1, 7, 42));

TEST(Gic, SnapshotRoundTripRestoresLineAndMaskState) {
  Gic gic(2);
  ASSERT_TRUE(gic.enable(34).is_ok());
  ASSERT_TRUE(gic.set_priority(34, 3).is_ok());
  ASSERT_TRUE(gic.raise_spi(34).is_ok());
  ASSERT_TRUE(gic.raise_ppi(1, 27).is_ok());
  gic.set_priority_mask(0, 5);
  const IrqId acked = gic.acknowledge(0);  // 34 moves pending → active
  ASSERT_EQ(acked, 34u);

  Gic::Snapshot snapshot;
  gic.snapshot_to(snapshot);

  // Mutate everything the snapshot covers.
  (void)gic.end_of_interrupt(0, 34);
  ASSERT_TRUE(gic.enable(40).is_ok());
  ASSERT_TRUE(gic.raise_spi(40).is_ok());
  gic.set_priority_mask(0, 0xFF);
  gic.restore_from(snapshot);

  EXPECT_TRUE(gic.is_active(34, 0));
  EXPECT_FALSE(gic.is_pending(34, 0));
  EXPECT_TRUE(gic.is_pending(27, 1));
  EXPECT_FALSE(gic.is_pending(40, 0));
  // The restored mask lets the re-acknowledge path behave as captured.
  (void)gic.end_of_interrupt(0, 34);
  EXPECT_FALSE(gic.is_active(34, 0));
}

// --- pending-bitmap fast path ----------------------------------------------

/// Reference for peek(): the pre-bitmap full scan over every line, using
/// only the public accessors. The bitmap walk must be observationally
/// identical under any traffic.
IrqId reference_peek(const Gic& gic, int cpu) {
  IrqId best = kSpuriousIrq;
  std::uint8_t best_priority = kIdlePriority;
  for (IrqId irq = 0; irq < kNumIrqs; ++irq) {
    if (!gic.is_pending(irq, cpu) || !gic.is_enabled(irq)) continue;
    if (gic.is_active(irq, cpu)) continue;
    if (gic.priority(irq) >= gic.priority_mask(cpu)) continue;
    if (gic.priority(irq) < best_priority) {
      best = irq;
      best_priority = gic.priority(irq);
    }
  }
  return best;
}

class GicPeekProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GicPeekProperty, BitmapPeekMatchesFullScanUnderRandomTraffic) {
  Gic gic(4);
  util::Xoshiro256 rng(GetParam());
  for (int step = 0; step < 2'000; ++step) {
    const auto irq = static_cast<IrqId>(rng.below(kNumIrqs + 8));  // some invalid
    const int cpu = static_cast<int>(rng.below(5)) - 1;            // -1 invalid
    switch (rng.below(10)) {
      case 0: (void)gic.enable(irq); break;
      case 1: (void)gic.disable(irq); break;
      case 2: (void)gic.set_priority(irq, static_cast<std::uint8_t>(rng.below(256))); break;
      case 3: (void)gic.set_target(irq, cpu); break;
      case 4: (void)gic.raise_spi(irq); break;
      case 5: (void)gic.raise_ppi(cpu, irq); break;
      case 6: (void)gic.send_sgi(cpu, static_cast<int>(rng.below(4)), irq); break;
      case 7: (void)gic.acknowledge(cpu); break;
      case 8: (void)gic.end_of_interrupt(cpu, irq); break;
      case 9:
        if (rng.below(8) == 0) {
          gic.reset_cpu(cpu);
        } else {
          gic.set_priority_mask(cpu, static_cast<std::uint8_t>(rng.below(256)));
        }
        break;
    }
    for (int check_cpu = 0; check_cpu < gic.num_cpus(); ++check_cpu) {
      ASSERT_EQ(gic.peek(check_cpu), reference_peek(gic, check_cpu))
          << "step " << step << " cpu " << check_cpu;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GicPeekProperty, ::testing::Values(3, 11, 1337));

TEST(Gic, SnapshotRestoreRebuildsThePendingIndex) {
  Gic gic(2);
  ASSERT_TRUE(gic.enable(34).is_ok());
  ASSERT_TRUE(gic.enable(100).is_ok());  // second bitmap word
  ASSERT_TRUE(gic.set_target(100, 1).is_ok());
  ASSERT_TRUE(gic.raise_spi(34).is_ok());
  ASSERT_TRUE(gic.raise_spi(100).is_ok());
  ASSERT_TRUE(gic.raise_ppi(0, 27).is_ok());

  Gic::Snapshot snapshot;
  gic.snapshot_to(snapshot);

  // Scramble, then restore into the *same* instance: peek must be driven
  // by the captured pending set, not the scrambled index.
  while (gic.acknowledge(0) != kSpuriousIrq) {
  }
  while (gic.acknowledge(1) != kSpuriousIrq) {
  }
  ASSERT_TRUE(gic.raise_spi(35).is_ok());
  gic.restore_from(snapshot);
  EXPECT_EQ(gic.peek(0), reference_peek(gic, 0));
  EXPECT_EQ(gic.peek(1), reference_peek(gic, 1));
  EXPECT_FALSE(gic.is_pending(35, 0));
  EXPECT_EQ(gic.acknowledge(1), 100u);  // high-word pending bit survived

  // And into a fresh instance (the warm-start restore path).
  Gic fresh(2);
  fresh.restore_from(snapshot);
  EXPECT_EQ(fresh.peek(0), reference_peek(fresh, 0));
  EXPECT_TRUE(fresh.is_pending(34, 0));
  EXPECT_TRUE(fresh.is_pending(100, 1));
  EXPECT_TRUE(fresh.is_pending(27, 0));
}

TEST(Gic, RaiseFastPathsKeepValidationDiagnostics) {
  Gic gic(2);
  // The valid-wiring fast paths skip Status construction entirely; the
  // fallback must still produce the original diagnostics in the original
  // check order.
  EXPECT_EQ(gic.raise_spi(kNumIrqs).message(),
            "irq id out of range: " + std::to_string(kNumIrqs));
  EXPECT_EQ(gic.raise_spi(27).message(), "not an SPI");  // in-range PPI

  EXPECT_EQ(gic.raise_ppi(5, kNumIrqs + 1).message(),  // irq checked first
            "irq id out of range: " + std::to_string(kNumIrqs + 1));
  EXPECT_EQ(gic.raise_ppi(5, 27).message(), "cpu out of range: 5");
  EXPECT_EQ(gic.raise_ppi(-1, 27).message(), "cpu out of range: -1");
  EXPECT_EQ(gic.raise_ppi(0, 34).message(), "not a PPI");

  EXPECT_EQ(gic.send_sgi(9, 0, 3).message(), "cpu out of range: 9");
  EXPECT_EQ(gic.send_sgi(0, -2, 3).message(), "cpu out of range: -2");
  EXPECT_EQ(gic.send_sgi(0, 1, 27).message(), "not an SGI");
}

TEST(Gic, EoiFastPathKeepsValidationDiagnostics) {
  Gic gic(2);
  // Out-of-range arguments leave the fast path with the original
  // messages, irq checked before cpu.
  EXPECT_EQ(gic.end_of_interrupt(0, kNumIrqs).message(),
            "irq id out of range: " + std::to_string(kNumIrqs));
  EXPECT_EQ(gic.end_of_interrupt(7, kSpuriousIrq).message(),
            "irq id out of range: " + std::to_string(kSpuriousIrq));
  EXPECT_EQ(gic.end_of_interrupt(2, 27).message(), "cpu out of range: 2");
  EXPECT_EQ(gic.end_of_interrupt(-1, 27).message(), "cpu out of range: -1");
  EXPECT_EQ(gic.end_of_interrupt(1, 27).message(), "EOI for non-active irq 27");

  ASSERT_TRUE(gic.raise_ppi(1, 27).is_ok());
  ASSERT_EQ(gic.acknowledge(1), 27u);
  EXPECT_TRUE(gic.end_of_interrupt(1, 27).is_ok());
  EXPECT_FALSE(gic.is_active(27, 1));
  EXPECT_EQ(gic.end_of_interrupt(1, 27).code(), util::Code::EInval);  // once only
}

// any_pending() is the machine's empty-queue pre-check: it must be true
// whenever acknowledge() could return a line, and false exactly when no
// pending bit is set, deliverable or not.
TEST(Gic, AnyPendingTracksThePendingBitmap) {
  Gic gic(2);
  EXPECT_FALSE(gic.any_pending(0));
  EXPECT_FALSE(gic.any_pending(-1));
  EXPECT_FALSE(gic.any_pending(2));

  ASSERT_TRUE(gic.raise_spi(100).is_ok());  // disabled SPI: pending, not deliverable
  EXPECT_TRUE(gic.any_pending(0));
  EXPECT_FALSE(gic.any_pending(1));
  EXPECT_EQ(gic.acknowledge(0), kSpuriousIrq);
  gic.squash_pending(0, 100);
  EXPECT_FALSE(gic.any_pending(0));

  ASSERT_TRUE(gic.raise_ppi(1, 27).is_ok());
  EXPECT_TRUE(gic.any_pending(1));
  ASSERT_EQ(gic.acknowledge(1), 27u);
  EXPECT_FALSE(gic.any_pending(1));  // acknowledged: active, no longer pending
}

// A golden suffix's touch log must see every read and write of the
// fields a fault can change — enable, priority, target — and nothing of
// the lines the machine leaves alone.
TEST(Gic, TouchLogSeesLineFieldReadsAndWrites) {
  using util::TouchLog;
  using Field = TouchLog::GicField;
  Gic gic(2);
  TouchLog log;
  gic.set_touch_log(&log);
  log.begin_interval(0);
  ASSERT_TRUE(gic.enable(40).is_ok());  // writes enable, reads priority
  ASSERT_TRUE(gic.disable(41).is_ok());
  (void)gic.is_enabled(42);
  ASSERT_TRUE(gic.set_priority(43, 0x10).is_ok());
  (void)gic.priority(44);
  ASSERT_TRUE(gic.set_target(45, 1).is_ok());
  (void)gic.target(46);
  ASSERT_TRUE(gic.raise_spi(47).is_ok());  // routes by the target
  gic.force_pending(0, 48);                // a pending bit is no field...
  (void)gic.peek(0);                       // ...but peek reads 47's and 48's
  const auto touched = [&log](IrqId irq, Field field) {
    return log.touched_since(TouchLog::gic_key(irq, field), 0);
  };
  EXPECT_TRUE(touched(40, Field::Enable));
  EXPECT_TRUE(touched(40, Field::Priority));
  EXPECT_TRUE(touched(41, Field::Enable));
  EXPECT_TRUE(touched(42, Field::Enable));
  EXPECT_TRUE(touched(43, Field::Priority));
  EXPECT_TRUE(touched(44, Field::Priority));
  EXPECT_TRUE(touched(45, Field::Target));
  EXPECT_TRUE(touched(46, Field::Target));
  EXPECT_TRUE(touched(47, Field::Target));
  EXPECT_TRUE(touched(47, Field::Enable));
  EXPECT_TRUE(touched(48, Field::Priority));
  EXPECT_FALSE(touched(48, Field::Target));
  EXPECT_FALSE(touched(41, Field::Priority));
  EXPECT_FALSE(touched(49, Field::Enable));
  EXPECT_EQ(log.size(), 13u);
  // set_enabled writes back a dead enable flip: no priority side effect.
  gic.set_touch_log(nullptr);
  gic.set_enabled(50, true);
  EXPECT_TRUE(gic.is_enabled(50));
  EXPECT_EQ(gic.priority(50), kIdlePriority);
}

}  // namespace
}  // namespace mcs::irq
