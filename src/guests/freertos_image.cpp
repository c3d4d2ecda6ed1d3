#include "guests/freertos_image.hpp"

#include <cmath>

#include "hypervisor/cell.hpp"
#include "hypervisor/hypercall.hpp"
#include "hypervisor/hypervisor.hpp"
#include "hypervisor/ivshmem.hpp"
#include "platform/board.hpp"

namespace mcs::guest {
namespace {

/// xorshift-style integer hash used by the fifteen integer tasks; chosen
/// so each iteration is cheap and the chain is order-sensitive (a skipped
/// or duplicated iteration is detectable).
std::uint32_t int_chain_step(std::uint32_t h, std::uint32_t salt) noexcept {
  h ^= h << 13;
  h ^= h >> 17;
  h ^= h << 5;
  return h + salt;
}

}  // namespace

std::uint32_t FreeRtosImage::message_checksum(std::uint32_t seq) noexcept {
  // 16-bit payload + 16-bit Fletcher-ish tag, packed into one queue item.
  const std::uint32_t payload = seq & 0xffff;
  std::uint32_t a = 0xf0, b = 0x0d;
  for (unsigned i = 0; i < 16; ++i) {
    a = (a + ((payload >> i) & 1u) + i) % 255;
    b = (b + a) % 255;
  }
  return payload | (((a << 8) | b) << 16);
}

void FreeRtosImage::on_start(jh::GuestContext& ctx) {
  ctx.console_puts("FreeRTOS v10 on Jailhouse cell '" +
                   std::string(ctx.cell().name()) + "'\n");
  ctx.start_periodic_timer(kTickPeriod);
  // Enable the cell's USART interrupt line through the virtualised GIC
  // distributor (a trapped MMIO write, as on real Jailhouse).
  const std::uint32_t uart1_bit = 1u << (platform::kUart1Irq - 32);
  (void)ctx.mmio_write_u32(jh::kGicDistBase + 0x104, uart1_bit);
  if (!spawned_) {
    spawn_workload();
    spawned_ = true;
  }
  ctx.console_puts("scheduler started, " +
                   std::to_string(kernel_.task_count()) + " tasks\n");
}

void FreeRtosImage::spawn_workload() {
  msg_queue_ = kernel_.create_queue(8);

  // 1) LED blink task — priority 3, 500 ms period (visible heartbeat).
  kernel_.add_task("blink", 3, [this](rtos::TaskContext& t) {
    led_on_ = !led_on_;
    t.guest.set_led(led_on_);
    ++blinks_;
    if (blinks_ % 4 == 0) {
      t.guest.console_puts("blink " + std::to_string(blinks_) + "\n");
    }
    t.kernel.delay(t.self, 500);
  });

  // 2) Send/receive pair — priority 4, queue-coupled, checksum-validated.
  kernel_.add_task("tx", 4, [this](rtos::TaskContext& t) {
    const std::uint32_t item = message_checksum(tx_seq_);
    if (t.kernel.queue_send(t.self, msg_queue_, item)) {
      ++tx_seq_;
      t.kernel.delay(t.self, 20);
    }
    // If the queue was full the task is now blocked; retried on wake.
  });
  kernel_.add_task("rx", 4, [this](rtos::TaskContext& t) {
    const auto item = t.kernel.queue_receive(t.self, msg_queue_);
    if (!item.has_value()) return;  // blocked until data arrives
    if (*item == message_checksum(rx_seq_)) {
      ++rx_validated_;
      if (rx_validated_ % 25 == 0) {
        t.guest.console_puts("rx " + std::to_string(rx_validated_) + " ok\n");
      }
    } else {
      ++data_errors_;
      t.guest.console_puts("rx CHECKSUM ERROR at seq " +
                           std::to_string(rx_seq_) + "\n");
    }
    ++rx_seq_;
  });

  // 3) Two floating-point tasks — priority 2, periodically self-check
  //    against an independent recomputation.
  for (int fp = 0; fp < 2; ++fp) {
    kernel_.add_task("fp" + std::to_string(fp), 2,
                     [this, fp](rtos::TaskContext& t) {
      const auto index = static_cast<std::size_t>(fp);
      auto& acc = fp_accumulators_[index];
      auto& shadow = fp_shadows_[index];
      auto& iter = fp_iterations_[index];
      // 32 accumulation steps per lap of a convergent series, applied to
      // the working accumulator and, in reverse association, to a shadow
      // copy. State corruption shows up as divergence between the two.
      // Each term is computed once; both sums add the same doubles.
      std::array<double, 32> terms{};
      for (std::size_t i = 0; i < terms.size(); ++i) {
        const double k = static_cast<double>(iter * 32 + i + 1);
        terms[i] = (fp == 0 ? 1.0 : -1.0) / (k * k);
      }
      double lap = 0.0;
      for (auto term = terms.rbegin(); term != terms.rend(); ++term) lap += *term;
      for (const double term : terms) acc += term;
      shadow += lap;
      ++iter;
      if (iter % 50 == 0) {
        const bool ok = std::abs(shadow - acc) < 1e-9;
        if (!ok) ++data_errors_;
        t.guest.console_puts("fp" + std::to_string(fp) +
                             (ok ? " ok " : " BAD ") + std::to_string(iter) + "\n");
      }
      t.kernel.delay(t.self, 5 + static_cast<std::uint64_t>(fp) * 2);
    });
  }

  // 4) Fifteen integer tasks — priority 1, xorshift hash chains with
  //    staggered periods so their heartbeats interleave. The chain state
  //    lives in guest RAM, stored twice (dual-redundant) and compared on
  //    every lap: a flipped DRAM bit in either copy is caught here.
  for (int n = 0; n < kIntegerTasks; ++n) {
    kernel_.add_task(
        (n < 10 ? "int0" : "int") + std::to_string(n), 1,
        [this, n](rtos::TaskContext& t) {
          const auto index = static_cast<std::size_t>(n);
          const std::uint64_t addr = kStateBase + static_cast<std::uint64_t>(n) * 4;
          const std::uint64_t shadow_addr =
              kShadowBase + static_cast<std::uint64_t>(n) * 4;
          auto primary = t.guest.ram_read_u32(addr);
          auto shadow = t.guest.ram_read_u32(shadow_addr);
          if (!primary.is_ok() || !shadow.is_ok()) {
            ++data_errors_;
            return;
          }
          std::uint32_t hash = primary.value();
          if (hash == 0) {  // first lap: seed both copies
            hash = 0x9e37'79b9u + static_cast<std::uint32_t>(n);
          } else if (hash != shadow.value()) {
            ++data_errors_;
            t.guest.console_puts("int" + std::to_string(n) + " MISMATCH\n");
            // Recover by majority-of-one: rewrite both from the primary.
          }
          for (int i = 0; i < 64; ++i) {
            hash = int_chain_step(hash, static_cast<std::uint32_t>(n));
          }
          (void)t.guest.ram_write_u32(addr, hash);
          (void)t.guest.ram_write_u32(shadow_addr, hash);
          ++int_iterations_[index];
          if (int_iterations_[index] % 40 == 0) {
            t.guest.console_puts("int" + std::to_string(n) + " ok\n");
          }
          t.kernel.delay(t.self, 25 + static_cast<std::uint64_t>(n) * 3);
        });
  }
}

void FreeRtosImage::run_quantum(jh::GuestContext& ctx) {
  // A few scheduler slices per quantum: the Cortex-A7 retires many task
  // steps per millisecond; three keeps the console line rate realistic.
  for (int slice = 0; slice < 3; ++slice) {
    if (!kernel_.run_slice(ctx).has_value()) break;
  }
  ++heartbeat_counter_;
  // Periodic hypervisor heartbeat through the debug console hypercall —
  // the cell's arch_handle_hvc() traffic. Together with the GICD poke
  // below this yields ~120 HYP trap entries per minute on the cell CPU,
  // the traffic level the medium campaign's 1-per-100-calls rate samples.
  if (heartbeat_counter_ % 750 == 0) {
    (void)ctx.hypercall(static_cast<std::uint32_t>(jh::Hypercall::DebugConsolePutc),
                        static_cast<std::uint32_t>('.'));
  }
  // Periodic interrupt-controller maintenance: read back the SPI enable
  // bank through the *virtualised* GIC distributor — a trapped MMIO read
  // (stage-2 data abort, EC 0x24) emulated by the hypervisor.
  if (heartbeat_counter_ % 1500 == 500) {
    (void)ctx.mmio_read_u32(jh::kGicDistBase + 0x104);
  }
}

void FreeRtosImage::on_timer(jh::GuestContext& ctx) {
  (void)ctx;
  kernel_.on_tick();
}

void FreeRtosImage::on_irq(jh::GuestContext& ctx, std::uint32_t irq) {
  (void)ctx;
  if (irq == jh::kIvshmemDoorbellSgi) {
    // ivshmem peer rang: a receiver task would drain the ring here.
    ++doorbells_;
    return;
  }
  // The paper's workload owns no other device interrupts beyond the tick;
  // a delivered unknown vector is counted and ignored (predictable error
  // handling, as §III expects from corrupted IRQ vectors).
  ++unknown_irqs_;
}

}  // namespace mcs::guest
