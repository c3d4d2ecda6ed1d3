#include "core/monitor.hpp"

namespace mcs::fi {

void RunMonitor::begin(Testbed& testbed) {
  marks_.open_tick = testbed.board().now().value;
  marks_.uart1 = testbed.board().uart1().total_bytes();
  marks_.led = testbed.board().gpio().led_toggles();
  jh::Cell* workload = testbed.workload_cell();
  marks_.workload_console = workload != nullptr ? workload->console_bytes : 0;
}

// The monitored workload cell is whatever the scenario last booted on the
// non-root CPU — FreeRTOS in the paper's setup, OSEK in the AUTOSAR
// scenarios. The observables (USART, LED, CPU power state, management
// results) are payload-agnostic by design.

RunResult RunMonitor::finish(Testbed& testbed) const {
  RunResult result;
  platform::Board& board = testbed.board();
  jh::Hypervisor& hv = testbed.hypervisor();

  result.uart1_bytes = board.uart1().bytes_since(marks_.uart1);
  result.led_toggles = board.gpio().led_toggles() - marks_.led;
  result.traps = hv.counters().traps;
  result.hvcs = hv.counters().hvcs;
  result.irqs = hv.counters().irqs;
  result.create_result = testbed.linux_root().last_result(jh::Hypercall::CellCreate);
  result.start_result = testbed.linux_root().last_result(jh::Hypercall::CellStart);

  // Failure-detection timestamp: first hypervisor ERROR/FATAL record.
  for (const util::LogRecord& record : board.log().records()) {
    if (record.component == "hypervisor" &&
        record.severity >= util::Severity::Error) {
      result.failure_tick = record.timestamp.value;
      break;
    }
  }

  // 1. Panic park dominates: the fault propagated to the whole system.
  if (hv.is_panicked()) {
    result.outcome = Outcome::PanicPark;
    result.detail = hv.panic_reason();
    return result;
  }

  // 2. Cell never allocated: the management path failed. Expected
  //    fail-stop when the failure reads "invalid arguments".
  jh::Cell* cell = testbed.workload_cell();
  result.cell_exists = cell != nullptr;
  if (cell == nullptr) {
    if (jh::is_invalid_arguments(result.create_result) ||
        jh::is_invalid_arguments(result.start_result)) {
      result.outcome = Outcome::InvalidArguments;
      result.detail = "management hypercall rejected, cell not allocated";
    } else {
      result.outcome = Outcome::SilentHang;
      result.detail = "cell absent without a recorded EINVAL";
    }
    return result;
  }

  // The workload CPU comes from the cell's own config: board variants pin
  // cells to different cores (e.g. the OSEK cell on core 2 of quad-a7).
  const int workload_cpu =
      cell->config().cpus.empty() ? Testbed::kFreeRtosCpu : cell->config().cpus.front();
  const arch::Cpu& cpu1 = board.cpu(workload_cpu);
  switch (cpu1.power_state()) {
    case arch::PowerState::Parked:
      result.outcome = Outcome::CpuPark;
      result.detail = cpu1.halt_reason();
      return result;
    case arch::PowerState::Failed:
    case arch::PowerState::Booting:
      // "The CPU fails to come online as per the swap feature of the CPU
      // hot plug or the cell is left in a non-executable state" — while
      // Jailhouse still reports the cell running.
      result.outcome = Outcome::InconsistentCell;
      result.detail = "cell '" + cell->name() + "' state=" +
                      std::string(jh::cell_state_name(cell->state())) +
                      " but CPU " + std::string(arch::power_state_name(
                                        cpu1.power_state()));
      return result;
    case arch::PowerState::Off:
      if (cell->state() == jh::CellState::Running) {
        result.outcome = Outcome::InconsistentCell;
        result.detail = "cell marked running with its CPU powered off";
        return result;
      }
      result.outcome = Outcome::Correct;  // cleanly shut down
      result.detail = "cell shut down";
      return result;
    case arch::PowerState::On:
      break;
  }

  // 3. Secondary (concurrent) cell: the same bookkeeping-vs-physical-
  //    truth checks as the monitored cell — its failures must not hide
  //    behind a healthy workload on the other core.
  jh::Cell* secondary = testbed.secondary_cell();
  if (secondary != nullptr && secondary->state() == jh::CellState::Running &&
      !secondary->config().cpus.empty()) {
    const arch::Cpu& cpu2 = board.cpu(secondary->config().cpus.front());
    switch (cpu2.power_state()) {
      case arch::PowerState::Parked:
        result.outcome = Outcome::CpuPark;
        result.detail =
            "secondary cell '" + secondary->name() + "': " + cpu2.halt_reason();
        return result;
      case arch::PowerState::Failed:
      case arch::PowerState::Booting:
      case arch::PowerState::Off:
        result.outcome = Outcome::InconsistentCell;
        result.detail = "secondary cell '" + secondary->name() +
                        "' state=" +
                        std::string(jh::cell_state_name(secondary->state())) +
                        " but CPU " +
                        std::string(arch::power_state_name(cpu2.power_state()));
        return result;
      case arch::PowerState::On:
        break;
    }
  }

  // 4. Cross-cell traffic: a monitored cell that looks alive can still
  //    have had its inter-cell channel corrupted — lost doorbells, stale
  //    or mismatched payloads, ring faults. Only the ivshmem-traffic
  //    scenario feeds these stats; they are all-zero otherwise. The
  //    hypervisor-detected failures above stay the more precise verdicts.
  const IvshmemTrafficStats& xcell = testbed.ivshmem_stats();
  if (xcell.traffic_disrupted()) {
    result.outcome = Outcome::CrossCellCorruption;
    result.detail = "cross-cell traffic disrupted (corrupted=" +
                    std::to_string(xcell.corrupted) + ", lost_doorbells=" +
                    std::to_string(xcell.lost_doorbells) + ", ring_errors=" +
                    std::to_string(xcell.protocol_errors + xcell.send_failures) +
                    ", ok=" + std::to_string(xcell.received) + "/" +
                    std::to_string(xcell.sent) + ")";
    return result;
  }

  // 5. CPU online, cell running: console output decides. With a
  //    concurrent secondary cell resident the shared USART carries both
  //    consoles, so the monitored cell is judged by its *own* console
  //    byte counter — a hung workload cannot hide behind its peer's
  //    output. Single-cell deployments keep the USART observable the
  //    paper's analysts watched.
  const std::uint64_t live_bytes =
      secondary != nullptr ? cell->console_bytes - marks_.workload_console
                           : result.uart1_bytes;
  if (live_bytes >= kLiveOutputThreshold) {
    result.outcome = Outcome::Correct;
    result.detail = "workload live (" + std::to_string(live_bytes) +
                    (secondary != nullptr ? " console bytes)" : " USART bytes)");
  } else {
    result.outcome = Outcome::SilentHang;
    result.detail = secondary != nullptr ? "CPU online but workload console silent"
                                         : "CPU online but USART silent";
  }
  return result;
}

bool probe_shutdown_reclaims(Testbed& testbed) {
  jh::Hypervisor& hv = testbed.hypervisor();
  if (hv.is_panicked()) return false;  // nothing left to manage
  const jh::CellId id = testbed.workload_cell_id();
  if (id == 0 || hv.find_cell(id) == nullptr) return false;

  const jh::Cell* pre = hv.find_cell(id);
  const int workload_cpu = (pre != nullptr && !pre->config().cpus.empty())
                               ? pre->config().cpus.front()
                               : Testbed::kFreeRtosCpu;
  testbed.shutdown_workload_cell();
  const jh::Cell* cell = hv.find_cell(id);
  const bool state_ok =
      cell != nullptr && cell->state() == jh::CellState::ShutDown;
  const bool cpu_back = hv.cpu_owner(workload_cpu) == jh::kRootCellId;
  return state_ok && cpu_back && !hv.is_panicked();
}

}  // namespace mcs::fi
