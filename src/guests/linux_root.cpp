#include "guests/linux_root.hpp"

#include <charconv>

namespace mcs::guest {

void LinuxRootImage::on_start(jh::GuestContext& ctx) {
  // on_start fires once per vCPU (Linux is SMP on the root CPUs); the
  // boot banner belongs to the boot CPU only.
  if (ctx.cpu() == 0) {
    ctx.console_puts("Linux 5.10 (jailhouse-patched) root cell up\n");
  }
  // 100 Hz jiffy tick on every root CPU.
  ctx.start_periodic_timer(10);
}

void LinuxRootImage::on_timer(jh::GuestContext& ctx) {
  ++jiffies_;
  if (jiffies_ % 500 == 0) {
    // Rendered into a stack buffer: the line outgrows std::string's
    // inline storage, and the busy tick stays allocation-free.
    constexpr std::string_view kPrefix = "[root] jiffies ";
    char line[kPrefix.size() + 21] = {};  // + up to 20 digits + '\n'
    char* end = line + kPrefix.copy(line, kPrefix.size());
    end = std::to_chars(end, line + sizeof line - 1, jiffies_).ptr;
    *end++ = '\n';
    ctx.console_puts(std::string_view(line, static_cast<std::size_t>(end - line)));
  }
}

jh::HvcResult LinuxRootImage::last_result(jh::Hypercall op) const noexcept {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->op == op) return it->result;
  }
  return jh::kHvcENoSys;
}

void LinuxRootImage::run_quantum(jh::GuestContext& ctx) {
  // The jailhouse driver's ioctls and the management shell run on the
  // boot CPU; secondary root CPUs just run background load.
  if (ctx.cpu() != 0) return;
  ++quantum_counter_;

  // One management command per quantum: the driver's ioctl path.
  if (!pending_.empty()) {
    const MgmtCommand command = pending_.front();
    pending_.pop_front();
    const jh::HvcResult result =
        ctx.hypercall(static_cast<std::uint32_t>(command.op), command.arg);
    records_.push_back(
        {command.op, command.arg, result, ctx.now().value});
    const std::string verdict =
        result >= 0 ? "ok"
                    : (jh::is_invalid_arguments(result) ? "Invalid argument"
                                                        : "failed");
    ctx.console_puts("jailhouse " + std::string(hypercall_name(command.op)) +
                     " -> " + verdict + " (" + std::to_string(result) + ")\n");
    if (command.op == jh::Hypercall::CellCreate && result > 0) {
      last_created_cell_ = static_cast<std::uint32_t>(result);
    }
    return;
  }

  // Steady-state root workload: poll the monitored cell's state every
  // 50 ms (`jailhouse cell list` in a watch loop) — the root cell's
  // arch_handle_hvc() traffic for root-targeted campaigns.
  if (monitored_cell_ != 0 && quantum_counter_ % 50 == 0) {
    last_poll_state_ = ctx.hypercall(
        static_cast<std::uint32_t>(jh::Hypercall::CellGetState), monitored_cell_);
  }
}

}  // namespace mcs::guest
