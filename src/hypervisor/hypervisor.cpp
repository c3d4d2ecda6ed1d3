#include "hypervisor/hypervisor.hpp"

#include <algorithm>

#include "util/bitops.hpp"
#include "util/strings.hpp"

namespace mcs::jh {

using arch::Reg;
using util::hex;

std::string_view hook_point_name(HookPoint point) noexcept {
  switch (point) {
    case HookPoint::IrqchipHandleIrq: return "irqchip_handle_irq";
    case HookPoint::ArchHandleTrap: return "arch_handle_trap";
    case HookPoint::ArchHandleHvc: return "arch_handle_hvc";
  }
  return "?";
}

Hypervisor::Hypervisor(platform::Board& board)
    : board_(&board), config_registry_(std::make_shared<const ConfigRegistry>()) {
  cpu_owner_.fill(kRootCellId);
}

void Hypervisor::retire_tlb_counters(const Cell& cell) noexcept {
  retired_tlb_hits_ += cell.address_space().tlb_hits();
  retired_tlb_misses_ += cell.address_space().tlb_misses();
}

void Hypervisor::retire_all_tlb_counters() noexcept {
  for (const auto& [id, cell] : cells_) retire_tlb_counters(*cell);
}

std::uint64_t Hypervisor::stage2_tlb_hits() const noexcept {
  std::uint64_t total = retired_tlb_hits_;
  for (const auto& [id, cell] : cells_) total += cell->address_space().tlb_hits();
  return total;
}

std::uint64_t Hypervisor::stage2_tlb_misses() const noexcept {
  std::uint64_t total = retired_tlb_misses_;
  for (const auto& [id, cell] : cells_) total += cell->address_space().tlb_misses();
  return total;
}

void Hypervisor::snapshot_to(Snapshot& out) const {
  out.enabled = enabled_;
  out.panicked = panicked_;
  out.panic_reason = panic_reason_;
  out.counters = counters_;
  out.next_cell_id = next_cell_id_;
  out.cpu_owner = cpu_owner_;
  out.config_registry = config_registry_;
  out.cells.clear();
  out.cells.reserve(cells_.size());
  for (const auto& [id, cell] : cells_) {
    out.cells.emplace_back();
    cell->snapshot_to(out.cells.back());
  }
}

void Hypervisor::restore_from(const Snapshot& snapshot) {
  enabled_ = snapshot.enabled;
  panicked_ = snapshot.panicked;
  if (panic_reason_ != snapshot.panic_reason) panic_reason_ = snapshot.panic_reason;
  counters_ = snapshot.counters;
  hook_ = nullptr;
  next_cell_id_ = snapshot.next_cell_id;
  cpu_owner_ = snapshot.cpu_owner;
  config_registry_ = snapshot.config_registry;
  // Ids are monotonic, so a live cell with a captured id *is* the captured
  // cell: restore it in place. Cells created after capture are dropped;
  // cells destroyed after capture are rebuilt from the captured config
  // (only the dual-cell swap scenario destroys cells mid-run).
  for (auto it = cells_.begin(); it != cells_.end();) {
    const bool captured =
        std::any_of(snapshot.cells.begin(), snapshot.cells.end(),
                    [&](const Cell::Snapshot& cell) { return cell.id == it->first; });
    if (captured) {
      it = std::next(it);
    } else {
      retire_tlb_counters(*it->second);
      it = cells_.erase(it);
    }
  }
  for (const Cell::Snapshot& cell_snap : snapshot.cells) {
    auto it = cells_.find(cell_snap.id);
    if (it == cells_.end()) {
      it = cells_
               .emplace(cell_snap.id, std::make_unique<Cell>(cell_snap.id, cell_snap.config,
                                                             board_->dram()))
               .first;
    }
    it->second->restore_from(cell_snap);
  }
  refresh_cpu_cells();
}

void Hypervisor::log(util::Severity severity, int cpu, std::string message) {
  board_->log().log(board_->now(), severity, "hypervisor", cpu, std::move(message));
}

util::Status Hypervisor::enable(CellConfig root_config) {
  if (enabled_) return util::busy("hypervisor already enabled");
  MCS_RETURN_IF_ERROR(root_config.validate(board_->num_cpus()));
  auto root = std::make_unique<Cell>(kRootCellId, std::move(root_config),
                                     board_->dram());
  // `jailhouse enable` runs from Linux, which is already live on all root
  // CPUs: cores that are already online stay online (the re-enable case),
  // cores that are off come up immediately — no bring-up gate either way.
  for (const int cpu : root->config().cpus) {
    arch::Cpu& core = board_->cpu(cpu);
    if (!core.is_online()) {
      MCS_RETURN_IF_ERROR(core.power_on(root->config().entry_point));
      MCS_RETURN_IF_ERROR(core.complete_boot());
    }
    set_cpu_owner(cpu, kRootCellId);
  }
  root->set_state(CellState::Running);
  retire_all_tlb_counters();
  cells_.clear();
  cells_.emplace(kRootCellId, std::move(root));
  refresh_cpu_cells();
  enabled_ = true;
  log(util::Severity::Info, 0, "hypervisor enabled, root cell '" +
                                   root_cell().name() + "' running");
  return util::ok_status();
}

void Hypervisor::register_config(std::uint64_t addr, CellConfig config) {
  auto registry = std::make_shared<ConfigRegistry>(*config_registry_);
  registry->insert_or_assign(addr, std::move(config));
  config_registry_ = std::move(registry);
}

Cell* Hypervisor::find_cell(CellId id) noexcept {
  const auto it = cells_.find(id);
  return it == cells_.end() ? nullptr : it->second.get();
}

const Cell* Hypervisor::find_cell(CellId id) const noexcept {
  const auto it = cells_.find(id);
  return it == cells_.end() ? nullptr : it->second.get();
}

std::vector<Cell*> Hypervisor::cells() noexcept {
  std::vector<Cell*> out;
  out.reserve(cells_.size());
  for (auto& [id, cell] : cells_) out.push_back(cell.get());
  return out;
}

void Hypervisor::set_cpu_owner(int cpu, CellId id) noexcept {
  cpu_owner_[static_cast<std::size_t>(cpu)] = id;
  cpu_cell_[static_cast<std::size_t>(cpu)] = find_cell(id);
}

void Hypervisor::refresh_cpu_cells() noexcept {
  for (std::size_t cpu = 0; cpu < cpu_cell_.size(); ++cpu) {
    cpu_cell_[cpu] = find_cell(cpu_owner_[cpu]);
  }
}

CellId Hypervisor::cpu_owner(int cpu) const noexcept {
  if (cpu < 0 || cpu >= board_->num_cpus()) return kRootCellId;
  return cpu_owner_[static_cast<std::size_t>(cpu)];
}

arch::EntryFrame Hypervisor::make_frame(int cpu, arch::Syndrome hsr,
                                        std::uint32_t r2, std::uint32_t r3,
                                        std::uint32_t r4) const {
  arch::EntryFrame frame = board_->cpu(cpu).make_trap_frame(hsr);
  arch::FrameWriter payload = frame.writer();
  payload.set(Reg::R2, r2);
  payload.set(Reg::R3, r3);
  payload.set(Reg::R4, r4);
  return frame;
}

// ---------------------------------------------------------------------------
// Failure paths
// ---------------------------------------------------------------------------

void Hypervisor::panic(int cpu, std::string reason) {
  if (panicked_) return;
  panicked_ = true;
  panic_reason_ = reason;
  ++counters_.panics;
  log(util::Severity::Fatal, cpu, "HYPERVISOR PANIC: " + reason);
  // The panic propagates to the whole system (§III "panic park"): every
  // core is parked, Linux dies with it. The hypervisor console (UART0)
  // carries the last words, as on the real board.
  const std::string banner = "\n[hyp] panic: " + reason + "\n";
  for (const char c : banner) {
    (void)board_->uart0().mmio_write(platform::kUartThr,
                                     static_cast<std::uint32_t>(c));
  }
  for (int i = 0; i < board_->num_cpus(); ++i) {
    board_->cpu(i).park("hypervisor panic: " + reason);
  }
}

void Hypervisor::unhandled_trap(int cpu, std::uint8_t ec_bits,
                                const std::string& detail) {
  ++counters_.unhandled_traps;
  ++counters_.cpu_parks;
  const std::string reason = "unhandled trap exception class " +
                             hex(ec_bits, 2) + " (" + detail + ")";
  log(util::Severity::Error, cpu, reason + " -> cpu_park()");
  board_->cpu(cpu).park(reason);
}

bool Hypervisor::check_entry_integrity(const arch::EntryFrame& frame) {
  const int cpu = frame.cpu;
  const arch::Cpu& core = board_->cpu(cpu);

  // r12: per-CPU block pointer. Everything per-CPU hangs off it; a wild
  // value sends the first per-CPU access into unmapped HYP space.
  const arch::Word percpu = frame.reg(Reg::R12);
  if (percpu != core.expected_percpu()) {
    panic(cpu, "per-CPU pointer corrupted (r12=" + hex(percpu) + ")");
    return false;
  }
  // r0: trap-context pointer. Out-of-window ⇒ wild dereference; skewed
  // within the stack window ⇒ the context restore loads a garbage CPSR and
  // the exception return is illegal. Both end in a hypervisor panic.
  const arch::Word context = frame.reg(Reg::R0);
  if (context != core.expected_trap_context()) {
    const bool in_window =
        context >= core.hyp_stack_base() && context < core.hyp_stack_top();
    panic(cpu, in_window
                   ? "skewed trap-context restore, illegal exception return (r0=" +
                         hex(context) + ")"
                   : "wild trap-context pointer dereference (r0=" + hex(context) + ")");
    return false;
  }
  // sp: HYP stack. First push through a corrupted sp faults in HYP mode.
  const arch::Word sp = frame.reg(Reg::SP);
  if (sp != core.expected_hyp_sp()) {
    panic(cpu, "HYP stack pointer corrupted (sp=" + hex(sp) + ")");
    return false;
  }
  // lr: exception-return trampoline.
  const arch::Word lr = frame.reg(Reg::LR);
  if (lr != arch::kReturnTrampoline) {
    panic(cpu, "return trampoline corrupted (lr=" + hex(lr) + ")");
    return false;
  }
  // pc: executing address of the handler itself.
  const arch::Word pc = frame.reg(Reg::PC);
  if (pc != arch::kTrapHandlerPc) {
    panic(cpu, "handler pc corrupted (pc=" + hex(pc) + ")");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// arch_handle_trap — the common trap dispatcher
// ---------------------------------------------------------------------------

TrapOutcome Hypervisor::arch_handle_trap(arch::EntryFrame& frame) {
  TrapOutcome out;
  if (panicked_) {
    out.action = TrapAction::Panicked;
    out.hvc_result = kHvcEBusy;
    return out;
  }
  const int cpu = frame.cpu;
  arch::Cpu& core = board_->cpu(cpu);
  ++core.trap_entries;
  ++counters_.traps;

  fire_hook(HookPoint::ArchHandleTrap, frame);

  if (!check_entry_integrity(frame)) {
    out.action = TrapAction::Panicked;
    out.hvc_result = kHvcEBusy;
    return out;
  }

  // The handler reads the syndrome out of r1 (where the entry stub left
  // the HSR). A flip in the EC field manufactures an exception class the
  // dispatcher has no handler for.
  const arch::Syndrome hsr{frame.reg(Reg::R1)};
  if (!arch::is_architected_class(hsr.ec_bits())) {
    unhandled_trap(cpu, hsr.ec_bits(), "unknown exception class");
    out.action = TrapAction::CpuParked;
    return out;
  }

  switch (hsr.ec()) {
    case arch::ExceptionClass::Hvc: {
      out.hvc_result = arch_handle_hvc(frame);
      break;
    }
    case arch::ExceptionClass::DataAbortLower: {
      if (!hsr.data_abort_syndrome_valid()) {
        // ISS.ISV cleared: the abort cannot be decoded for emulation. The
        // §III error path: class 0x24, unhandled.
        unhandled_trap(cpu, hsr.ec_bits(), "data abort with invalid ISS");
        out.action = TrapAction::CpuParked;
        return out;
      }
      Cell* cell = cell_on_cpu(cpu);
      if (cell == nullptr) {
        unhandled_trap(cpu, hsr.ec_bits(), "data abort with no owning cell");
        out.action = TrapAction::CpuParked;
        return out;
      }
      ++cell->stage2_faults;
      const std::uint32_t addr = frame.reg(Reg::R2);
      const std::uint32_t value = frame.reg(Reg::R3);
      std::uint32_t read_value = 0;
      if (!emulate_mmio(*cell, cpu, addr, value, hsr.data_abort_is_write(),
                        read_value)) {
        unhandled_trap(cpu, hsr.ec_bits(),
                       "unhandled MMIO access at " + hex(addr));
        out.action = TrapAction::CpuParked;
        return out;
      }
      ++counters_.mmio_emulations;
      out.mmio_read_value = read_value;
      break;
    }
    case arch::ExceptionClass::Smc:
      // Guest PSCI (idle/affinity queries): acknowledged, nothing to do in
      // steady state. Bring-up SMCs take the dedicated cpu_bringup_entry.
      break;
    case arch::ExceptionClass::Wfx:
      // Idle hint; resume immediately (the model has no wait states).
      break;
    case arch::ExceptionClass::PrefetchAbortLower:
      // Guest instruction abort: forwarded back to the guest — a guest
      // problem, not a hypervisor one.
      break;
    default:
      // Architected class with no handler in this hypervisor (CP accesses
      // etc.): same park path as Jailhouse's default case.
      unhandled_trap(cpu, hsr.ec_bits(),
                     std::string("no handler for class ") +
                         std::string(arch::exception_class_name(hsr.ec())));
      out.action = TrapAction::CpuParked;
      return out;
  }

  if (panicked_) {  // a nested path may have panicked
    out.action = TrapAction::Panicked;
    return out;
  }

  // Exception-return epilogue: an inner hook (arch_handle_hvc) may have
  // corrupted lr/pc after the entry check.
  const arch::Word exit_lr = frame.reg(Reg::LR);
  if (exit_lr != arch::kReturnTrampoline) {
    panic(cpu, "return trampoline corrupted at exit (lr=" + hex(exit_lr) + ")");
    out.action = TrapAction::Panicked;
    return out;
  }
  const arch::Word exit_pc = frame.reg(Reg::PC);
  if (exit_pc != arch::kTrapHandlerPc) {
    panic(cpu, "handler pc corrupted at exit (pc=" + hex(exit_pc) + ")");
    out.action = TrapAction::Panicked;
    return out;
  }
  return out;
}

// ---------------------------------------------------------------------------
// arch_handle_hvc — hypercall dispatch (validation-first)
// ---------------------------------------------------------------------------

HvcResult Hypervisor::arch_handle_hvc(arch::EntryFrame& frame) {
  const int cpu = frame.cpu;
  ++board_->cpu(cpu).hvc_entries;
  ++counters_.hvcs;

  fire_hook(HookPoint::ArchHandleHvc, frame);

  const std::uint32_t code = frame.reg(Reg::R2);
  const std::uint32_t arg0 = frame.reg(Reg::R3);
  Cell* cell = cell_on_cpu(cpu);
  if (cell != nullptr) ++cell->hypercalls;

  HvcResult result = 0;
  if (!is_valid_hypercall(code)) {
    // A corrupted hypercall code lands outside the table: -ENOSYS, which
    // the root driver surfaces as the §III "invalid arguments".
    result = kHvcENoSys;
  } else {
    const auto hc = static_cast<Hypercall>(code);
    const bool management =
        hc == Hypercall::Disable || hc == Hypercall::CellCreate ||
        hc == Hypercall::CellStart || hc == Hypercall::CellSetLoadable ||
        hc == Hypercall::CellDestroy || hc == Hypercall::CellShutdown;
    if (management && cpu_owner(cpu) != kRootCellId) {
      // Isolation: only the root cell manages cells.
      result = kHvcEPerm;
    } else {
      switch (hc) {
        case Hypercall::Disable: result = do_disable(cpu); break;
        case Hypercall::CellCreate: result = do_cell_create(cpu, arg0); break;
        case Hypercall::CellStart: result = do_cell_start(arg0); break;
        case Hypercall::CellSetLoadable: result = do_cell_set_loadable(arg0); break;
        case Hypercall::CellDestroy: result = do_cell_destroy(arg0); break;
        case Hypercall::HypervisorGetInfo:
          result = static_cast<HvcResult>(cells_.size());
          break;
        case Hypercall::CellGetState: result = do_cell_get_state(arg0); break;
        case Hypercall::CpuGetInfo: result = do_cpu_get_info(arg0); break;
        case Hypercall::DebugConsolePutc: result = do_debug_console_putc(arg0); break;
        case Hypercall::CellShutdown: result = do_cell_shutdown(arg0); break;
      }
    }
  }
  if (result < 0) {
    ++counters_.hypercall_errors;
    log(util::Severity::Warning, cpu,
        "hypercall " + std::to_string(code) + " failed: " + std::to_string(result));
  }
  // The result is written back through the per-CPU-derived context pointer
  // (recomputed from TPIDRPRW, not from a general-purpose register), so
  // the write-back itself is not corruptible by GP flips.
  return result;
}

// ---------------------------------------------------------------------------
// Hypercall implementations
// ---------------------------------------------------------------------------

HvcResult Hypervisor::do_cell_create(int cpu, std::uint32_t config_addr) {
  const auto it = config_registry_->find(config_addr);
  if (it == config_registry_->end()) {
    // Corrupted config address: no config there — invalid arguments.
    return kHvcEInval;
  }
  const CellConfig& config = it->second;
  if (!config.validate(board_->num_cpus()).is_ok()) {
    return kHvcEInval;
  }
  for (auto& [id, cell] : cells_) {
    if (cell->name() == config.name) return kHvcEExist;
  }
  for (const int c : config.cpus) {
    if (c == cpu) return kHvcEInval;  // cannot give away the calling CPU
    if (cpu_owner(c) != kRootCellId) return kHvcEBusy;
  }
  Cell& root = root_cell();
  for (const mem::MemRegion& region : config.mem_regions) {
    if (!root.memory_map().covers_phys(region.phys_start, region.size)) {
      return kHvcEInval;  // cell memory must be backed by root memory
    }
  }

  // Commit point. CPU hot-plug: Linux has offlined the CPUs; the
  // hypervisor reassigns them to the new cell.
  const CellId id = next_cell_id_++;
  for (const int c : config.cpus) {
    board_->cpu(c).power_off();
    set_cpu_owner(c, id);
  }
  auto cell = std::make_unique<Cell>(id, config, board_->dram());
  for (const mem::MemRegion& region : config.mem_regions) {
    // JAILHOUSE_MEM_ROOTSHARED windows stay mapped in the root cell (and
    // in any peer cell that declares them) — the ivshmem model. Only
    // exclusive regions are carved out of the root map.
    if ((region.flags & mem::kMemRootShared) != 0) continue;
    auto loaned = root.memory_map().carve_out_phys(region.phys_start, region.size);
    for (auto& piece : loaned) cell->loaned_regions().push_back(std::move(piece));
  }
  log(util::Severity::Info, cpu,
      "created cell '" + config.name + "' (id " + std::to_string(id) + ")");
  cells_.emplace(id, std::move(cell));
  refresh_cpu_cells();
  return static_cast<HvcResult>(id);
}

HvcResult Hypervisor::do_cell_start(std::uint32_t id) {
  Cell* cell = find_cell(id);
  if (cell == nullptr) return kHvcENoEnt;
  if (cell->id() == kRootCellId) return kHvcEInval;
  if (cell->state() == CellState::Running) return kHvcEBusy;

  // A restart after shutdown must take the CPUs back from the root cell
  // (the inverse hot-plug swap); they must be free on the root side.
  for (const int c : cell->config().cpus) {
    if (cpu_owner(c) != kRootCellId && cpu_owner(c) != cell->id()) {
      return kHvcEBusy;
    }
    if (cpu_owner(c) == kRootCellId && board_->cpu(c).is_online() &&
        cell->id() != kRootCellId) {
      // The root is actively running on it (never true for CPUs parked
      // off after create/shutdown, which is the normal path).
      return kHvcEBusy;
    }
  }

  // Jailhouse marks the cell before the target CPUs have completed their
  // bring-up; the window between the two is where §III's inconsistent
  // state lives. Reproduced deliberately.
  cell->set_state(CellState::Running);
  for (const int c : cell->config().cpus) {
    set_cpu_owner(c, cell->id());
    const util::Status status = board_->cpu(c).power_on(cell->config().entry_point);
    if (!status.is_ok()) {
      log(util::Severity::Error, c, "cell start: CPU_ON failed: " + status.to_string());
      return kHvcEBusy;
    }
  }
  log(util::Severity::Info, -1, "cell '" + cell->name() + "' started");
  return 0;
}

HvcResult Hypervisor::do_cell_set_loadable(std::uint32_t id) {
  Cell* cell = find_cell(id);
  if (cell == nullptr) return kHvcENoEnt;
  if (cell->id() == kRootCellId) return kHvcEInval;
  if (cell->state() == CellState::Running) return kHvcEBusy;
  cell->set_state(CellState::Created);
  return 0;
}

void Hypervisor::reclaim_cell_resources(Cell& cell) {
  // "The shutdown of the cell gives the control of the CPU and the
  // non-root cell peripherals specified in the configuration file back to
  // the root cell" (§III) — and it works even from the inconsistent state.
  for (const int c : cell.config().cpus) {
    board_->cpu(c).power_off();
    set_cpu_owner(c, kRootCellId);
  }
  for (const irq::IrqId irq : cell.config().irqs) {
    (void)board_->gic().disable(irq);
    (void)board_->gic().set_target(irq, 0);
  }
  for (const int c : cell.config().cpus) {
    board_->gic().reset_cpu(c);
  }
}

HvcResult Hypervisor::do_cell_shutdown(std::uint32_t id) {
  Cell* cell = find_cell(id);
  if (cell == nullptr) return kHvcENoEnt;
  if (cell->id() == kRootCellId) return kHvcEInval;
  if (cell->state() != CellState::Running) return kHvcEInval;
  reclaim_cell_resources(*cell);
  cell->set_state(CellState::ShutDown);
  log(util::Severity::Info, -1, "cell '" + cell->name() + "' shut down");
  return 0;
}

HvcResult Hypervisor::do_cell_destroy(std::uint32_t id) {
  Cell* cell = find_cell(id);
  if (cell == nullptr) return kHvcENoEnt;
  if (cell->id() == kRootCellId) return kHvcEInval;
  if (cell->state() == CellState::Running) reclaim_cell_resources(*cell);
  // Hand the loaned memory back to the root cell.
  Cell& root = root_cell();
  for (const mem::MemRegion& piece : cell->loaned_regions()) {
    (void)root.memory_map().add_region(piece);
  }
  log(util::Severity::Info, -1, "cell '" + cell->name() + "' destroyed");
  retire_tlb_counters(*cell);
  cells_.erase(id);
  refresh_cpu_cells();
  return 0;
}

HvcResult Hypervisor::do_cell_get_state(std::uint32_t id) {
  const Cell* cell = find_cell(id);
  if (cell == nullptr) return kHvcENoEnt;
  return static_cast<HvcResult>(cell->state());
}

HvcResult Hypervisor::do_cpu_get_info(std::uint32_t cpu) {
  if (cpu >= static_cast<std::uint32_t>(board_->num_cpus())) {
    return kHvcEInval;
  }
  return static_cast<HvcResult>(
      board_->cpu(static_cast<int>(cpu)).power_state());
}

HvcResult Hypervisor::do_debug_console_putc(std::uint32_t ch) {
  if (ch > 0xff) return kHvcEInval;
  (void)board_->uart0().mmio_write(platform::kUartThr, ch);
  return 0;
}

HvcResult Hypervisor::do_disable(int cpu) {
  if (cells_.size() > 1) return kHvcEBusy;  // non-root cells still exist
  enabled_ = false;
  log(util::Severity::Info, cpu, "hypervisor disabled");
  return 0;
}

// ---------------------------------------------------------------------------
// Guest-facing trap generators
// ---------------------------------------------------------------------------

HvcResult Hypervisor::guest_hypercall(int cpu, std::uint32_t code,
                                      std::uint32_t arg0, std::uint32_t arg1) {
  arch::EntryFrame frame =
      make_frame(cpu, arch::Syndrome::make(arch::ExceptionClass::Hvc, 0), code,
                 arg0, arg1);
  const TrapOutcome outcome = arch_handle_trap(frame);
  return outcome.action == TrapAction::Resume ? outcome.hvc_result : kHvcEBusy;
}

TrapOutcome Hypervisor::guest_data_abort(int cpu, std::uint64_t addr,
                                         std::uint32_t value, bool is_write) {
  std::uint32_t iss = 0;
  iss = util::set_bit(iss, arch::kIssIsvBit);
  if (is_write) iss = util::set_bit(iss, arch::kIssWnrBit);
  arch::EntryFrame frame = make_frame(
      cpu, arch::Syndrome::make(arch::ExceptionClass::DataAbortLower, iss),
      static_cast<std::uint32_t>(addr), value, 0);
  return arch_handle_trap(frame);
}

void Hypervisor::cpu_bringup_entry(int cpu) {
  if (panicked_) return;
  arch::Cpu& core = board_->cpu(cpu);
  if (core.power_state() != arch::PowerState::Booting) return;
  Cell* cell = cell_on_cpu(cpu);

  // First HYP entry after PSCI CPU_ON: EC = SMC, payload carries the entry
  // gate and the claimed cell id.
  arch::EntryFrame frame =
      make_frame(cpu, arch::Syndrome::make(arch::ExceptionClass::Smc, 0),
                 core.entry_point(), cell != nullptr ? cell->id() : ~0u, 0);
  ++core.trap_entries;
  ++counters_.traps;
  fire_hook(HookPoint::ArchHandleTrap, frame);

  if (!check_entry_integrity(frame)) return;  // panicked

  const arch::Syndrome hsr{frame.reg(Reg::R1)};
  if (!arch::is_architected_class(hsr.ec_bits())) {
    unhandled_trap(cpu, hsr.ec_bits(), "unknown class during CPU bring-up");
    return;
  }

  const std::uint32_t entry = frame.reg(Reg::R2);
  const std::uint32_t claimed_cell = frame.reg(Reg::R3);
  if (cell == nullptr || claimed_cell != cell->id()) {
    core.fail_boot("bring-up cell-id mismatch (claimed " + hex(claimed_cell) + ")");
    log(util::Severity::Error, cpu,
        "CPU failed to come online (hot-plug swap): cell-id mismatch");
    return;
  }
  const auto walk =
      cell->memory_map().translate(entry, mem::Access::Execute, 4);
  if (!walk.is_ok()) {
    core.fail_boot("entry gate not executable at " + hex(entry));
    log(util::Severity::Error, cpu,
        "CPU failed to come online (hot-plug swap): cell left in "
        "non-executable state, entry " + hex(entry));
    return;
  }
  (void)core.complete_boot();
  log(util::Severity::Info, cpu,
      "CPU online in cell '" + cell->name() + "' at " + hex(entry));
}

// ---------------------------------------------------------------------------
// irqchip_handle_irq
// ---------------------------------------------------------------------------

std::optional<IrqDelivery> Hypervisor::irqchip_handle_irq(int cpu) {
  if (panicked_) return std::nullopt;
  arch::Cpu& core = board_->cpu(cpu);
  if (!core.is_online()) return std::nullopt;

  irq::Gic& gic = board_->gic();
  const irq::IrqId acked = gic.acknowledge(cpu);
  if (acked == irq::kSpuriousIrq) return std::nullopt;
  ++core.irq_entries;
  ++counters_.irqs;

  // "The only parameter passed is the IRQ vector number" (§III): the
  // handler receives the acknowledged vector in r0.
  arch::EntryFrame frame =
      make_frame(cpu, arch::Syndrome::make(arch::ExceptionClass::Unknown, 0));
  frame.writer().set(Reg::R0, acked);
  fire_hook(HookPoint::IrqchipHandleIrq, frame);
  const std::uint32_t vector = frame.reg(Reg::R0);

  // EOI uses the hardware-tracked active id, so even a corrupted vector
  // cannot wedge the GIC — part of why the paper calls this handler's
  // failure behaviour "completely predictable".
  (void)gic.end_of_interrupt(cpu, acked);

  IrqDelivery delivery;
  delivery.vector = vector;
  Cell* cell = cell_on_cpu(cpu);
  delivery.cell = cell != nullptr ? cell->id() : kRootCellId;

  if (vector >= irq::kNumIrqs) {
    // "Manumitting it means calling a different IRQ function, defaulting
    // to an IRQ error, which is completely predictable" (§III).
    log(util::Severity::Warning, cpu,
        "IRQ error: spurious/invalid vector " + std::to_string(vector));
    delivery.outcome = IrqOutcome::Spurious;
    return delivery;
  }
  if (vector == platform::kVirtualTimerPpi) {
    delivery.outcome = IrqOutcome::TimerTick;
    return delivery;
  }
  if (irq::is_sgi(vector) || irq::is_ppi(vector)) {
    delivery.outcome = IrqOutcome::Delivered;  // per-CPU: implicitly owned
    return delivery;
  }
  if (cell != nullptr && cell->owns_irq(vector)) {
    delivery.outcome = IrqOutcome::Delivered;
    return delivery;
  }
  log(util::Severity::Warning, cpu,
      "IRQ error: unowned vector " + std::to_string(vector) + " dropped");
  delivery.outcome = IrqOutcome::Unowned;
  return delivery;
}

// ---------------------------------------------------------------------------
// Stage-2 MMIO emulation
// ---------------------------------------------------------------------------

bool Hypervisor::emulate_mmio(Cell& cell, int cpu, std::uint64_t addr,
                              std::uint32_t value, bool is_write,
                              std::uint32_t& read_value) {
  (void)cpu;
  // Trapped console UART: one data abort per byte, emulated here. This is
  // the hypervisor-console path Jailhouse offers inmates, and the source
  // of the arch_handle_trap() traffic the medium campaign injects into.
  const ConsoleConfig& console = cell.config().console;
  if (console.kind == ConsoleKind::Trapped && addr >= console.uart_base &&
      addr < console.uart_base + 0x400) {
    const std::uint64_t offset = addr - console.uart_base;
    platform::Uart& uart = console.uart_base == platform::kUart1Base
                               ? board_->uart1()
                               : board_->uart0();
    if (is_write) {
      if (offset == platform::kUartThr) {
        (void)uart.mmio_write(platform::kUartThr, value);
        ++cell.console_bytes;
      }
      // Other registers: write-ignored (the emulation only forwards data).
    } else {
      read_value = offset == platform::kUartLsr ? platform::kLsrThrEmpty : 0;
    }
    return true;
  }
  // Virtual GIC distributor.
  if (addr >= kGicDistBase && addr < kGicDistBase + kGicDistSize) {
    return emulate_gicd(cell, addr - kGicDistBase, value, is_write, read_value);
  }
  return false;
}

bool Hypervisor::emulate_gicd(Cell& cell, std::uint64_t offset,
                              std::uint32_t value, bool is_write,
                              std::uint32_t& read_value) {
  irq::Gic& gic = board_->gic();
  const int first_cpu = cell.config().cpus.empty() ? 0 : cell.config().cpus.front();

  // GICD_CTLR
  if (offset == 0x000) {
    read_value = 1;
    return true;
  }
  // GICD_ISENABLER / GICD_ICENABLER banks (32 lines per word).
  const auto lines_op = [&](std::uint64_t bank_base, bool set) -> bool {
    const auto word = static_cast<std::uint32_t>((offset - bank_base) / 4);
    if (is_write) {
      for (unsigned bit = 0; bit < 32; ++bit) {
        if (!util::test_bit(value, bit)) continue;
        const irq::IrqId irq = word * 32 + bit;
        // A cell may only operate its own SPIs (RAZ/WI otherwise): the
        // virtualised distributor is itself an isolation mechanism.
        if (!irq::is_spi(irq) || !cell.owns_irq(irq)) continue;
        if (set) {
          (void)gic.enable(irq);
          (void)gic.set_target(irq, first_cpu);
        } else {
          (void)gic.disable(irq);
        }
      }
    } else {
      std::uint32_t bits = 0;
      for (unsigned bit = 0; bit < 32; ++bit) {
        const irq::IrqId irq = word * 32 + bit;
        if (irq < irq::kNumIrqs && cell.owns_irq(irq) && gic.is_enabled(irq)) {
          bits = util::set_bit(bits, bit);
        }
      }
      read_value = bits;
    }
    return true;
  };
  if (offset >= 0x100 && offset < 0x180) return lines_op(0x100, true);
  if (offset >= 0x180 && offset < 0x200) return lines_op(0x180, false);

  // GICD_IPRIORITYR: byte per line, four lines per word.
  if (offset >= 0x400 && offset < 0x400 + irq::kNumIrqs) {
    const auto base_line = static_cast<irq::IrqId>(offset - 0x400);
    if (is_write) {
      for (unsigned i = 0; i < 4; ++i) {
        const irq::IrqId irq = base_line + i;
        if (irq::is_spi(irq) && cell.owns_irq(irq)) {
          (void)gic.set_priority(irq,
                                 static_cast<std::uint8_t>(value >> (8 * i)));
        }
      }
    } else {
      std::uint32_t packed = 0;
      for (unsigned i = 0; i < 4; ++i) {
        const irq::IrqId irq = base_line + i;
        if (irq < irq::kNumIrqs && cell.owns_irq(irq)) {
          packed |= static_cast<std::uint32_t>(gic.priority(irq)) << (8 * i);
        }
      }
      read_value = packed;
    }
    return true;
  }
  // Anything else in the window: RAZ/WI — reads-as-zero, writes ignored.
  read_value = 0;
  return true;
}

}  // namespace mcs::jh
