// Cell-config text format: serialize/parse CellConfig.
//
// Real Jailhouse configs are C source files compiled into binary blobs the
// driver copies to the hypervisor. This module provides the equivalent
// artefact for the model: a line-based text form that round-trips through
// CellConfig, so deployments can be written by hand, versioned, diffed and
// fuzz-tested. Format:
//
//   cell "freertos-cell"
//   cpus 1
//   entry 0x78000000
//   console trapped 0x1c28400
//   region ram phys=0x78000000 virt=0x78000000 size=0x1000000 flags=rwxl
//   region gpio phys=0x1c20800 virt=0x1c20800 size=0x100 flags=rwi
//   irq 34
//   end
//
// Flags: r=read w=write x=execute d=dma i=io c=comm-region s=root-shared
// l=loadable.
#pragma once

#include <string>
#include <string_view>

#include "hypervisor/cell_config.hpp"
#include "util/status.hpp"

namespace mcs::jh {

/// Render a config to its text form (always parseable back).
[[nodiscard]] std::string to_text(const CellConfig& config);

/// Parse a text config. Returns EINVAL with a line-numbered message on
/// any malformed input; never crashes on garbage (fuzz-tested).
[[nodiscard]] util::Expected<CellConfig> parse_cell_config(std::string_view text);

/// Parse a config-text number token: decimal or 0x-prefixed hex, the one
/// numeric form every config-text vocabulary (cell configs, tuning,
/// sweep specs) shares. EINVAL on anything else.
[[nodiscard]] util::Expected<std::uint64_t> parse_config_number(std::string_view token);

/// Render region flags as the compact letter form ("rwxl").
[[nodiscard]] std::string flags_to_letters(std::uint32_t flags);

/// Parse the compact letter form; EINVAL on unknown letters.
[[nodiscard]] util::Expected<std::uint32_t> letters_to_flags(std::string_view letters);

// ---------------------------------------------------------------------------
// Workload-cell tuning: the scenario-parameterisation knobs, expressed in
// the same line-based vocabulary as full cell configs and applied on top
// of a factory config. Format (blank lines and # comments allowed):
//
//   ram 0x00200000        # resize the cell's "ram" region (bytes)
//   console trapped       # none | passthrough | trapped (base preserved)
//   board quad-a7         # testbed board variant (BoardRegistry key)
//   fault domain gic      # injection fault domain (fi::FaultDomain name)
// ---------------------------------------------------------------------------

/// Every field that reaches the machine (today `ram_size` and the console
/// kind, via apply_cell_tuning) must be part of fi::CampaignExecutor's
/// slot key: runs on one slot share booted state, and a field left out
/// of the key would let a differently tuned campaign resume it.
struct CellTuning {
  std::uint64_t ram_size = 0;  ///< 0 → keep the factory default
  bool has_console_kind = false;
  ConsoleKind console_kind = ConsoleKind::None;  ///< valid when has_console_kind
  /// Board-registry key the run's testbed is built from; empty → the
  /// plan/scenario default. Plan-level (consumed by the executor), not
  /// applied to cell configs by apply_cell_tuning().
  std::string board;
  /// Injection fault-domain name ("register", "gic", "irq-delivery",
  /// "device-mmio", "dram"); empty → the plan default. Plan-level like
  /// `board`: validated against fi::fault_domain_from_name by the
  /// consumers (scenario registry / executor), opaque here.
  std::string fault_domain;

  [[nodiscard]] bool empty() const noexcept {
    return ram_size == 0 && !has_console_kind && board.empty() &&
           fault_domain.empty();
  }
};

/// Parse tuning text; EINVAL with a line-numbered message on malformed
/// input, like parse_cell_config.
[[nodiscard]] util::Expected<CellTuning> parse_cell_tuning(std::string_view text);

/// Apply tuning to a workload cell config: resize its "ram" region and/or
/// switch the console kind. Switching to a trapped console also removes
/// the IO mapping that covers the console UART, so every console access
/// takes the stage-2 trap path (the hypervisor's UART emulation).
void apply_cell_tuning(CellConfig& config, const CellTuning& tuning);

}  // namespace mcs::jh
