// Fault models: how an injection corrupts the architecture registers.
//
// The paper uses "the classical bit-flip fault model [12] commonly used to
// emulate transient hardware faults": the medium intensity level flips one
// bit of one random register, the high level flips multiple registers at a
// time. Both are implemented here, together with the wider fault-model set
// §V names as future work (stuck-at, double-bit, zeroed register).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arch/registers.hpp"
#include "util/rng.hpp"

namespace mcs::fi {

/// Where an injection lands. Register faults are the paper's baseline;
/// the other domains are the §V "wider fault model set" — GIC-distributor
/// corruption, lost/spurious IRQ delivery, device MMIO-state faults, and
/// guest-DRAM bit flips.
enum class FaultDomain : std::uint8_t {
  Register = 0,
  Gic,
  IrqDelivery,
  DeviceMmio,
  Dram,
};

inline constexpr std::size_t kNumFaultDomains = 5;

[[nodiscard]] std::string_view fault_domain_name(FaultDomain domain) noexcept;

/// Parse a domain vocabulary word ("register", "gic", "irq-delivery",
/// "device-mmio", "dram"). Returns false on an unknown name.
[[nodiscard]] bool fault_domain_from_name(std::string_view name,
                                          FaultDomain& out) noexcept;

/// The locations a FaultRecord changed, as bits of FaultRecord::changed:
/// what the golden-suffix dead-location rule checks (fi::Injector::dead).
/// A no-op — squashing a line that is not pending, setting one that is,
/// retargeting to the same CPU, flipping a bit the device masks — names
/// none.
enum FaultChange : std::uint8_t {
  kChangedNothing = 0,
  kChangedRegister = 1u << 0,     ///< entry-frame register `reg`
  kChangedDramPage = 1u << 1,     ///< the DRAM page holding `addr`
  kChangedGicEnable = 1u << 2,    ///< line `addr`'s enable bit
  kChangedGicPriority = 1u << 3,  ///< line `addr`'s priority
  kChangedGicTarget = 1u << 4,    ///< SPI `addr`'s target CPU
  kChangedPending = 1u << 5,      ///< a pending bit: always live
  kChangedDevice = 1u << 6,       ///< a device register: always live
};

/// One recorded mutation, tagged with the domain it landed in. The `addr`
/// field is domain-dependent: the physical address for Dram/DeviceMmio
/// faults, the IRQ line id for Gic/IrqDelivery faults, unused (0) for
/// Register faults — where `reg`/`bit` carry the flip instead.
struct FaultRecord {
  FaultDomain domain = FaultDomain::Register;
  arch::Reg reg = arch::Reg::R0;
  unsigned bit = 0;  ///< for stuck-at/zero models: 32 means "whole register"
  std::uint64_t addr = 0;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  std::uint8_t changed = kChangedNothing;  ///< FaultChange bits
};

/// Historical name for the register-only record; the struct is shared now.
using FlipRecord = FaultRecord;

inline constexpr unsigned kWholeRegister = 32;

/// Interface: mutate a register bank, report what changed.
class FaultModel {
 public:
  virtual ~FaultModel() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  virtual std::vector<FlipRecord> apply(util::Xoshiro256& rng,
                                        arch::RegisterBank& bank) const = 0;
};

/// All sixteen general-purpose registers (the default attack surface).
[[nodiscard]] std::vector<arch::Reg> all_registers();

/// The caller-saved argument window r2-r4 the high-intensity campaign
/// targets: the registers that carry the trap payload (hypercall code and
/// arguments, fault address and value).
[[nodiscard]] std::vector<arch::Reg> argument_window();

/// Medium intensity: one random bit of one random register.
class SingleBitFlip final : public FaultModel {
 public:
  explicit SingleBitFlip(std::vector<arch::Reg> candidates = all_registers());
  [[nodiscard]] std::string_view name() const noexcept override {
    return "single-bit-flip";
  }
  std::vector<FlipRecord> apply(util::Xoshiro256& rng,
                                arch::RegisterBank& bank) const override;

 private:
  std::vector<arch::Reg> candidates_;
};

/// High intensity: one random bit in each of several registers at once.
class MultiRegisterFlip final : public FaultModel {
 public:
  explicit MultiRegisterFlip(std::vector<arch::Reg> targets = argument_window());
  [[nodiscard]] std::string_view name() const noexcept override {
    return "multi-register-flip";
  }
  std::vector<FlipRecord> apply(util::Xoshiro256& rng,
                                arch::RegisterBank& bank) const override;

 private:
  std::vector<arch::Reg> targets_;
};

/// Extension models (§V "a wider and customizable set of fault models").

/// Stuck-at: force a random candidate register to all-zeros or all-ones.
class StuckAtModel final : public FaultModel {
 public:
  StuckAtModel(bool stuck_high, std::vector<arch::Reg> candidates = all_registers());
  [[nodiscard]] std::string_view name() const noexcept override {
    return stuck_high_ ? "stuck-at-one" : "stuck-at-zero";
  }
  std::vector<FlipRecord> apply(util::Xoshiro256& rng,
                                arch::RegisterBank& bank) const override;

 private:
  bool stuck_high_;
  std::vector<arch::Reg> candidates_;
};

/// Generalised high intensity: one bit in each of `count` *distinct
/// random* registers per injection (the A3 intensity-sweep model).
class RandomMultiFlip final : public FaultModel {
 public:
  RandomMultiFlip(unsigned count, std::vector<arch::Reg> candidates = all_registers());
  [[nodiscard]] std::string_view name() const noexcept override {
    return "random-multi-flip";
  }
  std::vector<FlipRecord> apply(util::Xoshiro256& rng,
                                arch::RegisterBank& bank) const override;

 private:
  unsigned count_;
  std::vector<arch::Reg> candidates_;
};

/// Double-bit flip in one random register (burst fault).
class DoubleBitFlip final : public FaultModel {
 public:
  explicit DoubleBitFlip(std::vector<arch::Reg> candidates = all_registers());
  [[nodiscard]] std::string_view name() const noexcept override {
    return "double-bit-flip";
  }
  std::vector<FlipRecord> apply(util::Xoshiro256& rng,
                                arch::RegisterBank& bank) const override;

 private:
  std::vector<arch::Reg> candidates_;
};

/// Identifier for plan serialization / factory construction.
enum class FaultModelKind : std::uint8_t {
  SingleBitFlip,
  MultiRegisterFlip,
  StuckAtZero,
  StuckAtOne,
  DoubleBitFlip,
  RandomMultiFlip,
};

[[nodiscard]] std::string_view fault_model_kind_name(FaultModelKind kind) noexcept;

/// Factory: kind + optional register restriction → model instance.
/// `count` only matters for RandomMultiFlip (registers hit per injection).
[[nodiscard]] std::unique_ptr<FaultModel> make_fault_model(
    FaultModelKind kind, std::vector<arch::Reg> registers = {},
    unsigned count = 2);

}  // namespace mcs::fi
