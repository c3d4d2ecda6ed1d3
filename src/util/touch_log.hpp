// Touch log: where a fault-free run went, by injecting-call interval.
//
// The executor runs each rewind point's window once fault-free (its
// golden suffix, see fi::CampaignExecutor). While it does, the DRAM model
// and the GIC report every location they read or write here: a DRAM page,
// or the enable, priority or target field of one GIC line. The log keeps,
// per location, the last *interval* it was touched in. Interval j opens at
// the hook call of the plan's j-th injecting call (counting from 0) and
// lasts until the next one opens; touches before interval 0 are dropped.
//
// A faulted run that changed a location at injecting call j, and otherwise
// followed the fault-free trajectory, keeps following it if the golden run
// never touches that location from interval j on: the changed value is
// dead. touched_since() answers exactly that.
//
// Storage is an open-addressing table sized by the distinct locations
// touched (a few dozen pages and lines), never by the 1 GiB DRAM window.
// Nothing here is on a hot path unless a golden suffix is running: the
// owners test one pointer per access and call in only when it is set.
#pragma once

#include <cstdint>
#include <vector>

namespace mcs::util {

class TouchLog {
 public:
  /// GIC line fields a fault can change; pending bits are never tracked
  /// (every tick's pending poll reads them all).
  enum class GicField : std::uint8_t { Enable = 0, Priority = 1, Target = 2 };

  /// Location keys: a DRAM page number, or a tagged GIC line field.
  [[nodiscard]] static constexpr std::uint64_t page_key(std::uint64_t page) noexcept {
    return page;
  }
  [[nodiscard]] static constexpr std::uint64_t gic_key(std::uint32_t irq,
                                                       GicField field) noexcept {
    return kGicTag | (std::uint64_t{irq} << 2) | static_cast<std::uint64_t>(field);
  }

  /// Forget every location and go back to before interval 0.
  void clear() noexcept;

  /// The hook call of injecting call `index` opens interval `index`.
  void begin_interval(std::uint32_t index) noexcept { stamp_ = index + 1; }

  /// Record a read or write of `key` in the current interval.
  void note(std::uint64_t key) {
    if (stamp_ != 0) record(key);
  }

  /// True when `key` was touched in interval `index` or later.
  [[nodiscard]] bool touched_since(std::uint64_t key, std::uint32_t index) const noexcept;

  /// Distinct locations recorded.
  [[nodiscard]] std::size_t size() const noexcept { return used_; }

 private:
  static constexpr std::uint64_t kGicTag = std::uint64_t{1} << 63;

  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t stamp = 0;  ///< interval + 1; 0 marks an empty slot
  };

  void record(std::uint64_t key);
  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept;
  void grow();

  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  std::size_t used_ = 0;
  std::uint32_t stamp_ = 0;  ///< current interval + 1; 0 before interval 0
};

}  // namespace mcs::util
