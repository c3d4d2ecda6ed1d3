#include "util/touch_log.hpp"

#include <utility>

namespace mcs::util {

void TouchLog::clear() noexcept {
  for (Slot& slot : slots_) slot = Slot{};
  used_ = 0;
  stamp_ = 0;
}

std::size_t TouchLog::home(std::uint64_t key) const noexcept {
  // Fibonacci hashing: page numbers are dense, line keys share high bits.
  return static_cast<std::size_t>((key * 0x9E37'79B9'7F4A'7C15ull) >> 32) &
         (slots_.size() - 1);
}

void TouchLog::record(std::uint64_t key) {
  if (slots_.empty()) slots_.resize(64);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.stamp != 0 && slot.key == key) {
      slot.stamp = stamp_;  // intervals only grow: the last touch wins
      return;
    }
    if (slot.stamp == 0) {
      slot = Slot{key, stamp_};
      if (++used_ * 2 > slots_.size()) grow();
      return;
    }
  }
}

void TouchLog::grow() {
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.stamp == 0) continue;
    std::size_t i = home(slot.key);
    while (slots_[i].stamp != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

bool TouchLog::touched_since(std::uint64_t key, std::uint32_t index) const noexcept {
  if (slots_.empty()) return false;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.stamp == 0) return false;
    if (slot.key == key) return slot.stamp > index;
  }
}

}  // namespace mcs::util
