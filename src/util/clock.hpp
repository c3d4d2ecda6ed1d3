// Simulated time. The whole testbed advances on a single discrete clock;
// one Tick is one scheduling quantum of the board model (nominally 1 ms of
// wall time on the Banana Pi, so a paper-style 1-minute test is 60'000
// ticks).
#pragma once

#include <compare>
#include <cstdint>

namespace mcs::util {

/// Strongly-typed simulated time point / duration (ticks since boot).
struct Ticks {
  std::uint64_t value = 0;

  constexpr auto operator<=>(const Ticks&) const = default;

  constexpr Ticks operator+(Ticks other) const noexcept { return {value + other.value}; }
  constexpr Ticks operator-(Ticks other) const noexcept { return {value - other.value}; }
  Ticks& operator+=(Ticks other) noexcept {
    value += other.value;
    return *this;
  }
};

/// One tick models one millisecond of board time.
constexpr Ticks from_millis(std::uint64_t ms) noexcept { return {ms}; }
constexpr Ticks from_seconds(std::uint64_t s) noexcept { return {s * 1000}; }
constexpr Ticks from_minutes(std::uint64_t m) noexcept { return {m * 60'000}; }
constexpr std::uint64_t to_millis(Ticks t) noexcept { return t.value; }

/// Monotonic simulation clock owned by the board; everything else holds a
/// const reference and may only read.
class SimClock {
 public:
  [[nodiscard]] Ticks now() const noexcept { return now_; }
  void advance(Ticks delta) noexcept { now_ += delta; }
  void tick() noexcept { now_ += Ticks{1}; }

  /// Snapshot restore (Board::restore_from only): rewind to the captured
  /// tick so absolute device deadlines line up with the restored state
  /// (tick 0 for power-on).
  void restore(Ticks now) noexcept { now_ = now; }

 private:
  Ticks now_{};
};

}  // namespace mcs::util
