#include "platform/timer.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace mcs::platform {

PeriodicTimer::PeriodicTimer(std::string name, PhysAddr base, irq::Gic& gic,
                             int num_cpus, const util::SimClock& clock)
    : Device(std::move(name), base,
             kTimerStride * static_cast<std::uint64_t>(irq::kMaxCpus)),
      gic_(&gic),
      num_cpus_(std::clamp(num_cpus, 1, irq::kMaxCpus)),
      clock_(&clock) {}

std::uint32_t PeriodicTimer::remaining(const PerCpu& state) const noexcept {
  if (!state.enabled) return state.paused_remaining;
  if (state.next_fire == kNoDeadline) return 0;
  const util::Ticks now = clock_->now();
  return state.next_fire > now
             ? static_cast<std::uint32_t>((state.next_fire - now).value)
             : 0;
}

util::Expected<std::uint32_t> PeriodicTimer::mmio_read(std::uint64_t offset) {
  const auto cpu = static_cast<int>(offset / kTimerStride);
  const std::uint64_t reg = offset % kTimerStride;
  if (cpu >= num_cpus_) {
    return util::invalid_argument("timer read for absent cpu");
  }
  const PerCpu& state = cpus_[static_cast<std::size_t>(cpu)];
  switch (reg) {
    case kTimerCtl: return static_cast<std::uint32_t>(state.enabled ? 1 : 0);
    case kTimerInterval: return state.interval;
    case kTimerCount: return remaining(state);
    default:
      return util::invalid_argument("timer read at bad offset " + util::hex(offset));
  }
}

util::Status PeriodicTimer::mmio_write(std::uint64_t offset, std::uint32_t value) {
  const auto cpu = static_cast<int>(offset / kTimerStride);
  const std::uint64_t reg = offset % kTimerStride;
  if (cpu >= num_cpus_) {
    return util::invalid_argument("timer write for absent cpu");
  }
  PerCpu& state = cpus_[static_cast<std::size_t>(cpu)];
  const util::Ticks now = clock_->now();
  switch (reg) {
    case kTimerCtl: {
      const bool enable = (value & 1) != 0;
      if (enable && !state.enabled) {
        // Re-arm relative to now: a frozen residual resumes its countdown,
        // otherwise a fresh period starts (the countdown model's
        // "remaining == 0 → remaining = interval").
        const std::uint32_t resume =
            state.paused_remaining != 0 ? state.paused_remaining : state.interval;
        state.next_fire =
            resume != 0 ? now + util::Ticks{resume} : kNoDeadline;
        state.paused_remaining = 0;
      } else if (!enable && state.enabled) {
        state.paused_remaining = remaining(state);
        state.next_fire = kNoDeadline;
      }
      state.enabled = enable;
      note_deadline_change();
      return util::ok_status();
    }
    case kTimerInterval:
      state.interval = value;
      if (state.enabled) {
        state.next_fire = value != 0 ? now + util::Ticks{value} : kNoDeadline;
      } else {
        state.paused_remaining = value;
      }
      note_deadline_change();
      return util::ok_status();
    default:
      return util::invalid_argument("timer write at bad offset " + util::hex(offset));
  }
}

util::Ticks PeriodicTimer::next_deadline(util::Ticks /*now*/) const {
  util::Ticks earliest = kNoDeadline;
  for (int cpu = 0; cpu < num_cpus_; ++cpu) {
    const PerCpu& state = cpus_[static_cast<std::size_t>(cpu)];
    if (!state.enabled || state.interval == 0) continue;
    earliest = std::min(earliest, state.next_fire);
  }
  return earliest;
}

void PeriodicTimer::tick(util::Ticks now) {
  bool rearmed = false;
  for (int cpu = 0; cpu < num_cpus_; ++cpu) {
    PerCpu& state = cpus_[static_cast<std::size_t>(cpu)];
    if (!state.enabled || state.interval == 0 || state.next_fire == kNoDeadline) {
      continue;
    }
    while (state.next_fire <= now) {
      state.next_fire += util::Ticks{state.interval};
      ++state.fires;
      rearmed = true;
      (void)gic_->raise_ppi(cpu, kVirtualTimerPpi);
    }
  }
  if (rearmed) note_deadline_change();
}

void PeriodicTimer::start(int cpu, std::uint32_t period_ticks) {
  if (cpu < 0 || cpu >= num_cpus_ || period_ticks == 0) return;
  PerCpu& state = cpus_[static_cast<std::size_t>(cpu)];
  state.enabled = true;
  state.interval = period_ticks;
  state.next_fire = clock_->now() + util::Ticks{period_ticks};
  state.paused_remaining = 0;
  note_deadline_change();
}

void PeriodicTimer::stop(int cpu) {
  if (cpu < 0 || cpu >= num_cpus_) return;
  PerCpu& state = cpus_[static_cast<std::size_t>(cpu)];
  if (state.enabled) {
    state.paused_remaining = remaining(state);
    state.next_fire = kNoDeadline;
  }
  state.enabled = false;
  note_deadline_change();
}

bool PeriodicTimer::is_running(int cpu) const noexcept {
  return cpu >= 0 && cpu < num_cpus_ &&
         cpus_[static_cast<std::size_t>(cpu)].enabled;
}

std::uint64_t PeriodicTimer::fires(int cpu) const noexcept {
  return (cpu >= 0 && cpu < num_cpus_)
             ? cpus_[static_cast<std::size_t>(cpu)].fires
             : 0;
}

}  // namespace mcs::platform
