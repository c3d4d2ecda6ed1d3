#include "core/injector.hpp"

namespace mcs::fi {

Injector::Injector(const TestPlan& plan, std::uint64_t seed,
                   const util::SimClock& clock)
    : plan_(plan),
      target_(make_injection_target(plan)),
      rng_(seed),
      clock_(&clock) {}

void Injector::attach(jh::Hypervisor& hv) {
  hv_ = &hv;
  hv.set_entry_hook([this](jh::HookPoint point, arch::EntryFrame& frame) {
    on_entry(point, frame);
  });
}

void Injector::detach(jh::Hypervisor& hv) {
  hv.clear_entry_hook();
  hv_ = nullptr;
}

void Injector::on_entry(jh::HookPoint point, arch::EntryFrame& frame) {
  if (point != plan_.target) return;
  if (plan_.cpu_filter >= 0 && frame.cpu != plan_.cpu_filter) return;
  ++calls_;
  if (!armed_) return;

  // Inject on call numbers first, first+rate, first+2*rate, ...
  const std::uint64_t first = plan_.first_injection_call();
  if (calls_ < first || (calls_ - first) % plan_.rate != 0) return;

  if (golden_ != nullptr) {
    // The fault-free run reaches the call a faulted run injects at: from
    // this hook call on, its touches count against that injection.
    golden_->begin_interval(static_cast<std::uint32_t>((calls_ - first) / plan_.rate));
    golden_ticks_.push_back(clock_->now().value);
    return;
  }

  InjectionRecord record;
  record.tick = clock_->now().value;
  record.call_index = calls_;
  record.point = point;
  record.cpu = frame.cpu;
  const arch::FrameWriter writer = frame.writer();
  const arch::RegisterBank before = writer.bank();
  record.flips = target_->inject(rng_, frame, hv_);
  records_.push_back(std::move(record));
  if (target_->domain() != FaultDomain::Register) {
    effective_ = true;
    return;
  }
  for (std::size_t i = 0; i < arch::kNumGeneralRegs; ++i) {
    if (writer.bank().r[i] != before.r[i]) frame.injected |= 1u << i;
  }
  frame.injected_read = &effective_;
}

bool Injector::dead(const util::TouchLog& golden) const {
  if (target_->domain() == FaultDomain::Register) return !effective_;
  if (hv_ == nullptr) return false;
  const std::uint64_t first = plan_.first_injection_call();
  for (const InjectionRecord& record : records_) {
    const auto index = static_cast<std::uint32_t>((record.call_index - first) / plan_.rate);
    for (const FaultRecord& flip : record.flips) {
      if (!dead_in_golden(flip, index, golden, hv_->board().dram())) return false;
    }
  }
  return true;
}

}  // namespace mcs::fi
