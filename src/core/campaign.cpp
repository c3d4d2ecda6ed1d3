#include "core/campaign.hpp"

#include <charconv>

#include "core/executor.hpp"

namespace mcs::fi {

OutcomeDistribution CampaignResult::distribution() const {
  OutcomeDistribution dist;
  for (const RunResult& run : runs) dist.add(run.outcome);
  return dist;
}

double CampaignResult::mean_detection_latency() const {
  std::uint64_t sum = 0;
  std::uint64_t n = 0;
  for (const RunResult& run : runs) {
    if (run.failure_detected()) {
      sum += run.detection_latency();
      ++n;
    }
  }
  return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
}

std::uint64_t CampaignResult::total_injections() const {
  std::uint64_t total = 0;
  for (const RunResult& run : runs) total += run.injections;
  return total;
}

RunResult Campaign::execute_one(std::uint64_t run_seed) {
  CampaignExecutor executor(plan_, {.threads = 1, .probe_recovery = probe_recovery_});
  return executor.execute_one(run_seed);
}

CampaignResult Campaign::execute() {
  CampaignExecutor executor(plan_, {.threads = 1, .probe_recovery = probe_recovery_});
  executor.set_progress(progress_);
  return executor.execute();
}

namespace {

/// Append a decimal integer without iostreams (and without allocating).
void append_u64(std::string& out, std::uint64_t value) {
  char digits[20];  // 2^64 has 20 decimal digits
  const auto [ptr, ec] = std::to_chars(digits, digits + sizeof digits, value);
  (void)ec;  // unsigned into 20 chars cannot fail
  out.append(digits, static_cast<std::size_t>(ptr - digits));
}

}  // namespace

void append_run_log_line(std::string& out, std::uint32_t index,
                         const RunResult& run) {
  out.append("run ");
  append_u64(out, index);
  out.append(": ");
  out.append(outcome_name(run.outcome));
  out.append(" — ");
  out.append(run.detail);
  out.append(" (injections=");
  append_u64(out, run.injections);
  out.append(", usart_bytes=");
  append_u64(out, run.uart1_bytes);
  // Register-domain lines keep the historical format byte-for-byte, so
  // pre-refactor logdirs still parse and resume; other domains tag their
  // lines (and the parser treats a missing tag as register).
  if (run.fault_domain != FaultDomain::Register) {
    out.append(", domain=");
    out.append(fault_domain_name(run.fault_domain));
  }
  if (run.failure_detected()) {
    out.append(", detect_latency=");
    append_u64(out, run.detection_latency());
    out.append("ms");
  }
  if (run.outcome != Outcome::Correct) {
    out.append(", shutdown_reclaimed=");
    out.append(run.shutdown_reclaimed ? "yes" : "no");
  }
  out.push_back(')');
}

std::string run_log_line(std::uint32_t index, const RunResult& run) {
  std::string out;
  append_run_log_line(out, index, run);
  return out;
}

}  // namespace mcs::fi
