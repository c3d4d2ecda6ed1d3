// Log-file round trip: the paper's framework writes results "into a log
// file, which is further analyzed". EventLog::to_text() is that file;
// this parser reads it back so analytics can run offline, detached from
// the live testbed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/log_sink.hpp"
#include "core/outcome.hpp"
#include "util/log.hpp"
#include "util/status.hpp"

namespace mcs::analysis {

/// Parse one "[123ms] LEVEL component/cpuN: message" line.
[[nodiscard]] util::Expected<util::LogRecord> parse_log_line(std::string_view line);

/// Parse a whole log file; malformed lines are skipped and counted.
struct ParsedLog {
  std::vector<util::LogRecord> records;
  std::size_t malformed_lines = 0;

  /// Records from a component, at or above a severity.
  [[nodiscard]] std::vector<const util::LogRecord*> select(
      std::string_view component, util::Severity at_least) const;

  /// First record whose message contains the needle, or nullptr.
  [[nodiscard]] const util::LogRecord* find_first(std::string_view needle) const;
};

[[nodiscard]] ParsedLog parse_log_text(std::string_view text);

// ---------------------------------------------------------------------------
// Campaign run-log round trip: the per-run lines the LogSink streams
// ("run N: outcome — detail (injections=…, usart_bytes=…)") parsed back,
// so the analytics (distributions, recovery counts) can be rebuilt from
// the log file alone, detached from the live campaign.
//
// One zero-copy parser: RunLogEntryView keeps string_views into the
// caller's buffer, and scan_run_log folds each line straight into a
// CampaignAggregate — no per-line copy, no per-line allocation. Resume
// (cell_log_complete) and logreplay run it over util::MappedFile views.
// Its oracle is the writer: a round-trip property suite renders random
// runs with fi::run_log_line and checks that every field, count and
// folded aggregate comes back exactly.
// ---------------------------------------------------------------------------

/// One parsed run line, zero-copy: `detail` points into the parsed
/// buffer and is valid only as long as that buffer.
struct RunLogEntryView {
  std::uint32_t index = 0;
  fi::Outcome outcome = fi::Outcome::Correct;
  std::string_view detail;
  /// The `domain=` field; absent (pre-refactor logs, register campaigns)
  /// parses as Register, matching what run_log_line() omits.
  fi::FaultDomain domain = fi::FaultDomain::Register;
  std::uint64_t injections = 0;
  std::uint64_t uart_bytes = 0;
  /// The line carried a detect_latency field, i.e. the run's failure was
  /// detected. Same-tick detection prints (and parses back) 0 ms, so this
  /// flag — not the value — distinguishes "detected instantly" from "not
  /// detected": latency analytics must aggregate only flagged entries,
  /// like the live CampaignAggregate does.
  bool failure_detected = false;
  std::uint64_t detect_latency_ms = 0;  ///< 0 when the line carries none
  bool shutdown_reclaimed = false;
};

/// Parse one run_log_line() without copying; error status on shape
/// mismatch. Allocation-free on the success path.
[[nodiscard]] util::Expected<RunLogEntryView> parse_run_log_line_view(
    std::string_view line);

/// Everything the resume path needs from one pass over a run log,
/// without materialising a single entry.
struct RunLogScan {
  /// Entries folded in file order (= run order). The live sink also
  /// folds in run order, so for a complete log this aggregate is
  /// bit-identical — floating-point latency stats included — to the one
  /// the campaign kept, for any executor thread count: a completed
  /// cell's aggregate can be recovered from its log file alone.
  CampaignAggregate aggregate;
  std::uint64_t entries = 0;  ///< well-formed run lines folded
  /// Lines that claimed to be run records ("run " prefix) but failed to
  /// parse — truncation, corruption. A resumable log must have none.
  std::size_t malformed_lines = 0;
  /// Non-run lines skipped wholesale: record kinds this parser does not
  /// recognize (newer writers interleaving other records, annotations).
  /// Counted, not fatal, so replay of a mixed log degrades gracefully in
  /// both directions — old parser on new logs and vice versa.
  std::size_t skipped_lines = 0;
  /// Every entry's index equalled its position (0, 1, 2, …): the
  /// completeness shape cell resume requires, checked inline so the
  /// indices never need storing.
  bool indices_sequential = true;
};

/// One zero-copy pass over a whole run log: parse each line in place and
/// fold it straight into the aggregate. No per-line copies or heap
/// allocations — safe to point at a multi-GB util::MappedFile view.
[[nodiscard]] RunLogScan scan_run_log(std::string_view text);

}  // namespace mcs::analysis
