// Structured event log. The paper collects every observation into "a log
// file, which is further analyzed"; EventLog is that file. Records carry
// the simulated timestamp, the originating component and CPU, and a
// severity, so the analysis stage can classify runs without re-running.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.hpp"

namespace mcs::util {

enum class Severity : std::uint8_t { Debug, Info, Warning, Error, Fatal };

std::string_view severity_name(Severity severity) noexcept;

struct LogRecord {
  Ticks timestamp{};
  Severity severity = Severity::Info;
  std::string component;  ///< e.g. "hypervisor", "uart1", "rtos"
  int cpu = -1;           ///< originating CPU, -1 if not CPU-bound
  std::string message;
};

/// Append-only in-memory log with optional mirroring to a callback (used by
/// the campaign orchestrator to stream records into the run log file).
class EventLog {
 public:
  using Mirror = std::function<void(const LogRecord&)>;

  void append(LogRecord record);

  void log(Ticks now, Severity severity, std::string component, int cpu,
           std::string message) {
    append(LogRecord{now, severity, std::move(component), cpu, std::move(message)});
  }

  [[nodiscard]] const std::vector<LogRecord>& records() const noexcept { return records_; }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  void clear() noexcept { records_.clear(); }

  /// Drop every record past the first `count` (testbed snapshot restore:
  /// the log is append-only between resets, so rewinding to a captured
  /// length reproduces the captured log exactly, without copying records).
  void truncate(std::size_t count) noexcept {
    if (count < records_.size()) records_.resize(count);
  }

  /// Truncate to `count` records, then append copies of `tail` (a ladder
  /// rung restore: the records a golden run logged after its rewind
  /// point). The mirror does not see them again.
  void restore_tail(std::size_t count, std::span<const LogRecord> tail) {
    truncate(count);
    records_.insert(records_.end(), tail.begin(), tail.end());
  }

  /// Count records at or above `severity`.
  [[nodiscard]] std::size_t count_at_least(Severity severity) const noexcept;

  /// True iff any record from `component` contains `needle`.
  [[nodiscard]] bool contains(std::string_view component, std::string_view needle) const;

  void set_mirror(Mirror mirror) { mirror_ = std::move(mirror); }

  /// Render the whole log as the text file the paper's framework writes.
  [[nodiscard]] std::string to_text() const;

 private:
  std::vector<LogRecord> records_;
  Mirror mirror_;
};

}  // namespace mcs::util
