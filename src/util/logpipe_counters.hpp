// LogPipeCounters: lock-free activity counters for the run-log pipeline,
// the same plumbing pattern as fi::TestbedPool's per-run counters.
//
// The pipeline has three tiers — write (LogSink render/release), read
// (MappedFile + the zero-copy run-log scanner) and resume (parallel
// rebuild of completed sweep cells) — and each records what it actually
// did here, so `sweep`'s stderr epilogue and perfbench can report lines
// sunk and scanned, bytes mapped and flush counts without any
// instrumentation in the hot paths beyond one relaxed atomic add.
#pragma once

#include <atomic>
#include <cstdint>

namespace mcs::util {

class LogPipeCounters {
 public:
  /// The process-wide instance every pipeline tier records into.
  static LogPipeCounters& instance();

  LogPipeCounters() = default;
  LogPipeCounters(const LogPipeCounters&) = delete;
  LogPipeCounters& operator=(const LogPipeCounters&) = delete;

  struct Stats {
    // Write tier (LogSink).
    std::uint64_t sink_records = 0;     ///< record() calls accepted or dropped
    std::uint64_t sink_lines = 0;       ///< lines rendered + released, in order
    std::uint64_t sink_flushes = 0;     ///< explicit stream flushes
    // Read tier (MappedFile + run-log scanner).
    std::uint64_t bytes_mapped = 0;     ///< bytes served via mmap views
    std::uint64_t map_fallbacks = 0;    ///< files served by the read fallback
    std::uint64_t parse_lines = 0;      ///< run-log lines scanned zero-copy
    std::uint64_t parse_bytes = 0;      ///< run-log bytes scanned zero-copy
    // Resume tier (sweep cold-start over a populated logdir).
    std::uint64_t resumed_cells = 0;    ///< cells rebuilt from persisted logs
  };
  [[nodiscard]] Stats stats() const noexcept;

  /// Zero every counter (benchmarks and tests window by resetting).
  void reset() noexcept;

  void record_sink_record() noexcept { add(sink_records_); }
  void record_sink_release(std::uint64_t lines) noexcept {
    sink_lines_.fetch_add(lines, std::memory_order_relaxed);
  }
  void record_sink_flush() noexcept { add(sink_flushes_); }
  void record_map(std::uint64_t bytes) noexcept {
    bytes_mapped_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void record_map_fallback(std::uint64_t bytes) noexcept {
    bytes_mapped_.fetch_add(bytes, std::memory_order_relaxed);
    add(map_fallbacks_);
  }
  void record_parse(std::uint64_t lines, std::uint64_t bytes) noexcept {
    parse_lines_.fetch_add(lines, std::memory_order_relaxed);
    parse_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void record_resumed_cell() noexcept { add(resumed_cells_); }

 private:
  void add(std::atomic<std::uint64_t>& counter) noexcept {
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> sink_records_{0};
  std::atomic<std::uint64_t> sink_lines_{0};
  std::atomic<std::uint64_t> sink_flushes_{0};
  std::atomic<std::uint64_t> bytes_mapped_{0};
  std::atomic<std::uint64_t> map_fallbacks_{0};
  std::atomic<std::uint64_t> parse_lines_{0};
  std::atomic<std::uint64_t> parse_bytes_{0};
  std::atomic<std::uint64_t> resumed_cells_{0};
};

}  // namespace mcs::util
