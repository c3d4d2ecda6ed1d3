#include "util/logpipe_counters.hpp"

namespace mcs::util {

LogPipeCounters& LogPipeCounters::instance() {
  static LogPipeCounters counters;
  return counters;
}

LogPipeCounters::Stats LogPipeCounters::stats() const noexcept {
  Stats out;
  out.sink_records = sink_records_.load(std::memory_order_relaxed);
  out.sink_lines = sink_lines_.load(std::memory_order_relaxed);
  out.sink_flushes = sink_flushes_.load(std::memory_order_relaxed);
  out.bytes_mapped = bytes_mapped_.load(std::memory_order_relaxed);
  out.map_fallbacks = map_fallbacks_.load(std::memory_order_relaxed);
  out.parse_lines = parse_lines_.load(std::memory_order_relaxed);
  out.parse_bytes = parse_bytes_.load(std::memory_order_relaxed);
  out.resumed_cells = resumed_cells_.load(std::memory_order_relaxed);
  return out;
}

void LogPipeCounters::reset() noexcept {
  sink_records_.store(0, std::memory_order_relaxed);
  sink_lines_.store(0, std::memory_order_relaxed);
  sink_flushes_.store(0, std::memory_order_relaxed);
  bytes_mapped_.store(0, std::memory_order_relaxed);
  map_fallbacks_.store(0, std::memory_order_relaxed);
  parse_lines_.store(0, std::memory_order_relaxed);
  parse_bytes_.store(0, std::memory_order_relaxed);
  resumed_cells_.store(0, std::memory_order_relaxed);
}

}  // namespace mcs::util
