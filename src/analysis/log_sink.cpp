#include "analysis/log_sink.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "util/logpipe_counters.hpp"

namespace mcs::analysis {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. parallel variance combination.
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

double RunningStats::stddev() const noexcept {
  return n_ == 0 ? 0.0 : std::sqrt(m2_ / static_cast<double>(n_));
}

void CampaignAggregate::add(const fi::RunResult& run) {
  distribution.add(run.outcome);
  injections += run.injections;
  injections_by_domain[static_cast<std::size_t>(run.fault_domain)] +=
      run.injections;
  if (run.failure_detected()) {
    detection_latency.add(static_cast<double>(run.detection_latency()));
  }
  if (fi::is_cell_failure(run.outcome)) {
    ++cell_failures;
    if (run.shutdown_reclaimed) ++reclaimed;
  }
}

void CampaignAggregate::merge(const CampaignAggregate& other) {
  distribution.merge(other.distribution);
  detection_latency.merge(other.detection_latency);
  injections += other.injections;
  for (std::size_t i = 0; i < injections_by_domain.size(); ++i) {
    injections_by_domain[i] += other.injections_by_domain[i];
  }
  cell_failures += other.cell_failures;
  reclaimed += other.reclaimed;
}

void LogSink::release_one(std::uint32_t index, const fi::RunResult& run) {
  // Folding here — in run order, not completion order — keeps the
  // aggregate's floating-point accumulation deterministic across thread
  // counts and identical to a replay of the persisted log.
  aggregate_.add(run);
  ++records_;
  next_index_ = index + 1;
  line_buf_.clear();
  fi::append_run_log_line(line_buf_, index, run);
  line_buf_.push_back('\n');
  // A streaming sink hands lines straight to its stream; only a retaining
  // sink keeps the body (an unbounded campaign must not also grow an
  // unread in-memory copy).
  if (stream_ != nullptr) {
    stream_->write(line_buf_.data(),
                   static_cast<std::streamsize>(line_buf_.size()));
  } else {
    // Grow from the running size estimate — the body written so far is
    // the best predictor of what is still to come — instead of letting
    // append() creep capacity up line by line: O(log n) reallocations
    // over a campaign, bounded ~2× overshoot at the end.
    const std::size_t needed = text_.size() + line_buf_.size();
    if (text_.capacity() < needed) {
      text_.reserve(std::max<std::size_t>(needed * 2, 4096));
    }
    text_.append(line_buf_);
  }
}

void LogSink::record(std::uint32_t index, const fi::RunResult& run) {
  util::LogPipeCounters::instance().record_sink_record();
  const std::lock_guard<std::mutex> lock(mutex_);
  // Already released, or already waiting: drop. Without this, a replayed
  // run double-counts in the aggregate and re-emits its line.
  if (index < next_index_) {
    ++duplicates_;
    return;
  }
  if (index != next_index_) {
    if (!pending_.emplace(index, run).second) ++duplicates_;
    return;
  }
  // The next index: emit it directly — no staging, no copy of the
  // RunResult, no allocation once line_buf_'s capacity is warm — then
  // every early arrival the gap before it held back. pending_ only ever
  // holds indices above next_index_, so this index cannot be waiting.
  release_one(index, run);
  std::uint64_t released = 1;
  for (auto it = pending_.begin();
       it != pending_.end() && it->first == next_index_;
       it = pending_.erase(it)) {
    release_one(it->first, it->second);
    ++released;
  }
  util::LogPipeCounters::instance().record_sink_release(released);
}

void LogSink::record_all(const fi::CampaignResult& result) {
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    record(static_cast<std::uint32_t>(i), result.runs[i]);
  }
}

CampaignAggregate LogSink::aggregate() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return aggregate_;
}

std::uint64_t LogSink::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::uint64_t LogSink::duplicates() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return duplicates_;
}

std::string LogSink::text() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return text_;
}

void LogSink::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stream_ != nullptr) stream_->flush();
  util::LogPipeCounters::instance().record_sink_flush();
}

}  // namespace mcs::analysis
