// Streaming campaign log collection for the sharded executor.
//
// The paper's framework writes each run "into a log file, which is further
// analyzed". With runs completing out of order across executor shards,
// ad-hoc line accumulation no longer works: LogSink restores run order
// before anything reaches the log stream, and folds every finished run
// into mergeable aggregates (OutcomeDistribution + RunningStats) so the
// analytics never need the full RunResult vector.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>

#include "core/campaign.hpp"
#include "core/outcome.hpp"

namespace mcs::analysis {

/// Mergeable streaming summary (Welford): the per-shard partial behind
/// campaign latency stats. Unlike analysis::summarize() it never stores
/// the sample, so shards can keep one per worker and merge at the end.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] double stddev() const noexcept;  ///< population, like summarize()
  [[nodiscard]] double min() const noexcept { return n_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return n_ == 0 ? 0.0 : max_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Everything the analytics layer aggregates per campaign, as a mergeable
/// value: per-shard partials merge into the campaign total.
struct CampaignAggregate {
  fi::OutcomeDistribution distribution;
  RunningStats detection_latency;  ///< ms, over detected failures only
  std::uint64_t injections = 0;
  /// injections split by the fault domain that delivered them, indexed by
  /// fi::FaultDomain. Register-only campaigns put everything in slot 0, so
  /// the breakdown is free for legacy logs too.
  std::array<std::uint64_t, fi::kNumFaultDomains> injections_by_domain{};
  std::uint64_t cell_failures = 0;  ///< fi::is_cell_failure() runs
  std::uint64_t reclaimed = 0;      ///< …of those, recovered by shutdown

  void add(const fi::RunResult& run);
  void merge(const CampaignAggregate& other);
};

/// Thread-safe, order-restoring run sink. record() may be called from any
/// executor worker in any order; the rendered run_log_line()s are released
/// to the attached stream strictly in run order, so a campaign sharded
/// over N threads streams the exact log file the serial engine wrote.
///
/// One mutex guards everything. The executor already serialises its
/// progress callbacks, so a second level of locking inside the sink would
/// only ever be uncontended. A run whose index is the next to release is
/// rendered and emitted at once; an early arrival waits in `pending_`
/// until the gap before it closes. An in-order campaign therefore stages
/// nothing: one reusable render buffer plus fi::append_run_log_line keep
/// the steady-state release path allocation-free (pinned by
/// AllocationObserver in the tests).
class LogSink {
 public:
  /// Retaining sink: the ordered log body accumulates and is read back
  /// with text().
  LogSink() = default;
  /// Streaming sink: lines go to `stream` (in order) as they become
  /// contiguous and are NOT retained — text() stays empty, so unbounded
  /// campaigns don't grow an unread in-memory copy. The stream must
  /// outlive the sink; it is only touched under the sink's lock.
  explicit LogSink(std::ostream& stream) : stream_(&stream) {}

  /// Fold in one finished run. Matches CampaignExecutor::ProgressFn.
  ///
  /// Idempotent: an index that was already recorded — still pending or
  /// already released (`< next_index_`) — is dropped and counted in
  /// duplicates(), never double-counted in the aggregate or re-emitted
  /// to the log. Replaying an already-ingested log over a live sink is
  /// therefore safe, which is what campaign resume relies on.
  void record(std::uint32_t index, const fi::RunResult& run);

  /// Fold an entire result in run order (serial campaigns, replays).
  void record_all(const fi::CampaignResult& result);

  /// Aggregate over the *released* (contiguous-from-0) runs, folded in
  /// run order — not completion order — so the final aggregate of a
  /// sharded campaign is bit-identical for any thread count, and to the
  /// aggregate rebuilt offline from the persisted log.
  [[nodiscard]] CampaignAggregate aggregate() const;
  /// Runs released (and aggregated) so far.
  [[nodiscard]] std::uint64_t records() const;
  /// record() calls dropped as duplicate / already-released indices.
  [[nodiscard]] std::uint64_t duplicates() const;

  /// The ordered log body retained so far (always empty for a streaming
  /// sink — read the stream instead).
  [[nodiscard]] std::string text() const;

  /// Flush the attached stream (no-op for a retaining sink). Recorded in
  /// LogPipeCounters so the pipeline stats show explicit flushes.
  void flush();

 private:
  /// Render + fold + emit one run. Caller holds mutex_.
  void release_one(std::uint32_t index, const fi::RunResult& run);

  mutable std::mutex mutex_;  ///< guards everything below
  std::ostream* stream_ = nullptr;
  std::string text_;
  std::string line_buf_;  ///< reusable render scratch, capacity stays warm
  std::uint64_t records_ = 0;
  std::uint64_t duplicates_ = 0;
  CampaignAggregate aggregate_;
  std::uint32_t next_index_ = 0;  ///< the next index to release
  std::map<std::uint32_t, fi::RunResult> pending_;  ///< early arrivals
};

}  // namespace mcs::analysis
