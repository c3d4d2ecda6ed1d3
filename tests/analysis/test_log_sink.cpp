#include "analysis/log_sink.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/log_parser.hpp"
#include "analysis/stats.hpp"
#include "core/executor.hpp"
#include "util/line_scanner.hpp"

namespace mcs::analysis {
namespace {

fi::RunResult make_run(fi::Outcome outcome, std::uint64_t injections) {
  fi::RunResult run;
  run.outcome = outcome;
  run.detail = "test";
  run.injections = injections;
  return run;
}

TEST(RunningStats, MatchesBatchSummary) {
  const std::vector<double> values = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  RunningStats stats;
  for (const double v : values) stats.add(v);
  const Summary summary = summarize(values);
  EXPECT_EQ(stats.n(), summary.n);
  EXPECT_NEAR(stats.mean(), summary.mean, 1e-12);
  EXPECT_NEAR(stats.stddev(), summary.stddev, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), summary.min);
  EXPECT_DOUBLE_EQ(stats.max(), summary.max);
}

TEST(RunningStats, MergeEqualsSerialAccumulation) {
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 40; ++i) {
    const double x = std::sin(static_cast<double>(i)) * 10.0 + 5.0;
    whole.add(x);
    (i < 13 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.n(), whole.n());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.stddev(), whole.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptySidesIsIdentity) {
  RunningStats empty;
  RunningStats some;
  some.add(2.0);
  some.add(4.0);
  RunningStats target = some;
  target.merge(empty);
  EXPECT_EQ(target.n(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 3.0);
  RunningStats from_empty;
  from_empty.merge(some);
  EXPECT_EQ(from_empty.n(), 2u);
  EXPECT_DOUBLE_EQ(from_empty.max(), 4.0);
}

TEST(CampaignAggregate, TracksRecoveryAndInjections) {
  CampaignAggregate aggregate;
  fi::RunResult park = make_run(fi::Outcome::CpuPark, 3);
  park.shutdown_reclaimed = true;
  aggregate.add(park);
  aggregate.add(make_run(fi::Outcome::Correct, 2));
  fi::RunResult inconsistent = make_run(fi::Outcome::InconsistentCell, 4);
  aggregate.add(inconsistent);
  EXPECT_EQ(aggregate.injections, 9u);
  EXPECT_EQ(aggregate.cell_failures, 2u);
  EXPECT_EQ(aggregate.reclaimed, 1u);
  EXPECT_EQ(aggregate.distribution.total(), 3u);
}

TEST(CampaignAggregate, CrossCellCorruptionCountsAsCellFailure) {
  // The executor runs the shutdown-reclaim probe for cross-cell-corruption
  // runs, so the aggregate must bucket them with the other cell failures
  // — otherwise reclaimed can never account for them.
  EXPECT_TRUE(fi::is_cell_failure(fi::Outcome::CrossCellCorruption));
  CampaignAggregate aggregate;
  fi::RunResult corrupted =
      make_run(fi::Outcome::CrossCellCorruption, 2);
  corrupted.shutdown_reclaimed = true;
  aggregate.add(corrupted);
  aggregate.add(make_run(fi::Outcome::PanicPark, 1));  // not a cell failure
  EXPECT_EQ(aggregate.cell_failures, 1u);
  EXPECT_EQ(aggregate.reclaimed, 1u);
}

TEST(CampaignAggregate, ShardsMergeToTheCampaignTotal) {
  CampaignAggregate a;
  CampaignAggregate b;
  CampaignAggregate whole;
  for (int i = 0; i < 10; ++i) {
    fi::RunResult run = make_run(
        i % 3 == 0 ? fi::Outcome::PanicPark : fi::Outcome::Correct,
        static_cast<std::uint64_t>(i));
    run.first_injection_tick = 10;
    run.failure_tick = run.outcome == fi::Outcome::PanicPark ? 12 + i : 0;
    whole.add(run);
    (i % 2 == 0 ? a : b).add(run);
  }
  a.merge(b);
  EXPECT_EQ(a.distribution.total(), whole.distribution.total());
  EXPECT_EQ(a.distribution.count(fi::Outcome::PanicPark),
            whole.distribution.count(fi::Outcome::PanicPark));
  EXPECT_EQ(a.injections, whole.injections);
  EXPECT_EQ(a.detection_latency.n(), whole.detection_latency.n());
  EXPECT_NEAR(a.detection_latency.mean(), whole.detection_latency.mean(), 1e-9);
}

TEST(LogSink, RestoresRunOrderFromOutOfOrderCompletions) {
  std::ostringstream stream;
  LogSink sink(stream);      // streaming: lines go to the stream only
  LogSink retaining;         // retaining: lines accumulate for text()
  const auto feed = [&](std::uint32_t index, const fi::RunResult& run) {
    sink.record(index, run);
    retaining.record(index, run);
  };
  feed(2, make_run(fi::Outcome::Correct, 1));
  EXPECT_EQ(stream.str(), "");  // nothing contiguous yet
  feed(0, make_run(fi::Outcome::PanicPark, 2));
  feed(3, make_run(fi::Outcome::Correct, 1));
  feed(1, make_run(fi::Outcome::CpuPark, 5));

  // Both sinks restore run order; the streaming one retains nothing.
  EXPECT_EQ(stream.str(), retaining.text());
  EXPECT_EQ(sink.text(), "");
  const std::string text = retaining.text();
  const std::vector<std::string> expected_order = {
      "run 0: panic-park", "run 1: cpu-park", "run 2: correct",
      "run 3: correct"};
  std::size_t at = 0;
  for (const std::string& prefix : expected_order) {
    const std::size_t found = text.find(prefix, at);
    ASSERT_NE(found, std::string::npos) << prefix;
    at = found + prefix.size();
  }
  EXPECT_EQ(sink.records(), 4u);
  EXPECT_EQ(sink.aggregate().distribution.total(), 4u);
}

TEST(LogSink, DuplicateAndAlreadyReleasedIndicesAreDropped) {
  LogSink sink;
  sink.record(0, make_run(fi::Outcome::Correct, 1));   // released
  sink.record(2, make_run(fi::Outcome::CpuPark, 3));   // pending
  const std::string text_before = sink.text();

  // A replayed pending index, a replayed released index, and an index
  // below the release horizon must all drop without touching the
  // aggregate, the text, or the pending backlog.
  sink.record(2, make_run(fi::Outcome::PanicPark, 9));
  sink.record(0, make_run(fi::Outcome::PanicPark, 9));
  EXPECT_EQ(sink.duplicates(), 2u);
  EXPECT_EQ(sink.text(), text_before);

  // Index 1 still releases the backlog: nothing parked forever.
  sink.record(1, make_run(fi::Outcome::Correct, 1));
  EXPECT_EQ(sink.records(), 3u);
  const CampaignAggregate aggregate = sink.aggregate();
  EXPECT_EQ(aggregate.distribution.total(), 3u);
  EXPECT_EQ(aggregate.distribution.count(fi::Outcome::PanicPark), 0u);
  EXPECT_EQ(aggregate.injections, 5u);
  EXPECT_NE(sink.text().find("run 2: cpu-park"), std::string::npos);
}

TEST(LogSink, AggregateIsIdenticalForAnyCompletionOrder) {
  // Two completion orders of the same runs: the folded aggregate —
  // including its floating-point latency accumulation — must match
  // exactly, because folding happens at release (run order), not at
  // record (completion order).
  std::vector<fi::RunResult> runs;
  for (int i = 0; i < 7; ++i) {
    fi::RunResult run = make_run(
        i % 2 == 0 ? fi::Outcome::PanicPark : fi::Outcome::Correct,
        static_cast<std::uint64_t>(i));
    run.first_injection_tick = 5;
    run.failure_tick = run.outcome == fi::Outcome::PanicPark
                           ? 7 + static_cast<std::uint64_t>(i * i)
                           : 0;
    runs.push_back(run);
  }
  LogSink in_order;
  LogSink scrambled;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    in_order.record(static_cast<std::uint32_t>(i), runs[i]);
  }
  for (const std::size_t i : {3u, 0u, 6u, 2u, 5u, 1u, 4u}) {
    scrambled.record(static_cast<std::uint32_t>(i), runs[i]);
  }
  const CampaignAggregate a = in_order.aggregate();
  const CampaignAggregate b = scrambled.aggregate();
  EXPECT_EQ(a.distribution.total(), b.distribution.total());
  EXPECT_EQ(a.injections, b.injections);
  EXPECT_EQ(a.detection_latency.n(), b.detection_latency.n());
  EXPECT_EQ(a.detection_latency.mean(), b.detection_latency.mean());
  EXPECT_EQ(a.detection_latency.stddev(), b.detection_latency.stddev());
  EXPECT_EQ(in_order.text(), scrambled.text());
}

TEST(LogSink, TextMatchesSerialRenderOfShardedCampaign) {
  fi::TestPlan plan = fi::paper_medium_trap_plan();
  plan.runs = 8;
  plan.duration_ticks = 1'500;
  plan.phase = 2;

  fi::CampaignExecutor executor(plan, {.threads = 4});
  LogSink sink;
  executor.set_progress([&sink](std::uint32_t index, const fi::RunResult& run) {
    sink.record(index, run);
  });
  const fi::CampaignResult result = executor.execute();

  // Fed by a sharded campaign, the sink streams exactly the serial
  // engine's log body.
  LogSink serial;
  serial.record_all(result);
  EXPECT_EQ(sink.text(), serial.text());
}

/// The run lines of a log body, parsed in place. The views point into
/// `text`, which must outlive them.
std::vector<RunLogEntryView> run_entries(std::string_view text) {
  std::vector<RunLogEntryView> entries;
  util::for_each_line(text, [&entries](std::string_view line) {
    auto entry = parse_run_log_line_view(line);
    if (entry.is_ok()) entries.push_back(entry.value());
  });
  return entries;
}

TEST(LogSink, RoundTripsThroughTheRunLogParser) {
  fi::RunResult run = make_run(fi::Outcome::PanicPark, 7);
  run.detail = "HYP stack pointer corrupted";
  run.uart1_bytes = 123;
  run.first_injection_tick = 10;
  run.failure_tick = 52;
  run.shutdown_reclaimed = false;
  LogSink sink;
  sink.record(0, run);
  sink.record(1, make_run(fi::Outcome::Correct, 2));

  const std::string text = sink.text();
  const RunLogScan scan = scan_run_log(text);
  EXPECT_EQ(scan.malformed_lines, 0u);
  ASSERT_EQ(scan.entries, 2u);
  const std::vector<RunLogEntryView> entries = run_entries(text);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].index, 0u);
  EXPECT_EQ(entries[0].outcome, fi::Outcome::PanicPark);
  EXPECT_EQ(entries[0].detail, "HYP stack pointer corrupted");
  EXPECT_EQ(entries[0].injections, 7u);
  EXPECT_EQ(entries[0].uart_bytes, 123u);
  EXPECT_EQ(entries[0].detect_latency_ms, 42u);
  EXPECT_TRUE(entries[0].failure_detected);
  EXPECT_FALSE(entries[0].shutdown_reclaimed);
  EXPECT_EQ(entries[1].outcome, fi::Outcome::Correct);
  // An undetected run carries no latency field: the flag — not a zero
  // value — is what offline latency analytics must key on.
  EXPECT_FALSE(entries[1].failure_detected);
  EXPECT_EQ(scan.aggregate.distribution.count(fi::Outcome::PanicPark), 1u);
}

TEST(RunLogParser, RejectsMalformedLines) {
  fi::Outcome outcome;
  EXPECT_TRUE(fi::outcome_from_name("panic-park", outcome));
  EXPECT_EQ(outcome, fi::Outcome::PanicPark);
  EXPECT_FALSE(fi::outcome_from_name("not-an-outcome", outcome));

  EXPECT_FALSE(parse_run_log_line_view("garbage").is_ok());
  EXPECT_FALSE(parse_run_log_line_view("run x: correct — d (injections=1, "
                                       "usart_bytes=2)")
                   .is_ok());
  // A foreign record kind is skipped (counted, not fatal); a line that
  // claims to be a run record but is truncated is malformed — resume
  // tolerates the former and rejects the latter.
  const std::string_view text =
      "nonsense\n\nrun 0: correct — ok (injections=1, usart_bytes=9)\n"
      "run 1: correct — truncated (inject\n";
  const RunLogScan scan = scan_run_log(text);
  EXPECT_EQ(scan.skipped_lines, 1u);
  EXPECT_EQ(scan.malformed_lines, 1u);
  ASSERT_EQ(scan.entries, 1u);
  const std::vector<RunLogEntryView> entries = run_entries(text);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].uart_bytes, 9u);
}

}  // namespace
}  // namespace mcs::analysis
