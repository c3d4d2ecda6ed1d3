// Log-pipeline properties: the writer is the oracle for the parser, and
// the LogSink stays bit-identical to a sequential one under concurrent
// completion storms.
//
// The run-log grammar has one parser (parse_run_log_line_view, folded
// over a whole log by scan_run_log). Its expected values never come from
// a second parser: every line here is rendered by fi::run_log_line from
// a RunResult the test generated, so the parser must give back exactly
// what the writer put in, and a scan must count and fold exactly what the
// generator emitted, bit for bit on the floating-point stats. The sweep's
// resume/diff determinism sits on top of both properties.
#include <gtest/gtest.h>

#include <atomic>
#include <bitset>
#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "analysis/log_parser.hpp"
#include "analysis/log_sink.hpp"
#include "core/campaign.hpp"
#include "util/alloc_observer.hpp"
#include "util/rng.hpp"

namespace mcs::analysis {
namespace {

/// Exact equality, doubles included: the scanner claims bit identity.
void expect_same_aggregate(const CampaignAggregate& a,
                           const CampaignAggregate& b) {
  ASSERT_EQ(a.distribution.total(), b.distribution.total());
  for (std::size_t i = 0; i < fi::kNumOutcomes; ++i) {
    EXPECT_EQ(a.distribution.count(static_cast<fi::Outcome>(i)),
              b.distribution.count(static_cast<fi::Outcome>(i)));
  }
  EXPECT_EQ(a.injections, b.injections);
  for (std::size_t i = 0; i < fi::kNumFaultDomains; ++i) {
    EXPECT_EQ(a.injections_by_domain[i], b.injections_by_domain[i]) << i;
  }
  EXPECT_EQ(a.cell_failures, b.cell_failures);
  EXPECT_EQ(a.reclaimed, b.reclaimed);
  EXPECT_EQ(a.detection_latency.n(), b.detection_latency.n());
  EXPECT_EQ(a.detection_latency.mean(), b.detection_latency.mean());
  EXPECT_EQ(a.detection_latency.stddev(), b.detection_latency.stddev());
  EXPECT_EQ(a.detection_latency.min(), b.detection_latency.min());
  EXPECT_EQ(a.detection_latency.max(), b.detection_latency.max());
}

fi::RunResult random_run(util::SplitMix64& rng) {
  static constexpr const char* kDetails[] = {
      "ok",
      "HYP stack pointer corrupted",
      "park (code 0x24)",
      "doorbell lost — ring stalled",  // an em dash INSIDE the detail
      "invalid arguments (0x16)",
  };
  fi::RunResult run;
  run.outcome = static_cast<fi::Outcome>(rng.next() % fi::kNumOutcomes);
  run.detail = kDetails[rng.next() % 5];
  run.fault_domain =
      static_cast<fi::FaultDomain>(rng.next() % fi::kNumFaultDomains);
  run.injections = rng.next() % 1'000;
  run.uart1_bytes = rng.next() % 100'000;
  if (rng.next() % 2 == 0) {
    run.first_injection_tick = 1 + rng.next() % 100;
    run.failure_tick = run.first_injection_tick + rng.next() % 5'000;
  }
  run.shutdown_reclaimed = rng.next() % 2 == 0;
  return run;
}

// --- writer → parser round trip ----------------------------------------------

/// Details the writer must carry through verbatim: plain text, an em dash
/// (the outcome separator's own bytes), parentheses, an "(injections="
/// group of the detail's own (the field group is the LAST one) and an
/// empty detail. None holds a complete "(injections=…, usart_bytes=…)"
/// group, so no proper prefix of a rendered line is a valid run line.
constexpr const char* kRoundTripDetails[] = {
    "ok",
    "HYP stack pointer corrupted",
    "park (code 0x24)",
    "doorbell lost — ring stalled",
    "invalid arguments (0x16)",
    "stray (injections=3) in detail",
    "",
};

/// Full-range values now and then, so the writer's and the parser's
/// integer paths meet at 64 bits, not only at small counts.
std::uint64_t any_count(util::SplitMix64& rng) {
  switch (rng.next() % 4) {
    case 0:
      return 0;
    case 1:
      return rng.next();
    default:
      return rng.next() % 100'000;
  }
}

/// A random RunResult over every field run_log_line() renders, including
/// the detection corner cases: no injection, no failure, a failure before
/// the injection (undetected), and same-tick detection (latency 0).
fi::RunResult property_run(util::SplitMix64& rng) {
  fi::RunResult run;
  run.outcome = static_cast<fi::Outcome>(rng.next() % fi::kNumOutcomes);
  run.detail = kRoundTripDetails[rng.next() % std::size(kRoundTripDetails)];
  run.fault_domain =
      static_cast<fi::FaultDomain>(rng.next() % fi::kNumFaultDomains);
  run.injections = any_count(rng);
  run.uart1_bytes = any_count(rng);
  const std::uint64_t injected = rng.next() % 3 == 0 ? 0 : 1 + rng.next() % 500;
  run.first_injection_tick = injected;
  switch (rng.next() % 4) {
    case 0:
      run.failure_tick = 0;
      break;
    case 1:
      run.failure_tick = injected;
      break;
    case 2:
      run.failure_tick = injected / 2;
      break;
    default:
      run.failure_tick = injected + rng.next() % 60'000;
      break;
  }
  run.shutdown_reclaimed = rng.next() % 2 == 0;
  return run;
}

TEST(LogPipeRoundTrip, ParsedLineGivesBackEveryFieldTheWriterPut) {
  util::SplitMix64 rng(0x5EED11AE);
  std::bitset<fi::kNumOutcomes> outcomes;
  std::bitset<fi::kNumFaultDomains> domains;
  std::bitset<std::size(kRoundTripDetails)> details;
  bool detected = false;
  bool undetected = false;
  bool carriage_return = false;

  for (int n = 0; n < 4'000; ++n) {
    const fi::RunResult run = property_run(rng);
    const auto index = static_cast<std::uint32_t>(rng.next());
    std::string line = fi::run_log_line(index, run);
    if (rng.next() % 4 == 0) {
      line += '\r';
      carriage_return = true;
    }
    SCOPED_TRACE(line);

    const auto parsed = parse_run_log_line_view(line);
    ASSERT_TRUE(parsed.is_ok());
    const RunLogEntryView& entry = parsed.value();
    ASSERT_EQ(entry.index, index);
    ASSERT_EQ(entry.outcome, run.outcome);
    ASSERT_EQ(entry.detail, run.detail);
    ASSERT_EQ(entry.domain, run.fault_domain);
    ASSERT_EQ(entry.injections, run.injections);
    ASSERT_EQ(entry.uart_bytes, run.uart1_bytes);
    ASSERT_EQ(entry.failure_detected, run.failure_detected());
    ASSERT_EQ(entry.detect_latency_ms, run.detection_latency());
    // A correct run's line carries no reclaim verdict.
    if (run.outcome != fi::Outcome::Correct) {
      ASSERT_EQ(entry.shutdown_reclaimed, run.shutdown_reclaimed);
    }

    // The writer always emits usart_bytes; a line without it is not one
    // of its lines and must not parse as one.
    const std::string field =
        ", usart_bytes=" + std::to_string(run.uart1_bytes);
    std::string without_usart = line;
    without_usart.erase(without_usart.rfind(field), field.size());
    ASSERT_FALSE(parse_run_log_line_view(without_usart).is_ok())
        << without_usart;

    outcomes.set(static_cast<std::size_t>(run.outcome));
    domains.set(static_cast<std::size_t>(run.fault_domain));
    for (std::size_t d = 0; d < std::size(kRoundTripDetails); ++d) {
      if (run.detail == kRoundTripDetails[d]) details.set(d);
    }
    (run.failure_detected() ? detected : undetected) = true;
  }
  // The inputs covered what the property claims to cover.
  EXPECT_TRUE(outcomes.all());
  EXPECT_TRUE(domains.all());
  EXPECT_TRUE(details.all());
  EXPECT_TRUE(detected && undetected && carriage_return);
}

/// A seeded random log plus everything the generator knows about it: the
/// runs behind its well-formed lines, in file order, and how many lines
/// a scan must skip or reject.
struct GeneratedLog {
  std::string text;
  std::vector<fi::RunResult> runs;
  std::size_t skipped_lines = 0;
  std::size_t malformed_lines = 0;
  bool indices_sequential = true;
};

/// Append a rendered run line cut short, as an interrupted writer leaves
/// it: at a random byte, or right after a parenthesis of its own. A
/// 4-byte cut trims to "run", which is no run record; any longer cut is
/// a malformed run line.
void append_cut_line(GeneratedLog& log, util::SplitMix64& rng,
                     std::uint32_t index) {
  const std::string line = fi::run_log_line(index, property_run(rng));
  std::vector<std::size_t> after_paren;
  for (std::size_t i = 0; i + 1 < line.size(); ++i) {
    if (line[i] == ')') after_paren.push_back(i + 1);
  }
  std::size_t cut = 4 + rng.next() % (line.size() - 4);
  if (!after_paren.empty() && rng.next() % 2 == 0) {
    cut = after_paren[rng.next() % after_paren.size()];
  }
  log.text.append(line, 0, cut);
  ++(cut == 4 ? log.skipped_lines : log.malformed_lines);
}

GeneratedLog generated_log(std::uint64_t seed) {
  static constexpr const char* kForeign[] = {
      "# resumed by worker w42",
      "running total: 5 cells",  // "run" prefix without "run "
      "pool: 3 built, 0 reused",
      "RUN 0: correct — ok (injections=1, usart_bytes=2)",
      "runlog v2",
  };
  static constexpr const char* kBlank[] = {"", "   ", "\t", "\r"};

  util::SplitMix64 rng(seed);
  GeneratedLog log;
  const std::size_t lines = 20 + rng.next() % 60;
  for (std::size_t i = 0; i < lines; ++i) {
    const auto position = static_cast<std::uint32_t>(log.runs.size());
    switch (rng.next() % 8) {
      case 0:
        log.text += kForeign[rng.next() % std::size(kForeign)];
        ++log.skipped_lines;
        break;
      case 1:
        log.text += kBlank[rng.next() % std::size(kBlank)];
        break;
      case 2:
        append_cut_line(log, rng, position);
        break;
      default: {
        // Now and then an index out of place: a log that is not the
        // complete 0, 1, 2, … shape resume requires.
        std::uint32_t index = position;
        if (rng.next() % 24 == 0) {
          index += 1 + static_cast<std::uint32_t>(rng.next() % 3);
          log.indices_sequential = false;
        }
        log.runs.push_back(property_run(rng));
        fi::append_run_log_line(log.text, index, log.runs.back());
        if (rng.next() % 4 == 0) log.text += '\r';
        break;
      }
    }
    log.text += '\n';
  }
  if (rng.next() % 3 == 0) {
    // Interrupted writer: the final line stops mid-byte, no newline.
    append_cut_line(log, rng, static_cast<std::uint32_t>(log.runs.size()));
  }
  return log;
}

TEST(LogPipeRoundTrip, ScanCountsAndFoldsExactlyWhatTheGeneratorWrote) {
  bool saw_cut = false;
  bool saw_gap = false;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const GeneratedLog log = generated_log(seed);
    const RunLogScan scan = scan_run_log(log.text);

    EXPECT_EQ(scan.entries, log.runs.size());
    EXPECT_EQ(scan.skipped_lines, log.skipped_lines);
    EXPECT_EQ(scan.malformed_lines, log.malformed_lines);
    EXPECT_EQ(scan.indices_sequential, log.indices_sequential);

    CampaignAggregate expected;
    for (const fi::RunResult& run : log.runs) expected.add(run);
    expect_same_aggregate(scan.aggregate, expected);

    saw_cut = saw_cut || log.malformed_lines != 0;
    saw_gap = saw_gap || !log.indices_sequential;
  }
  EXPECT_TRUE(saw_cut && saw_gap);
}

TEST(LogPipeRoundTrip, EmptyBlankAndForeignOnlyInputsHoldNoEntries) {
  struct Input {
    std::string_view text;
    std::size_t skipped;
  };
  for (const Input& input :
       {Input{"", 0}, Input{"\n\n\n", 0}, Input{" \t\r\n\r\n  ", 0},
        Input{"# nothing here\npool: 3 built\n", 2},
        Input{"running total: 5 cells", 1}}) {
    SCOPED_TRACE(std::string(input.text));
    const RunLogScan scan = scan_run_log(input.text);
    EXPECT_EQ(scan.entries, 0u);
    EXPECT_EQ(scan.malformed_lines, 0u);
    EXPECT_EQ(scan.skipped_lines, input.skipped);
    EXPECT_TRUE(scan.indices_sequential);
    EXPECT_EQ(scan.aggregate.distribution.total(), 0u);
  }
}

// --- the sink under concurrency and the allocation pins ----------------------

TEST(LogPipeStress, ConcurrentSinkIsBitIdenticalToSequential) {
  constexpr std::uint32_t kRuns = 96;
  util::SplitMix64 rng(0xBEEF);
  std::vector<fi::RunResult> runs;
  runs.reserve(kRuns);
  for (std::uint32_t i = 0; i < kRuns; ++i) runs.push_back(random_run(rng));

  LogSink sequential;
  for (std::uint32_t i = 0; i < kRuns; ++i) sequential.record(i, runs[i]);
  const std::string expected_text = sequential.text();
  const CampaignAggregate expected = sequential.aggregate();

  for (const unsigned threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    LogSink sink;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&sink, &runs, t, threads] {
        // Each worker walks its stride backwards: the sink sees a
        // completion storm arriving far out of order, every index twice
        // (the duplicate a resume replay would deliver).
        for (std::uint32_t i = kRuns; i-- > 0;) {
          if (i % threads != t) continue;
          sink.record(i, runs[i]);
          sink.record(i, runs[i]);
        }
      });
    }
    for (std::thread& worker : pool) worker.join();

    EXPECT_EQ(sink.records(), kRuns);
    EXPECT_EQ(sink.duplicates(), kRuns);
    EXPECT_EQ(sink.text(), expected_text);
    expect_same_aggregate(sink.aggregate(), expected);
  }
}

/// A put-area-only streambuf over a fixed buffer: stream writes never
/// touch the heap, so the allocation pin below measures the sink alone.
class FixedStreambuf : public std::streambuf {
 public:
  FixedStreambuf() { setp(buffer_, buffer_ + sizeof buffer_); }
  [[nodiscard]] std::string_view written() const {
    return std::string_view(pbase(), static_cast<std::size_t>(pptr() - pbase()));
  }

 private:
  char buffer_[1 << 20];
};

TEST(LogPipeAllocations, SteadyStateSinkReleasePathIsAllocationFree) {
  util::SplitMix64 rng(0xA110C);
  std::vector<fi::RunResult> runs;
  for (std::uint32_t i = 0; i < 64; ++i) runs.push_back(random_run(rng));

  FixedStreambuf buf;
  std::ostream stream(&buf);
  LogSink sink(stream);
  // Warm-up: the first releases size line_buf_ (and first-touch any
  // lazy statics); after that, an in-order campaign must never allocate.
  for (std::uint32_t i = 0; i < 8; ++i) sink.record(i, runs[i]);

  const util::AllocationObserver::Window window;
  for (std::uint32_t i = 8; i < 64; ++i) sink.record(i, runs[i]);
  EXPECT_EQ(window.allocations(), 0u);
  EXPECT_EQ(sink.records(), 64u);
  EXPECT_NE(buf.written().find("run 63: "), std::string_view::npos);
}

TEST(LogPipeAllocations, ZeroCopyScanIsAllocationFree) {
  // Well-formed lines only: a malformed line allocates its Status
  // message, which is the error path, not the steady state under pin.
  util::SplitMix64 rng(0x5CA4);
  std::string text;
  for (std::uint32_t i = 0; i < 256; ++i) {
    text += fi::run_log_line(i, random_run(rng));
    text += '\n';
  }

  const util::AllocationObserver::Window window;
  const RunLogScan scan = scan_run_log(text);
  EXPECT_EQ(window.allocations(), 0u);
  EXPECT_EQ(scan.entries, 256u);
  EXPECT_EQ(scan.malformed_lines, 0u);
  EXPECT_TRUE(scan.indices_sequential);
}

}  // namespace
}  // namespace mcs::analysis
