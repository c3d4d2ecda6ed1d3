// Log-pipeline throughput: the reused-buffer sink + zero-copy scan vs the
// frozen pre-refactor paths.
//
// The testbed pool made runs cheap enough that the log pipeline became
// the bottleneck: a sink rendering every line through ostringstream on
// the write side, and an ifstream→ostringstream slurp plus a
// line-materialising split parser on the read side. This bench pins the
// replacement against *frozen in-bench replicas* of those old paths —
// copied, not linked, down to the materialised entry type and its fold:
// the library now only has the fast ones — so the reported speedups are
// host-independent ratios. Every side is
// timed as interleaved best-of-7 pairs: on a shared CI host any one rep
// can be preempted, so each side keeps its minimum, and alternating the
// sides makes both sample the same load windows.
// Reported rows:
//
//   write   in-order completion storm through the sink
//   parse   one big run log: mmap + scan_run_log vs slurp + split-parse
//   resume  cold SweepDriver::execute() over a fully-populated 64-cell
//           logdir vs the old serial double-read per cell
//
//   $ ./bench_logpipe [lines]        (default 1000000)
//   $ ./bench_logpipe --json [lines]   rows for the release-perf gate
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "analysis/log_parser.hpp"
#include "analysis/log_sink.hpp"
#include "core/campaign.hpp"
#include "core/sweep.hpp"
#include "util/mapped_file.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace mcs;

// --- frozen pre-refactor replicas -------------------------------------------
// Byte-for-byte copies of the paths this pipeline replaced. They must
// never be "improved": their role is to hold the old cost model still so
// the speedup gate in CI measures the pipeline, not the host.

/// The materialised form of a run line (detail copied out).
struct RunLogEntry {
  std::uint32_t index = 0;
  fi::Outcome outcome = fi::Outcome::Correct;
  std::string detail;
  fi::FaultDomain domain = fi::FaultDomain::Register;
  std::uint64_t injections = 0;
  std::uint64_t uart_bytes = 0;
  bool failure_detected = false;
  std::uint64_t detect_latency_ms = 0;
  bool shutdown_reclaimed = false;
};

struct ParsedRunLog {
  std::vector<RunLogEntry> entries;
  std::size_t malformed_lines = 0;
  std::size_t skipped_lines = 0;
};

/// Rebuild a CampaignAggregate from materialised entries, folding them
/// in file order the way CampaignAggregate::add folds a live run.
analysis::CampaignAggregate aggregate_from_log(const ParsedRunLog& log) {
  analysis::CampaignAggregate aggregate;
  for (const RunLogEntry& entry : log.entries) {
    aggregate.distribution.add(entry.outcome);
    aggregate.injections += entry.injections;
    aggregate.injections_by_domain[static_cast<std::size_t>(entry.domain)] +=
        entry.injections;
    if (entry.failure_detected) {
      aggregate.detection_latency.add(
          static_cast<double>(entry.detect_latency_ms));
    }
    if (fi::is_cell_failure(entry.outcome)) {
      ++aggregate.cell_failures;
      if (entry.shutdown_reclaimed) ++aggregate.reclaimed;
    }
  }
  return aggregate;
}

std::string baseline_run_log_line(std::uint32_t index,
                                  const fi::RunResult& run) {
  std::ostringstream out;
  out << "run " << index << ": " << fi::outcome_name(run.outcome) << " — "
      << run.detail << " (injections=" << run.injections
      << ", usart_bytes=" << run.uart1_bytes;
  if (run.fault_domain != fi::FaultDomain::Register) {
    out << ", domain=" << fi::fault_domain_name(run.fault_domain);
  }
  if (run.failure_detected()) {
    out << ", detect_latency=" << run.detection_latency() << "ms";
  }
  if (run.outcome != fi::Outcome::Correct) {
    out << ", shutdown_reclaimed=" << (run.shutdown_reclaimed ? "yes" : "no");
  }
  out << ")";
  return out.str();
}

bool baseline_parse_u64(std::string_view digits, std::uint64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), out);
  return ec == std::errc{} && ptr == digits.data() + digits.size();
}

bool baseline_find_field(std::string_view fields, std::string_view key,
                         std::string_view& value) {
  const std::size_t at = fields.find(key);
  if (at == std::string_view::npos) return false;
  std::string_view rest = fields.substr(at + key.size());
  std::size_t end = 0;
  while (end < rest.size() && rest[end] != ',' && rest[end] != ')') ++end;
  value = rest.substr(0, end);
  return true;
}

util::Expected<RunLogEntry> baseline_parse_run_log_line(
    std::string_view line) {
  line = util::trim(line);
  if (!line.starts_with("run ")) {
    return util::invalid_argument("missing 'run ' prefix");
  }
  RunLogEntry entry;
  const std::size_t colon = line.find(": ");
  if (colon == std::string_view::npos) {
    return util::invalid_argument("missing run-index separator");
  }
  {
    std::uint64_t index = 0;
    if (!baseline_parse_u64(line.substr(4, colon - 4), index)) {
      return util::invalid_argument("bad run index");
    }
    entry.index = static_cast<std::uint32_t>(index);
  }
  std::string_view rest = line.substr(colon + 2);
  const std::size_t dash = rest.find(" — ");
  if (dash == std::string_view::npos) {
    return util::invalid_argument("missing outcome separator");
  }
  if (!fi::outcome_from_name(rest.substr(0, dash), entry.outcome)) {
    return util::invalid_argument("unknown outcome name");
  }
  rest = rest.substr(dash + 5);
  const std::size_t fields_at = rest.rfind(" (injections=");
  if (fields_at == std::string_view::npos || rest.back() != ')') {
    return util::invalid_argument("missing field group");
  }
  entry.detail = std::string(rest.substr(0, fields_at));
  const std::string_view fields = rest.substr(fields_at + 2);
  std::string_view value;
  if (!baseline_find_field(fields, "injections=", value) ||
      !baseline_parse_u64(value, entry.injections)) {
    return util::invalid_argument("bad injections field");
  }
  if (!baseline_find_field(fields, "usart_bytes=", value) ||
      !baseline_parse_u64(value, entry.uart_bytes)) {
    return util::invalid_argument("bad usart_bytes field");
  }
  if (baseline_find_field(fields, "domain=", value)) {
    if (!fi::fault_domain_from_name(value, entry.domain)) {
      return util::invalid_argument("unknown domain field");
    }
  }
  if (baseline_find_field(fields, "detect_latency=", value)) {
    if (value.size() < 3 || !value.ends_with("ms") ||
        !baseline_parse_u64(value.substr(0, value.size() - 2),
                            entry.detect_latency_ms)) {
      return util::invalid_argument("bad detect_latency field");
    }
    entry.failure_detected = true;
  }
  if (baseline_find_field(fields, "shutdown_reclaimed=", value)) {
    entry.shutdown_reclaimed = value == "yes";
  }
  return entry;
}

/// The old parse_run_log: util::split materialises one std::string per
/// line, every entry rides an Expected wrapper and owns its detail
/// string.
ParsedRunLog baseline_parse_run_log(std::string_view text) {
  ParsedRunLog parsed;
  for (const std::string& line : util::split(text, '\n')) {
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    if (!trimmed.starts_with("run ")) {
      ++parsed.skipped_lines;
      continue;
    }
    auto entry = baseline_parse_run_log_line(trimmed);
    if (entry.is_ok()) {
      parsed.entries.push_back(std::move(entry).value());
    } else {
      ++parsed.malformed_lines;
    }
  }
  return parsed;
}

/// The old cell_log_complete: ifstream→ostringstream slurp (meta, then
/// the log — buffer.str() copies the whole file a second time), then the
/// materialising parse above.
bool baseline_cell_log_complete(const fi::TestPlan& plan,
                                const std::string& log_path,
                                analysis::CampaignAggregate& aggregate) {
  {
    std::ifstream meta(fi::cell_meta_path(log_path));
    if (!meta) return false;
    std::ostringstream buffer;
    buffer << meta.rdbuf();
    if (meta.bad() || buffer.str() != fi::plan_fingerprint(plan)) return false;
  }
  std::ifstream file(log_path);
  if (!file) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (file.bad()) return false;
  const ParsedRunLog parsed = baseline_parse_run_log(buffer.str());
  if (parsed.malformed_lines != 0) return false;
  if (parsed.entries.size() != plan.runs) return false;
  for (std::size_t i = 0; i < parsed.entries.size(); ++i) {
    if (parsed.entries[i].index != i) return false;
  }
  aggregate = aggregate_from_log(parsed);
  return true;
}

// --- fixtures ---------------------------------------------------------------

/// Byte sink: both write paths stream here so neither pays for I/O.
class NullStreambuf : public std::streambuf {
 protected:
  int overflow(int ch) override { return ch; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

std::vector<fi::RunResult> run_pool(std::uint64_t seed, std::size_t count) {
  static constexpr const char* kDetails[] = {
      "ok", "HYP stack pointer corrupted", "park (code 0x24)",
      "doorbell lost — ring stalled", "invalid arguments (0x16)"};
  util::SplitMix64 rng(seed);
  std::vector<fi::RunResult> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
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
    pool.push_back(std::move(run));
  }
  return pool;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Interleaved best-of-reps wall time for a baseline/new pair. On a
/// shared (often single-CPU) host any one rep can be preempted
/// mid-flight, so each side keeps the minimum over reps — the classic
/// noise-resistant estimator — and the reps alternate baseline/new so
/// both sides sample the SAME load windows: a spike that lands on only
/// one side's block can't skew the ratio the CI gate keys on. A body
/// returns false to invalidate the whole measurement (paths
/// disagreeing); the row then reports seconds <= 0 and the bench fails.
template <typename Baseline, typename New>
std::pair<double, double> best_pair(int reps, Baseline&& baseline, New&& fresh) {
  double best_baseline = -1.0;
  double best_fresh = -1.0;
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    if (!baseline()) return {-1.0, -1.0};
    const double b = seconds_since(start);
    if (best_baseline < 0.0 || b < best_baseline) best_baseline = b;

    start = std::chrono::steady_clock::now();
    if (!fresh()) return {-1.0, -1.0};
    const double f = seconds_since(start);
    if (best_fresh < 0.0 || f < best_fresh) best_fresh = f;
  }
  return {best_baseline, best_fresh};
}

constexpr int kReps = 7;

struct Row {
  std::string name;
  std::uint64_t lines = 0;
  std::uint64_t bytes = 0;
  double baseline_seconds = 0;
  double seconds = 0;

  [[nodiscard]] double speedup() const {
    return seconds > 0 ? baseline_seconds / seconds : 0.0;
  }
  [[nodiscard]] double lines_per_sec() const {
    return seconds > 0 ? static_cast<double>(lines) / seconds : 0.0;
  }
};

// --- rows -------------------------------------------------------------------

/// Write path: an in-order completion storm (the executor's common case)
/// through the sink's in-order path — one lock, to_chars into a reused
/// line buffer — vs the old ostringstream-per-line sink under one mutex.
Row bench_write(std::size_t n) {
  const std::vector<fi::RunResult> pool = run_pool(0x11F0, 512);
  Row row{.name = "write"};
  row.lines = n;

  std::uint64_t bytes = 0;
  std::tie(row.baseline_seconds, row.seconds) = best_pair(
      kReps,
      [&] {
        NullStreambuf null;
        std::ostream stream(&null);
        std::mutex mutex;
        analysis::CampaignAggregate aggregate;
        std::uint64_t records = 0;
        bytes = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const fi::RunResult& run = pool[i % pool.size()];
          const std::lock_guard<std::mutex> lock(mutex);
          aggregate.add(run);
          ++records;
          std::string line =
              baseline_run_log_line(static_cast<std::uint32_t>(i), run);
          line += '\n';
          stream.write(line.data(), static_cast<std::streamsize>(line.size()));
          bytes += line.size();
        }
        return records == n;  // always true; defeats DCE
      },
      [&] {
        NullStreambuf null;
        std::ostream stream(&null);
        analysis::LogSink sink(stream);
        for (std::size_t i = 0; i < n; ++i) {
          sink.record(static_cast<std::uint32_t>(i), pool[i % pool.size()]);
        }
        sink.flush();
        return sink.records() == n;
      });
  row.bytes = bytes;  // deterministic, identical every rep
  return row;
}

/// Read path: one big persisted run log, parsed and folded to an
/// aggregate — mmap + scan_run_log vs slurp + split-materialise-parse.
Row bench_parse(const std::filesystem::path& dir, std::size_t n) {
  const std::vector<fi::RunResult> pool = run_pool(0x9A45E, 512);
  const std::string path = (dir / "parse.runlog").string();
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    for (std::size_t i = 0; i < n; ++i) {
      out << fi::run_log_line(static_cast<std::uint32_t>(i),
                              pool[i % pool.size()])
          << '\n';
    }
  }

  Row row{.name = "parse"};
  row.lines = static_cast<std::uint64_t>(n);
  row.bytes = std::filesystem::file_size(path);

  std::uint64_t baseline_entries = 0;
  std::uint64_t entries = 0;
  std::tie(row.baseline_seconds, row.seconds) = best_pair(
      kReps,
      [&] {
        std::ifstream file(path);
        std::ostringstream buffer;
        buffer << file.rdbuf();
        const ParsedRunLog parsed = baseline_parse_run_log(buffer.str());
        const analysis::CampaignAggregate aggregate =
            aggregate_from_log(parsed);
        baseline_entries = parsed.entries.size() + aggregate.cell_failures / n;
        return true;
      },
      [&] {
        auto mapped = util::MappedFile::open(path);
        if (!mapped.is_ok()) return false;
        const analysis::RunLogScan scan =
            analysis::scan_run_log(mapped.value().view());
        entries = scan.entries + scan.aggregate.cell_failures / n;
        return true;
      });
  if (entries != baseline_entries) {
    std::cerr << "bench_logpipe: parse paths disagree (" << entries << " vs "
              << baseline_entries << ")\n";
    row.seconds = -1;
  }
  return row;
}

/// Resume path: cold SweepDriver::execute() over a fully-populated
/// 64-cell logdir (every cell resumable, nothing to execute) vs the old
/// serial per-cell double-read. The logs are synthesized — what matters
/// to resume is shape (complete, fingerprinted), not provenance.
Row bench_resume(const std::filesystem::path& dir, std::size_t runs_per_cell) {
  fi::SweepSpec spec;
  spec.name = "logpipe-bench";
  spec.scenarios = {"freertos-steady", "dual-cell", "ivshmem-traffic",
                    "osek-cell"};
  for (std::uint32_t rate = 25; rate <= 400; rate += 25) {
    spec.rates.push_back(rate);  // 16 levels × 4 scenarios = 64 cells
  }
  spec.runs = static_cast<std::uint32_t>(runs_per_cell);
  spec.seed = 0xBE7C;
  spec.log_dir = (dir / "resume-logs").string();

  Row row{.name = "resume"};
  fi::SweepDriver driver(spec);
  auto plans = driver.expand();
  if (!plans.is_ok()) {
    std::cerr << "bench_logpipe: expand failed: "
              << plans.status().to_string() << "\n";
    return row;
  }
  std::filesystem::create_directories(spec.log_dir);
  const std::vector<fi::RunResult> pool = run_pool(0x2E54E, 512);
  for (const fi::TestPlan& plan : plans.value()) {
    std::string text;
    for (std::uint32_t i = 0; i < plan.runs; ++i) {
      text += fi::run_log_line(i, pool[(plan.seed + i) % pool.size()]);
      text += '\n';
    }
    const std::string log_path =
        fi::SweepDriver::cell_log_path(spec.log_dir, plan.name);
    if (!fi::write_text_atomic(log_path, text).is_ok() ||
        !fi::write_text_atomic(fi::cell_meta_path(log_path),
                               fi::plan_fingerprint(plan))
             .is_ok()) {
      std::cerr << "bench_logpipe: cannot populate " << log_path << "\n";
      return row;
    }
  }

  const std::uint64_t cells = plans.value().size();
  row.lines = cells * runs_per_cell;
  row.bytes = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(spec.log_dir)) {
    row.bytes += std::filesystem::file_size(entry.path());
  }

  std::tie(row.baseline_seconds, row.seconds) = best_pair(
      kReps,
      [&] {
        std::size_t resumed = 0;
        for (const fi::TestPlan& plan : plans.value()) {
          analysis::CampaignAggregate aggregate;
          if (baseline_cell_log_complete(
                  plan, fi::SweepDriver::cell_log_path(spec.log_dir, plan.name),
                  aggregate)) {
            ++resumed;
          }
        }
        if (resumed != cells) {
          std::cerr << "bench_logpipe: baseline resumed " << resumed << "/"
                    << cells << " cells\n";
          return false;
        }
        return true;
      },
      [&] {
        fi::SweepDriver cold(spec);
        auto result = cold.execute();
        if (!result.is_ok() || result.value().resumed != cells ||
            result.value().executed != 0) {
          std::cerr << "bench_logpipe: cold resume did not resume all " << cells
                    << " cells\n";
          return false;
        }
        return true;
      });
  return row;
}

void print_json(const std::vector<Row>& rows) {
  std::cout << "{\n  \"rows\": [";
  bool first = true;
  for (const Row& row : rows) {
    std::cout << (first ? "" : ",") << "\n    {\"name\": \"" << row.name
              << "\", \"lines\": " << row.lines << ", \"bytes\": " << row.bytes
              << std::fixed << std::setprecision(4)
              << ", \"baseline_seconds\": " << row.baseline_seconds
              << ", \"seconds\": " << row.seconds << std::setprecision(0)
              << ", \"lines_per_sec\": " << row.lines_per_sec()
              << std::setprecision(2) << ", \"speedup\": " << row.speedup()
              << "}";
    first = false;
  }
  std::cout << "\n  ]\n}\n";
}

void print_table(const std::vector<Row>& rows) {
  std::cout << "log pipeline vs frozen pre-refactor baselines\n";
  std::cout << std::string(72, '=') << "\n";
  std::cout << std::left << std::setw(10) << "path" << std::right
            << std::setw(10) << "lines" << std::setw(12) << "old (s)"
            << std::setw(12) << "new (s)" << std::setw(14) << "lines/sec"
            << std::setw(10) << "speedup" << "\n";
  std::cout << std::string(72, '-') << "\n";
  for (const Row& row : rows) {
    std::cout << std::left << std::setw(10) << row.name << std::right
              << std::setw(10) << row.lines << std::fixed
              << std::setprecision(4) << std::setw(12) << row.baseline_seconds
              << std::setw(12) << row.seconds << std::setprecision(0)
              << std::setw(14) << row.lines_per_sec() << std::setprecision(2)
              << std::setw(9) << row.speedup() << "x\n";
  }
  std::cout << std::string(72, '-') << "\n";
  std::cout << "baselines are in-bench replicas of the pre-refactor sink / "
               "parser /\nresume loop, so each speedup is a host-independent "
               "ratio\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::size_t lines = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      lines = static_cast<std::size_t>(std::atoll(argv[i]));
    }
  }
  if (lines == 0) lines = 1'000'000;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("bench_logpipe_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  std::vector<Row> rows;
  rows.push_back(bench_write(lines));
  rows.push_back(bench_parse(dir, lines));
  // The logdir holds `lines` runs total, spread over the 64-cell grid —
  // resume of a finished full-size sweep, not a toy one.
  rows.push_back(bench_resume(dir, std::max<std::size_t>(lines / 64, 256)));

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  if (json) {
    print_json(rows);
  } else {
    print_table(rows);
  }
  for (const Row& row : rows) {
    if (row.seconds <= 0 || row.baseline_seconds <= 0) return 1;
  }
  return 0;
}
