// mcs_e2e: the end-to-end campaign benchmark.
//
//   mcs_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//           [--workdir DIR] [--tiny] [--corrupt CHECK] [--source-id ID]
//
// --trace 0 times the workload through the product path with tracing off
// and prints the end-to-end metrics; --trace 1 replays the same runs
// through the traced lifecycle and prints the per-layer metrics. The last
// stdout line is the result JSON; the line before it holds the host facts
// and the exact counts. README.md defines every metric.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "analysis/log_sink.hpp"
#include "analysis/report.hpp"
#include "core/executor.hpp"
#include "core/testbed_pool.hpp"
#include "perfbench.hpp"
#include "util/logpipe_counters.hpp"
#include "util/mapped_file.hpp"

namespace perfbench {

LayerCounters read_counters(fi::Testbed* testbed) {
  const fi::TestbedPool::Stats pool = fi::TestbedPool::instance().stats();
  const mcs::util::LogPipeCounters::Stats pipe =
      mcs::util::LogPipeCounters::instance().stats();
  LayerCounters out;
  out.pool_resets = pool.run_resets;
  out.pool_restores = pool.run_restores;
  out.pool_captures = pool.captures;
  out.parse_lines = pipe.parse_lines;
  if (testbed != nullptr) {
    const fi::Testbed::AccessCounters access = testbed->access_counters();
    out.tlb_hits = access.tlb_hits;
    out.tlb_misses = access.tlb_misses;
    out.dram_fast_ops = access.dram_fast_ops;
    out.dram_slow_ops = access.dram_slow_ops;
    out.deadline_refreshes = access.deadline_refreshes;
  } else {
    out.tlb_hits = pool.tlb_hits;
    out.tlb_misses = pool.tlb_misses;
    out.dram_fast_ops = pool.dram_fast_ops;
    out.dram_slow_ops = pool.dram_slow_ops;
  }
  return out;
}

namespace {

namespace analysis = mcs::analysis;
namespace fs = std::filesystem;

/// Set-ups before each timed repetition; setup_s is the median of all.
constexpr int kSetupsPerRep = 3;
/// One guest callback in this many is timed in the traced run.
constexpr unsigned kSampleEvery = 32;
/// Sub-millisecond layer calls repeat until this much time has passed.
constexpr double kMicroBudgetNs = 20e6;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 0;  ///< N: the CPUs this process may run on (nproc)
  bool tiny = false;
  std::string workdir = ".bench_build/work";
  std::string corrupt;  ///< self-test: the output check to provoke
  std::string source_id = "unknown";
};

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    const std::string value = has_value ? argv[i + 1] : "";
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (!has_value) {
      std::cerr << "perfbench: " << arg << " needs a value\n";
      return false;
    }
    ++i;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr,
                               value.rfind("0x", 0) == 0 ? 16 : 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        std::cerr << "perfbench: --trace takes 0 or 1\n";
        return false;
      }
      opt.trace = value == "1";
    } else if (arg == "--workdir") {
      opt.workdir = value;
    } else if (arg == "--corrupt") {
      opt.corrupt = value;
    } else if (arg == "--source-id") {
      opt.source_id = value;
    } else {
      std::cerr << "perfbench: unknown argument '" << arg << "'\n";
      return false;
    }
  }
  if (opt.workload.empty()) {
    std::cerr << "perfbench: --workload is required\n";
    return false;
  }
  return true;
}

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 != 0 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

/// Linear interpolation between closest ranks.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  return values[lower] +
         (values[upper] - values[lower]) * (position - static_cast<double>(lower));
}

/// FNV-1a over every cell's log: equal digests mean byte-identical logs.
std::string digest(const std::vector<std::string>& logs) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const std::string& log : logs) {
    for (const unsigned char c : log) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
  }
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(hash));
  return text;
}

// --- output ------------------------------------------------------------------

std::string number(double value) {
  if (!std::isfinite(value)) value = 0;
  char text[64];
  const auto end = std::to_chars(text, text + sizeof(text), value).ptr;
  return std::string(text, end);
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + number(values[i]);
  }
  return out + "]";
}

/// Metrics in print order, as the result JSON's "metrics" object.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    entries_.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " + number(entries_[i].value) +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string host_json(const Options& opt) {
  std::ostringstream out;
  out << "{\"cores\": " << std::thread::hardware_concurrency() << ", \"threads\": " << opt.threads
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
      << kCompiler << "\", \"source\": \"" << opt.source_id << "\"}";
  return out.str();
}

// --- output checks -------------------------------------------------------------

/// Runs attempted and runs failed; every failure's reason goes to stderr.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(std::uint64_t runs, const std::string& why) {
    failed += std::max<std::uint64_t>(runs, 1);
    std::cerr << "perfbench: check failed: " << why << "\n";
  }
};

/// Lines that differ between two run logs, position by position.
std::uint64_t differing_lines(std::string_view a, std::string_view b) {
  std::uint64_t differ = 0;
  while (!a.empty() || !b.empty()) {
    const std::size_t end_a = a.find('\n');
    const std::size_t end_b = b.find('\n');
    if (a.substr(0, end_a) != b.substr(0, end_b)) ++differ;
    a = end_a == std::string_view::npos ? std::string_view() : a.substr(end_a + 1);
    b = end_b == std::string_view::npos ? std::string_view() : b.substr(end_b + 1);
  }
  return differ;
}

void compare_logs(const std::vector<std::string>& got,
                  const std::vector<std::string>& want, const std::string& what,
                  Checks& checks) {
  std::uint64_t differ = 0;
  for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
    differ += differing_lines(i < got.size() ? got[i] : std::string_view(),
                              i < want.size() ? want[i] : std::string_view());
  }
  if (differ != 0) {
    checks.fail(differ, what + ": " + std::to_string(differ) + " run-log lines differ");
  }
}

OutcomeCounts outcome_counts(const std::vector<analysis::CampaignAggregate>& cells) {
  OutcomeCounts counts{};
  for (const analysis::CampaignAggregate& cell : cells) {
    for (std::size_t i = 0; i < fi::kNumOutcomes; ++i) {
      counts[i] += cell.distribution.count(static_cast<fi::Outcome>(i));
    }
  }
  return counts;
}

std::string render_counts(const OutcomeCounts& counts) {
  std::string out;
  for (std::size_t i = 0; i < fi::kNumOutcomes; ++i) {
    if (counts[i] == 0) continue;
    if (!out.empty()) out += ' ';
    out += std::string(fi::outcome_name(static_cast<fi::Outcome>(i))) + "=" +
           std::to_string(counts[i]);
  }
  return "{" + out + "}";
}

/// Harness errors always fail a run. With `pinned`, the distribution must
/// also equal the workload's default-seed pin.
void check_outcomes(const Workload& workload,
                    const std::vector<analysis::CampaignAggregate>& cells,
                    bool pinned, const Options& opt, Checks& checks) {
  OutcomeCounts got = outcome_counts(cells);
  if (opt.corrupt == "harness-error") ++got[static_cast<std::size_t>(fi::Outcome::HarnessError)];
  const std::uint64_t harness = got[static_cast<std::size_t>(fi::Outcome::HarnessError)];
  if (harness != 0) checks.fail(harness, "harness-error runs");
  if (!pinned || !workload.pinned) return;
  OutcomeCounts want = workload.pin;
  if (opt.corrupt == "distribution") ++want[0];
  std::uint64_t off = 0;
  for (std::size_t i = 0; i < fi::kNumOutcomes; ++i) {
    off += got[i] > want[i] ? got[i] - want[i] : want[i] - got[i];
  }
  if (off != 0) {
    checks.fail(off / 2, "outcome distribution " + render_counts(got) +
                             " differs from the default-seed pin " +
                             render_counts(want));
  }
}

// --- product path --------------------------------------------------------------

/// One pass of a workload through the product path.
struct Pass {
  std::vector<std::string> logs;  ///< one run log per cell, grid order
  std::vector<analysis::CampaignAggregate> aggregates;
  std::uint64_t runs = 0;
  double wall_ns = 0;
  std::vector<double> run_ns;  ///< host time of each run (1 worker only)
  double idle_ns = 0;          ///< worker time idle inside cell spans
  double worker_ns = 0;        ///< worker time inside cell spans
  std::vector<double> cell_ns;
};

/// Completion times of one cell's runs, taken in the executor's progress
/// callback: on the worker that finished the run, under the executor's
/// progress mutex.
class CompletionClock {
 public:
  void completed() {
    const Clock::time_point now = Clock::now();
    run_ns_.push_back(ns_between(last_, now));
    last_ = now;
    last_by_worker_[std::this_thread::get_id()] = now;
  }

  /// Fold the cell into `pass`: its span, each run's host time (only
  /// meaningful at one worker), and each worker's idle tail between its
  /// own last completion and the cell's last one.
  void finish(unsigned workers, Pass& pass) const {
    const double span = ns_between(start_, last_);
    pass.cell_ns.push_back(span);
    if (workers == 1) pass.run_ns.insert(pass.run_ns.end(), run_ns_.begin(), run_ns_.end());
    double busy = 0;
    for (const auto& [worker, done] : last_by_worker_) busy += ns_between(start_, done);
    pass.worker_ns += span * workers;
    pass.idle_ns += span * workers - busy;
  }

 private:
  Clock::time_point start_ = Clock::now();
  Clock::time_point last_ = start_;
  std::vector<double> run_ns_;
  std::map<std::thread::id, Clock::time_point> last_by_worker_;
};

/// One cell through the product path, appended to `pass`. Campaigns run on
/// CampaignExecutor with a LogSink that keeps the log; grid cells run
/// through execute_cell, the sweep layer's per-cell primitive, which
/// persists the log to `log_path`.
void run_cell(const fi::TestPlan& plan, unsigned workers, const std::string& log_path,
              Pass& pass, Checks& checks) {
  fi::ExecutorConfig config;
  config.threads = workers;
  CompletionClock clock;
  if (log_path.empty()) {
    analysis::LogSink sink;
    fi::CampaignExecutor executor(plan, config);
    executor.set_progress([&sink, &clock](std::uint32_t index, const fi::RunResult& run) {
      sink.record(index, run);
      clock.completed();
    });
    (void)executor.execute();
    clock.finish(workers, pass);
    pass.logs.push_back(sink.text());
    pass.aggregates.push_back(sink.aggregate());
  } else {
    auto aggregate = fi::execute_cell(plan, log_path, config, "perfbench",
                                      [&clock](std::uint32_t) { clock.completed(); });
    clock.finish(workers, pass);
    if (aggregate.is_ok()) {
      pass.aggregates.push_back(std::move(aggregate).value());
    } else {
      checks.fail(plan.runs, "cell " + plan.name + ": " + aggregate.status().to_string());
      pass.aggregates.emplace_back();
    }
  }
  pass.runs += plan.runs;
}

std::string cell_stem(const Workload& workload, std::size_t cell) {
  return workload.grid ? workload.plans[cell].name : workload.name;
}

std::vector<std::string> read_logs(const Workload& workload, const std::string& dir) {
  std::vector<std::string> logs;
  for (std::size_t i = 0; i < workload.plans.size(); ++i) {
    auto text = mcs::util::read_file(
        fi::SweepDriver::cell_log_path(dir, cell_stem(workload, i)));
    logs.push_back(text.is_ok() ? std::move(text).value() : std::string());
  }
  return logs;
}

void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

std::string comparison_report(const Workload& workload,
                              const std::vector<analysis::CampaignAggregate>& cells) {
  std::vector<analysis::ComparisonColumn> columns;
  for (std::size_t i = 0; i < cells.size() && i < workload.plans.size(); ++i) {
    columns.push_back({cell_stem(workload, i), cells[i]});
  }
  return analysis::render_comparison_report(columns, workload.name);
}

/// Every cell, one after another, at `workers` threads. Grid cells
/// persist into `dir`; their logs are read back after the timing.
Pass cells_pass(const Workload& workload, unsigned workers, const std::string& dir,
                Checks& checks) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < workload.plans.size(); ++i) {
    run_cell(workload.plans[i], workers,
             workload.grid ? fi::SweepDriver::cell_log_path(dir, cell_stem(workload, i))
                           : std::string(),
             pass, checks);
  }
  pass.wall_ns = ns_between(start, Clock::now());
  if (workload.grid) pass.logs = read_logs(workload, dir);
  return pass;
}

/// The grid through SweepDriver::execute into the fresh logdir `dir` at
/// `workers` threads, then one full resume of the finished logdir. The
/// comparison reports of both go to `executed` and `resumed`.
Pass sweep_pass(const Workload& workload, unsigned workers, const std::string& dir,
                std::string& executed, std::string& resumed, Checks& checks) {
  fi::SweepSpec spec = workload.spec;
  spec.log_dir = dir;
  fi::ExecutorConfig config;
  config.threads = workers;
  Pass pass;
  const Clock::time_point start = Clock::now();
  auto run = fi::SweepDriver(spec, config).execute();
  pass.wall_ns = ns_between(start, Clock::now());
  if (!run.is_ok() || run.value().executed != workload.plans.size()) {
    checks.fail(spec.runs * workload.plans.size(), "the sweep did not execute every cell");
    return pass;
  }
  for (const fi::SweepCellResult& cell : run.value().cells) {
    pass.aggregates.push_back(cell.aggregate);
    pass.runs += cell.plan.runs;
  }
  executed = comparison_report(workload, pass.aggregates);

  auto again = fi::SweepDriver(spec, config).execute();
  if (!again.is_ok() || again.value().resumed != workload.plans.size()) {
    checks.fail(pass.runs, "the resume did not rebuild every cell");
  } else {
    std::vector<analysis::CampaignAggregate> cells;
    for (const fi::SweepCellResult& cell : again.value().cells) {
      cells.push_back(cell.aggregate);
    }
    resumed = comparison_report(workload, cells);
  }
  pass.logs = read_logs(workload, dir);
  return pass;
}

/// Run `depth` one-run serial campaigns of `warm`, each started from the
/// progress callback of the one before. A serial executor holds its pool
/// lease while its callback runs, so the nested campaigns hold `depth`
/// leases at once and the pool hands out `depth` distinct slots.
void prime_nested(const fi::TestPlan& warm, unsigned depth) {
  if (depth == 0) return;
  fi::ExecutorConfig config;
  config.threads = 1;
  fi::CampaignExecutor executor(warm, config);
  executor.set_progress(
      [&warm, depth](std::uint32_t, const fi::RunResult&) { prime_nested(warm, depth - 1); });
  (void)executor.execute();
}

/// Build, boot and snapshot one pool slot per worker for every snapshot
/// identity the workload uses: the state a campaign service reaches after
/// its first run on each worker. The primers run a one-tick window, which
/// the snapshot identity (board, tuning, scenario, tick policy) excludes.
void prime_pool(const Workload& workload, unsigned workers) {
  std::set<std::string> primed;
  for (const fi::TestPlan& plan : workload.plans) {
    const std::string identity =
        plan.scenario + '\x1f' + plan.board + '\x1f' + plan.cell_tuning;
    if (!primed.insert(identity).second) continue;
    fi::TestPlan warm = plan;
    warm.runs = 1;
    warm.duration_ticks = 1;
    prime_nested(warm, workers);
  }
}

/// Mean time of `body` in ns, repeated until kMicroBudgetNs has passed
/// (and at least three times).
template <typename Body>
double repeated_ns(Body&& body) {
  const Clock::time_point start = Clock::now();
  int count = 0;
  double elapsed = 0;
  do {
    body();
    ++count;
    elapsed = ns_between(start, Clock::now());
  } while (count < 3 || elapsed < kMicroBudgetNs);
  return elapsed / count;
}

/// Another traced repetition fits when half a mean repetition more stays
/// inside the budget; every traced run makes at least two, so the
/// per-layer counts of two passes are always compared.
bool another_rep(Clock::time_point begin, int reps, double seconds) {
  if (reps < 2) return true;
  const double elapsed = ns_between(begin, Clock::now()) * 1e-9;
  return elapsed + 0.5 * elapsed / reps <= seconds;
}

void print_result(const Checks& checks, const Metrics& metrics, const std::string& detail) {
  std::cout << detail << "\n";
  std::cout << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(checks.attempted, 1)
            << ", \"failed\": " << checks.failed << ", \"metrics\": " << metrics.json()
            << "}" << std::endl;
}

// --- timed run (--trace 0) -----------------------------------------------------

int run_timed(const Options& opt, Clock::time_point process_start) {
  Checks checks;
  const std::string dir_one = opt.workdir + "/" + opt.workload + "/one";
  const std::string dir_many = opt.workdir + "/" + opt.workload + "/many";

  // Set-up: plans from the registries, then one pool slot built, booted
  // and snapshotted per worker (the grid also expands its spec and creates
  // its logdirs). It is repeated before every repetition, so the median
  // spans the whole run's host phases rather than one moment. Each repeat
  // first empties the pool and hands the freed memory back to the kernel,
  // so it pays the page faults a fresh process pays; without that it ran
  // 4x faster on recycled heap and hid the testbeds' memory footprint. The
  // first sample counts from process start, so it also pays static
  // registry initialisation.
  Workload workload;
  std::vector<double> setup_s;
  const auto set_up = [&](bool first) {
    if (!first) {
      fi::TestbedPool::instance().clear();
      malloc_trim(0);
    }
    const Clock::time_point start = first ? process_start : Clock::now();
    auto made = make_workload(opt.workload, opt.seed, opt.tiny);
    if (!made.is_ok()) return made.status();
    workload = std::move(made).value();
    if (workload.grid) {
      fresh_dir(dir_one);
      fresh_dir(dir_many);
    }
    prime_pool(workload, opt.threads);
    setup_s.push_back(ns_between(start, Clock::now()) * 1e-9);
    return mcs::util::ok_status();
  };
  if (const mcs::util::Status ready = set_up(true); !ready.is_ok()) {
    std::cerr << "perfbench: " << ready.to_string() << "\n";
    return 2;
  }

  // One N-worker pass, checked against the 1-worker logs of the same runs.
  // The grid runs through SweepDriver into a fresh logdir, then resumes.
  const auto many_pass = [&](const std::vector<std::string>& one_logs) {
    Pass many;
    if (workload.grid) {
      std::string executed;
      std::string resumed;
      fresh_dir(dir_many);
      many = sweep_pass(workload, opt.threads, dir_many, executed, resumed, checks);
      if (opt.corrupt == "report") resumed += "x\n";
      if (resumed != executed) {
        checks.fail(many.runs, "the resumed comparison report differs from the executed one");
      }
    } else {
      many = cells_pass(workload, opt.threads, "", checks);
    }
    checks.attempted += many.runs;
    check_outcomes(workload, many.aggregates, false, opt, checks);
    if (opt.corrupt == "nt-log" && !many.logs.empty()) many.logs.front() += "run 0: x\n";
    compare_logs(many.logs, one_logs, "N-worker log vs 1-worker log", checks);
    return many;
  };

  // Closed loop. Each repetition is one 1-worker pass, then one N-worker
  // pass over the same runs, so host drift hits both figures alike. The
  // number of repetitions depends only on --seconds and the workload, so
  // every commit takes the per-run minima below over equally many passes.
  const int reps = std::max(2, static_cast<int>(opt.seconds / workload.rep_seconds));
  std::vector<std::vector<double>> pass_run_ns;
  std::vector<double> rates_one;
  std::vector<double> rates_many;
  std::vector<std::string> first_logs;
  OutcomeCounts first_outcomes{};
  LayerCounters first_counts;
  const Clock::time_point begin = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    for (int k = rep == 0 ? 1 : 0; k < kSetupsPerRep; ++k) (void)set_up(false);
    const LayerCounters before = read_counters(nullptr);
    Pass one = cells_pass(workload, 1, dir_one, checks);
    const LayerCounters after = read_counters(nullptr);
    checks.attempted += one.runs;
    check_outcomes(workload, one.aggregates, true, opt, checks);
    if (rep == 0) {
      first_logs = one.logs;
      if (opt.corrupt == "repeat-log" && !first_logs.empty()) first_logs.front() += "run 0: x\n";
      first_outcomes = outcome_counts(one.aggregates);
      first_counts.pool_resets = after.pool_resets - before.pool_resets;
      first_counts.pool_restores = after.pool_restores - before.pool_restores;
      first_counts.pool_captures = after.pool_captures - before.pool_captures;
      first_counts.tlb_hits = after.tlb_hits - before.tlb_hits;
      first_counts.tlb_misses = after.tlb_misses - before.tlb_misses;
      first_counts.dram_fast_ops = after.dram_fast_ops - before.dram_fast_ops;
      first_counts.dram_slow_ops = after.dram_slow_ops - before.dram_slow_ops;
      first_counts.parse_lines = after.parse_lines - before.parse_lines;
    } else {
      compare_logs(one.logs, first_logs, "repeated pass vs first pass", checks);
    }
    pass_run_ns.push_back(one.run_ns);
    rates_one.push_back(static_cast<double>(one.runs) / (one.wall_ns * 1e-9));

    const Pass many = many_pass(one.logs);
    rates_many.push_back(static_cast<double>(many.runs) / (many.wall_ns * 1e-9));
  }
  const double measured_s = ns_between(begin, Clock::now()) * 1e-9;

  // Every 1-worker pass repeats the same deterministic runs, so the host
  // can only slow a run down, never speed it up: each run's host time is
  // its minimum over the passes. That drops the slowdowns (other tenants,
  // frequency dips) that hit one pass and not the next.
  std::vector<double> run_ns = pass_run_ns.front();
  for (const std::vector<double>& pass : pass_run_ns) {
    for (std::size_t i = 0; i < run_ns.size(); ++i) run_ns[i] = std::min(run_ns[i], pass[i]);
  }
  double total_run_ns = 0;
  for (const double ns : run_ns) total_run_ns += ns;

  Metrics metrics;
  metrics.add("runs_per_s_1t", static_cast<double>(run_ns.size()) / (total_run_ns * 1e-9),
              "runs/s");
  // N workers feel the whole machine's load from other tenants. Across
  // seeds, the fastest N-worker pass (or each grid cell's fastest span)
  // spread up to twice as wide as the median pass, so the median it is.
  metrics.add("runs_per_s_nt", median(rates_many), "runs/s");
  metrics.add("run_ms_p50", percentile(run_ns, 0.5) * 1e-6, "ms");
  metrics.add("run_ms_p90", percentile(run_ns, 0.9) * 1e-6, "ms");
  metrics.add("setup_s", median(setup_s), "s");
  metrics.add("peak_rss_mb", peak_rss_mib(), "MiB");
  const double attempted = static_cast<double>(std::max<std::uint64_t>(checks.attempted, 1));
  metrics.add("ok_run_share",
              std::max(0.0, 1.0 - static_cast<double>(checks.failed) / attempted),
              "fraction");

  std::ostringstream detail;
  detail << "{\"workload\": \"" << workload.name << "\", \"seed\": " << opt.seed
         << ", \"trace\": 0, \"host\": " << host_json(opt) << ", \"reps\": " << reps
         << ", \"measured_s\": " << number(measured_s)
         << ", \"run_samples\": " << run_ns.size()
         << ", \"setup_s\": " << json_list(setup_s)
         << ", \"rates_1t\": " << json_list(rates_one)
         << ", \"rates_nt\": " << json_list(rates_many)
         << ", \"counts\": {\"pool_resets\": " << first_counts.pool_resets
         << ", \"pool_restores\": " << first_counts.pool_restores
         << ", \"pool_captures\": " << first_counts.pool_captures
         << ", \"tlb_hits\": " << first_counts.tlb_hits
         << ", \"tlb_misses\": " << first_counts.tlb_misses
         << ", \"dram_fast_ops\": " << first_counts.dram_fast_ops
         << ", \"dram_slow_ops\": " << first_counts.dram_slow_ops
         << ", \"parse_lines\": " << first_counts.parse_lines
         << "}, \"outcomes\": \"" << render_counts(first_outcomes) << "\""
         << ", \"log_digest\": \"" << digest(first_logs) << "\"}";
  print_result(checks, metrics, detail.str());
  return 0;
}

// --- traced run (--trace 1) ----------------------------------------------------

int run_traced(const Options& opt) {
  Checks checks;
  auto made = make_workload(opt.workload, opt.seed, opt.tiny);
  if (!made.is_ok()) {
    std::cerr << "perfbench: " << made.status().to_string() << "\n";
    return 2;
  }
  const Workload workload = std::move(made).value();
  const std::string dir_one = opt.workdir + "/" + workload.name + "/traced-one";
  const std::string dir_many = opt.workdir + "/" + workload.name + "/traced-many";
  fresh_dir(dir_one);
  fresh_dir(dir_many);
  const double empty_span_ns = calibrate_empty_span_ns();

  // Each repetition: the untraced product path at one worker, the traced
  // replay of the same runs, and the product path at N workers (worker
  // idle share). Every product pass starts from an empty pool, as the
  // replay starts from fresh testbeds, so both pay the same provisioning.
  TraceTally first;
  TraceTally times;
  double untraced_ns = 0;
  double idle_ns = 0;
  double worker_ns = 0;
  std::vector<double> cell_ns;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  Pass last_many;
  const Clock::time_point begin = Clock::now();
  int reps = 0;
  do {
    fi::TestbedPool::instance().clear();
    Pass untraced = cells_pass(workload, 1, dir_one, checks);
    std::vector<std::string> traced_logs;
    TraceTally tally = traced_pass(workload, traced_logs, kSampleEvery, empty_span_ns);
    if (opt.corrupt == "traced-counts" && reps == 0) ++tally.quanta;
    fi::TestbedPool::instance().clear();
    Pass many = cells_pass(workload, opt.threads, dir_many, checks);
    ++reps;

    checks.attempted += untraced.runs + tally.runs + many.runs;
    check_outcomes(workload, untraced.aggregates, true, opt, checks);
    check_outcomes(workload, many.aggregates, false, opt, checks);
    if (opt.corrupt == "traced-log" && !traced_logs.empty()) traced_logs.front() += "run 0: x\n";
    compare_logs(traced_logs, untraced.logs, "traced log vs untraced log", checks);
    if (opt.corrupt == "nt-log" && !many.logs.empty()) many.logs.front() += "run 0: x\n";
    compare_logs(many.logs, untraced.logs, "N-worker log vs 1-worker log", checks);
    if (reps == 1) {
      first = tally;
    } else if (tally.counts() != first.counts()) {
      checks.fail(tally.runs, "per-layer counts changed between traced passes");
    }
    times.add_times(tally);
    traced_s.push_back(tally.wall_ns * 1e-9);
    untraced_s.push_back(untraced.wall_ns * 1e-9);
    untraced_ns += untraced.wall_ns;
    idle_ns += many.idle_ns;
    worker_ns += many.worker_ns;
    cell_ns.insert(cell_ns.end(), many.cell_ns.begin(), many.cell_ns.end());
    last_many = std::move(many);
  } while (another_rep(begin, reps, opt.seconds));

  // The log read path: resume the last N-worker pass's logdir (a campaign
  // first persists its log and fingerprint as a one-cell logdir).
  if (!workload.grid) {
    const std::string path = fi::SweepDriver::cell_log_path(dir_many, workload.name);
    const bool written =
        fi::write_text_atomic(path, last_many.logs.front()).is_ok() &&
        fi::write_text_atomic(fi::cell_meta_path(path),
                              fi::plan_fingerprint(workload.plans.front()))
            .is_ok();
    if (!written) checks.fail(last_many.runs, "cannot persist the campaign log");
  }
  const std::string executed = comparison_report(workload, last_many.aggregates);
  std::vector<analysis::CampaignAggregate> resumed_cells(workload.plans.size());
  bool complete = true;
  int resumes = 0;
  const std::uint64_t lines_before = read_counters(nullptr).parse_lines;
  const double resume_ns = repeated_ns([&] {
    for (std::size_t i = 0; i < workload.plans.size(); ++i) {
      complete = fi::cell_log_complete(
                     workload.plans[i],
                     fi::SweepDriver::cell_log_path(dir_many, cell_stem(workload, i)),
                     resumed_cells[i]) &&
                 complete;
    }
    ++resumes;
  });
  const std::uint64_t scanned = read_counters(nullptr).parse_lines - lines_before;
  std::string resumed = comparison_report(workload, resumed_cells);
  if (opt.corrupt == "report") resumed += "x\n";
  if (!complete || resumed != executed) {
    checks.fail(last_many.runs, "the resumed comparison report differs from the executed one");
  }
  const double report_ns =
      repeated_ns([&] { (void)comparison_report(workload, last_many.aggregates); });
  const fi::SweepDriver expander(workload.spec);
  const double expand_ns = repeated_ns([&] { (void)expander.expand(); });

  // Per-run figures: times over every traced run, counts from the first
  // pass (every later pass repeated them exactly, or a check failed).
  const double runs = static_cast<double>(first.runs) * reps;
  const double pass_runs = static_cast<double>(std::max<std::uint64_t>(first.runs, 1));
  const auto us = [runs](double ns) { return ns / runs / 1e3; };
  const auto per_run = [pass_runs](std::uint64_t count) {
    return static_cast<double>(count) / pass_runs;
  };
  const auto share = [](double part, double whole) { return whole > 0 ? part / whole : 0.0; };
  const double machine_ns = times.window_ns - times.guest_window_ns;

  Metrics m;
  m.add("core.provision_us", us(times.provision_ns), "us");
  m.add("core.boot_us", us(times.boot_ns), "us");
  m.add("core.window_us", us(times.window_ns), "us");
  m.add("core.classify_us", us(times.classify_ns), "us");
  m.add("core.restores", static_cast<double>(first.restores), "count");
  m.add("core.resets", static_cast<double>(first.resets), "count");
  m.add("core.captures", static_cast<double>(first.captures), "count");
  m.add("core.snapshot_bytes", static_cast<double>(first.snapshot_bytes), "bytes");
  m.add("core.injections", per_run(first.injections), "count/run");
  m.add("core.filtered_calls", per_run(first.filtered_calls), "count/run");
  m.add("core.worker_idle_share", share(idle_ns, worker_ns), "fraction");
  m.add("guests.freertos_us", us(times.image_ns[1]), "us");
  m.add("guests.osek_us", us(times.image_ns[2]), "us");
  m.add("guests.linux_us", us(times.image_ns[0]), "us");
  m.add("guests.quanta", per_run(first.quanta), "count/run");
  m.add("guests.timer_calls", per_run(first.timer_calls), "count/run");
  m.add("guests.irq_calls", per_run(first.irq_calls), "count/run");
  m.add("guests.rtos_dispatches", per_run(first.rtos_dispatches), "count/run");
  m.add("guests.ns_per_quantum",
        share(times.guest_quantum_ns, static_cast<double>(first.quanta) * reps), "ns");
  m.add("hypervisor.machine_us", us(machine_ns), "us");
  m.add("hypervisor.traps", per_run(first.traps), "count/run");
  m.add("hypervisor.hvcs", per_run(first.hvcs), "count/run");
  m.add("hypervisor.irqs", per_run(first.irqs), "count/run");
  m.add("hypervisor.mmio_emulations", per_run(first.mmio_emulations), "count/run");
  m.add("hypervisor.cpu_parks", per_run(first.cpu_parks), "count/run");
  m.add("hypervisor.panics", per_run(first.panics), "count/run");
  m.add("hypervisor.ns_per_irq", share(machine_ns, static_cast<double>(first.irqs) * reps),
        "ns");
  m.add("irq.sgi_delivered", per_run(first.sgi), "count/run");
  m.add("irq.ppi_delivered", per_run(first.ppi), "count/run");
  m.add("irq.spi_delivered", per_run(first.spi), "count/run");
  m.add("mem.tlb_hits", per_run(first.tlb_hits), "count/run");
  m.add("mem.tlb_misses", per_run(first.tlb_misses), "count/run");
  m.add("mem.tlb_hit_ratio",
        share(static_cast<double>(first.tlb_hits),
              static_cast<double>(first.tlb_hits + first.tlb_misses)),
        "fraction");
  m.add("mem.dram_fast_ops", per_run(first.dram_fast), "count/run");
  m.add("mem.dram_slow_ops", per_run(first.dram_slow), "count/run");
  m.add("mem.dirty_pages", static_cast<double>(first.dirty_pages), "pages");
  m.add("platform.deadline_refreshes", per_run(first.deadline_refreshes), "count/run");
  m.add("platform.uart1_bytes", per_run(first.uart1_bytes), "bytes/run");
  m.add("analysis.sink_us", us(times.sink_ns), "us");
  m.add("analysis.resume_ms", resume_ns * 1e-6, "ms");
  m.add("analysis.scan_lines_per_s",
        share(static_cast<double>(scanned), resume_ns * resumes * 1e-9), "lines/s");
  m.add("analysis.report_us", report_ns * 1e-3, "us");
  m.add("sweep.expand_us", expand_ns * 1e-3, "us");
  m.add("sweep.cell_ms", cell_ns.empty() ? 0.0 : median(cell_ns) * 1e-6, "ms");
  m.add("trace.overhead_ratio", share(times.wall_ns, untraced_ns), "ratio");

  std::ostringstream detail;
  detail << "{\"workload\": \"" << workload.name << "\", \"seed\": " << opt.seed
         << ", \"trace\": 1, \"host\": " << host_json(opt) << ", \"reps\": " << reps
         << ", \"sample_every\": " << kSampleEvery
         << ", \"empty_span_ns\": " << number(empty_span_ns)
         << ", \"untraced_s\": " << json_list(untraced_s)
         << ", \"traced_s\": " << json_list(traced_s) << ", \"counts\": {";
  const auto counts = first.counts();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    detail << (i == 0 ? "" : ", ") << "\"" << counts[i].first << "\": " << counts[i].second;
  }
  detail << "}, \"log_digest\": \"" << digest(last_many.logs) << "\"}";
  print_result(checks, m, detail.str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point process_start = Clock::now();
  Options opt;
  if (!parse_options(argc, argv, opt)) return 2;
  opt.threads = host_cpus();
  try {
    return opt.trace ? run_traced(opt) : run_timed(opt, process_start);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
