// sweep: run the paper's full assessment grid — scenarios × fault
// intensities (rates) × boards — as one resumable campaign sweep, on one
// process or on many.
//
// The runs of every grid cell go to one run queue of --threads workers,
// which learn each rewind key once and serve every cell that shares it;
// each cell's run log streams to <logdir>/<cell>.runlog and commits when
// its last run lands. Re-invoking with the same spec and logdir resumes:
// completed cells are rebuilt from their logs and skipped, and the final
// comparison report is byte-identical to an uninterrupted run's (the
// determinism the resume CI step diffs).
//
//   $ ./sweep --scenarios freertos-steady,dual-cell --rates 100,50 --runs 8
//   $ ./sweep ... --logdir sweep-logs > report.txt   # per-cell logs, resumable
//   $ ./sweep --spec grid.sweep            # config-text spec file
//   $ ./sweep --spec -                     # spec from stdin
//
// Distributed execution over the same logdir (see README "Distributed
// sweeps" for the lease protocol):
//
//   $ ./sweep ... --logdir sweep-logs --workers 4   # fork 4 workers, merge
//   $ ./sweep --join sweep-logs --worker-id host2   # pile on from elsewhere
//
// The comparison report goes to stdout; progress goes to stderr, so the
// report can be redirected and diffed.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "core/sweep.hpp"
#include "core/sweep_worker.hpp"
#include "core/testbed_pool.hpp"
#include "hypervisor/config_text.hpp"
#include "util/logpipe_counters.hpp"
#include "util/mapped_file.hpp"
#include "util/strings.hpp"

namespace {

void usage(std::ostream& out) {
  out << "usage: sweep [options]\n"
         "  --spec <file|->       sweep spec as config text (see README)\n"
         "  --scenarios a,b,...   scenario axis (ScenarioRegistry keys)\n"
         "  --rates n,m,...       fault-intensity axis (inject 1/N calls)\n"
         "  --boards a,b,...      board axis (optional; default: scenario's)\n"
         "  --domains a,b,...     fault-domain axis (register, gic,\n"
         "                        irq-delivery, device-mmio, dram)\n"
         "  --runs N              runs per grid cell (default 8)\n"
         "  --seed S              base seed (decimal or 0x...)\n"
         "  --duration T          observation window ticks (default: plan's)\n"
         "  --tuning TEXT         cell tuning, ';'-separated lines\n"
         "  --logdir DIR          persist per-cell run logs; enables resume\n"
         "  --threads N           width of the sweep's one run queue, which\n"
         "                        serves every cell (default: auto; with\n"
         "                        --workers/--join: per process, per cell)\n"
         "distributed execution (multi-process cell leasing over --logdir):\n"
         "  --workers N           fork N worker processes over the logdir,\n"
         "                        wait, and render the merged report\n"
         "  --join DIR            join an in-flight sweep: lease cells from\n"
         "                        DIR/sweep.spec until the grid completes,\n"
         "                        then render the same merged report\n"
         "  --worker-id ID        lease owner id for --join (default wPID)\n"
         "  --lease-ttl SEC       heartbeat age before a lease counts stale\n"
         "                        and is re-claimed (default 60)\n"
         "flags override the spec file; the comparison report goes to\n"
         "stdout, progress to stderr\n";
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& part : mcs::util::split(text, ',')) {
    if (!mcs::util::trim(part).empty()) {
      out.emplace_back(mcs::util::trim(part));
    }
  }
  return out;
}

// --- throughput / ETA meter --------------------------------------------------

/// Per-cell wall-time accounting behind the stderr progress line:
/// cumulative runs/sec over executed runs, and an ETA from the mean
/// executed-cell wall time × cells remaining (resumed cells are ~free,
/// so only executed cells inform the estimate).
class ProgressMeter {
 public:
  explicit ProgressMeter(std::size_t cells_total)
      : cells_total_(cells_total),
        start_(std::chrono::steady_clock::now()),
        last_cell_(start_) {}

  void on_cell(bool executed, std::uint64_t runs) {
    const auto now = std::chrono::steady_clock::now();
    if (executed) {
      executed_seconds_ +=
          std::chrono::duration<double>(now - last_cell_).count();
      ++executed_cells_;
      runs_executed_ += runs;
    }
    last_cell_ = now;
    ++cells_done_;
  }

  void override_done(std::size_t done, std::size_t total) {
    cells_done_ = done;
    cells_total_ = total;
  }

  [[nodiscard]] std::size_t done() const { return cells_done_; }
  [[nodiscard]] std::size_t total() const { return cells_total_; }

  [[nodiscard]] double runs_per_sec() const {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    return elapsed > 0 ? static_cast<double>(runs_executed_) / elapsed : 0.0;
  }

  /// Seconds to finish the remaining cells; < 0 before any cell executed.
  [[nodiscard]] double eta_seconds() const {
    if (executed_cells_ == 0) return -1.0;
    const double per_cell = executed_seconds_ / executed_cells_;
    return per_cell * static_cast<double>(cells_total_ - cells_done_);
  }

  /// " | 12.3 runs/s, ETA 4.5s" — the suffix every progress line carries.
  [[nodiscard]] std::string suffix() const {
    std::ostringstream out;
    out << std::fixed << std::setprecision(1);
    out << " | " << runs_per_sec() << " runs/s, ETA ";
    const double eta = eta_seconds();
    if (eta < 0) {
      out << "unknown";
    } else {
      out << eta << "s";
    }
    return out.str();
  }

 private:
  std::size_t cells_total_;
  std::size_t cells_done_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_cell_;
  double executed_seconds_ = 0.0;
  std::size_t executed_cells_ = 0;
  std::uint64_t runs_executed_ = 0;
};

void print_cell_line(std::ostream& err, const std::string& prefix,
                     const ProgressMeter& meter, const std::string& cell_id,
                     bool executed, const mcs::analysis::CampaignAggregate& agg) {
  err << prefix << "[" << meter.done() << "/" << meter.total() << "] "
      << cell_id << ": " << (executed ? "executed" : "resumed from log")
      << ", " << agg.distribution.total() << " runs, " << agg.cell_failures
      << " cell failures" << meter.suffix() << "\n";
}

void print_pool_stats(std::ostream& err) {
  const mcs::fi::TestbedPool::Stats pool =
      mcs::fi::TestbedPool::instance().stats();
  err << "pool: " << pool.creates << " built, " << pool.reuses
      << " reused; runs: " << pool.run_restores << " restored, "
      << pool.run_resets << " reset; " << pool.captures
      << " snapshots captured (" << pool.snapshot_bytes << " B, "
      << pool.dirty_pages << " dirty pages), " << pool.ladder_captures
      << " ladder rungs; decided early: " << pool.golden_results
      << " golden results, " << pool.ladder_restores << " ladder restores, "
      << pool.panic_stops << " panic stops\n";
}

/// The log-pipeline epilogue: what the write path rendered, what the
/// read path mapped and scanned, what resume rebuilt without executing.
void print_logpipe_stats(std::ostream& err) {
  const mcs::util::LogPipeCounters::Stats log =
      mcs::util::LogPipeCounters::instance().stats();
  err << "logpipe: " << log.sink_lines << " lines sunk (" << log.sink_flushes
      << " flushes); " << log.parse_lines << " lines / " << log.parse_bytes
      << " B scanned, " << log.bytes_mapped << " B mapped ("
      << log.map_fallbacks << " read fallbacks); " << log.resumed_cells
      << " cells resumed from logs\n";
}

std::string report_of(const mcs::fi::SweepResult& result) {
  std::vector<mcs::analysis::ComparisonColumn> columns;
  columns.reserve(result.cells.size());
  for (const mcs::fi::SweepCellResult& cell : result.cells) {
    columns.push_back({cell.id, cell.aggregate});
  }
  return mcs::analysis::render_comparison_report(
      columns, "Sweep comparison — " + result.spec.name);
}

/// The per-worker stderr reporter used by --workers and --join: each
/// completed cell prints one "[wK] [done/total] ..." line from the
/// worker that saw it, with that worker's own throughput/ETA estimate.
mcs::fi::SweepWorker::ProgressFn worker_progress(const std::string& worker_id,
                                                 std::size_t cells_total) {
  auto meter = std::make_shared<ProgressMeter>(cells_total);
  return [meter, worker_id](const mcs::fi::SweepWorkerProgress& event) {
    meter->on_cell(event.executed_here,
                   event.executed_here ? event.cell->plan.runs : 0);
    meter->override_done(event.cells_done, event.cells_total);
    print_cell_line(std::cerr, "[" + worker_id + "] ", *meter,
                    event.cell->id, event.executed_here,
                    event.cell->aggregate);
  };
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcs;

  fi::SweepSpec spec;
  fi::ExecutorConfig config;
  fi::SweepWorkerConfig worker_config;
  bool have_spec = false;
  unsigned workers = 0;
  std::string join_dir;

  // Exit codes: 0 swept, 1 bad spec/flags, 2 unreadable spec input.
  // Strict numerics: the same vocabulary as the spec file, so "8q" is
  // rejected here exactly like it would be on a `runs 8q` line, and a
  // value above a 32-bit field's range is refused rather than wrapped.
  const auto parse_number = [](const char* flag_name, const char* token,
                               std::uint64_t& out,
                               std::uint64_t max = UINT64_MAX) {
    auto value = mcs::jh::parse_config_number(token);
    if (!value.is_ok() || value.value() > max) {
      std::cerr << "sweep: bad " << flag_name << " '" << token << "'\n";
      return false;
    }
    out = value.value();
    return true;
  };

  // First pass: load the spec file (if any), so explicit flags override
  // it regardless of their position on the command line.
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      usage(std::cout);
      return 0;
    }
    if (flag != "--spec") continue;
    if (i + 1 >= argc) {
      std::cerr << "sweep: --spec needs a file\n";
      return 1;
    }
    const std::string path = argv[++i];
    std::string text;
    if (path == "-") {
      std::ostringstream buffer;
      buffer << std::cin.rdbuf();
      if (std::cin.bad()) {
        std::cerr << "sweep: error reading stdin\n";
        return 2;
      }
      text = buffer.str();
    } else {
      auto body = util::read_file(path);
      if (!body.is_ok()) {
        if (body.status().code() == util::Code::ENoEnt) {
          std::cerr << "sweep: cannot open spec '" << path << "'\n";
        } else {
          std::cerr << "sweep: error reading spec '" << path << "'\n";
        }
        return 2;
      }
      text = std::move(body).value();
    }
    auto parsed = fi::parse_sweep_spec(text);
    if (!parsed.is_ok()) {
      std::cerr << "sweep: spec: " << parsed.status().to_string() << "\n";
      return 1;
    }
    spec = std::move(parsed).value();
    have_spec = true;
  }

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* arg = nullptr;
    std::uint64_t number = 0;
    if (flag == "--spec" && (arg = value()) != nullptr) {
      // Handled by the first pass.
    } else if (flag == "--scenarios" && (arg = value()) != nullptr) {
      spec.scenarios = split_csv(arg);
    } else if (flag == "--rates" && (arg = value()) != nullptr) {
      spec.rates.clear();
      for (const std::string& token : split_csv(arg)) {
        if (!parse_number("rate", token.c_str(), number, UINT32_MAX)) {
          return 1;
        }
        if (number == 0) {
          std::cerr << "sweep: bad rate '" << token << "' (need ≥ 1)\n";
          return 1;
        }
        spec.rates.push_back(static_cast<std::uint32_t>(number));
      }
    } else if (flag == "--boards" && (arg = value()) != nullptr) {
      spec.boards = split_csv(arg);
    } else if (flag == "--domains" && (arg = value()) != nullptr) {
      spec.domains = split_csv(arg);
    } else if (flag == "--runs" && (arg = value()) != nullptr) {
      if (!parse_number("runs", arg, number, UINT32_MAX)) return 1;
      spec.runs = static_cast<std::uint32_t>(number);
    } else if (flag == "--seed" && (arg = value()) != nullptr) {
      if (!parse_number("seed", arg, number)) return 1;
      spec.seed = number;
    } else if (flag == "--duration" && (arg = value()) != nullptr) {
      if (!parse_number("duration", arg, number)) return 1;
      spec.duration_ticks = number;
    } else if (flag == "--tuning" && (arg = value()) != nullptr) {
      spec.cell_tuning = arg;
      std::replace(spec.cell_tuning.begin(), spec.cell_tuning.end(), ';',
                   '\n');
    } else if (flag == "--logdir" && (arg = value()) != nullptr) {
      spec.log_dir = arg;
    } else if (flag == "--threads" && (arg = value()) != nullptr) {
      if (!parse_number("threads", arg, number, UINT32_MAX)) return 1;
      config.threads = static_cast<unsigned>(number);
    } else if (flag == "--workers" && (arg = value()) != nullptr) {
      if (!parse_number("workers", arg, number, UINT32_MAX) || number == 0) {
        std::cerr << "sweep: --workers needs a count ≥ 1\n";
        return 1;
      }
      workers = static_cast<unsigned>(number);
    } else if (flag == "--join" && (arg = value()) != nullptr) {
      join_dir = arg;
    } else if (flag == "--worker-id" && (arg = value()) != nullptr) {
      worker_config.worker_id = arg;
    } else if (flag == "--lease-ttl" && (arg = value()) != nullptr) {
      if (!parse_number("lease-ttl", arg, number)) return 1;
      worker_config.lease_ttl = std::chrono::seconds(number);
      worker_config.heartbeat_interval =
          std::max(std::chrono::milliseconds(worker_config.lease_ttl) / 4,
                   std::chrono::milliseconds(50));
    } else {
      std::cerr << "sweep: unknown or incomplete flag '" << flag << "'\n";
      usage(std::cerr);
      return 1;
    }
  }

  // --- join: become one worker of an in-flight sweep ------------------------
  if (!join_dir.empty()) {
    auto read = fi::read_spec_file(join_dir);
    if (!read.is_ok()) {
      std::cerr << "sweep: --join: " << read.status().to_string() << "\n";
      return 2;
    }
    spec = std::move(read).value();
    fi::SweepWorker worker(spec, config, worker_config);
    std::cerr << "sweep: worker '" << worker.worker_id() << "' joining '"
              << spec.name << "' (" << spec.cell_count() << " cells) in "
              << join_dir << "\n";
    worker.set_progress(
        worker_progress(worker.worker_id(), spec.cell_count()));
    auto stats = worker.run();
    if (!stats.is_ok()) {
      std::cerr << "sweep: worker: " << stats.status().to_string() << "\n";
      return 1;
    }
    std::cerr << "worker '" << worker.worker_id() << "': "
              << stats.value().executed << " cells executed, "
              << stats.value().observed << " observed complete, "
              << stats.value().stolen << " stale leases reclaimed\n";
    print_pool_stats(std::cerr);
    // The grid is complete (the worker waits for stragglers), so the
    // merged report renders here byte-identically to any other worker's
    // or the coordinator's.
    auto merged = fi::SweepDriver(spec, config).execute();
    if (!merged.is_ok()) {
      std::cerr << "sweep: merge: " << merged.status().to_string() << "\n";
      return 1;
    }
    std::cout << report_of(merged.value());
    return 0;
  }

  if (spec.scenarios.empty() || spec.rates.empty()) {
    if (!have_spec) usage(std::cerr);
    std::cerr << "sweep: need at least one scenario and one rate\n";
    return 1;
  }

  std::cerr << "sweep '" << spec.name << "': " << spec.cell_count()
            << " grid cells × " << spec.runs << " runs, base seed 0x"
            << std::hex << spec.seed << std::dec;
  if (!spec.log_dir.empty()) std::cerr << ", logs in " << spec.log_dir;
  if (workers >= 2) std::cerr << ", " << workers << " worker processes";
  std::cerr << "\n";

  // --- coordinator: fork N workers over one logdir, merge -------------------
  if (workers >= 2) {
    if (spec.log_dir.empty()) {
      std::cerr << "sweep: --workers needs --logdir (the shared "
                   "coordination substrate)\n";
      return 1;
    }
    fi::DistributedSweepOptions distributed;
    distributed.workers = workers;
    distributed.worker = worker_config;
    distributed.make_worker_progress =
        [cells_total = spec.cell_count()](const std::string& worker_id) {
          return worker_progress(worker_id, cells_total);
        };
    auto swept = fi::run_distributed_sweep(spec, config, distributed);
    if (!swept.is_ok()) {
      std::cerr << "sweep: " << swept.status().to_string() << "\n";
      return 1;
    }
    std::cerr << "merged: " << swept.value().resumed
              << " cells from worker logs, " << swept.value().executed
              << " executed by the coordinator backstop\n";
    std::cout << report_of(swept.value());
    return 0;
  }

  // --- single process -------------------------------------------------------
  fi::SweepDriver driver(std::move(spec), config);
  auto meter = std::make_shared<ProgressMeter>(driver.spec().cell_count());
  driver.set_cell_progress([meter](const fi::SweepCellResult& cell) {
    meter->on_cell(!cell.resumed, cell.resumed ? 0 : cell.plan.runs);
    print_cell_line(std::cerr, "  ", *meter, cell.id, !cell.resumed,
                    cell.aggregate);
  });
  auto swept = driver.execute();
  if (!swept.is_ok()) {
    std::cerr << "sweep: " << swept.status().to_string() << "\n";
    return 1;
  }
  const fi::SweepResult& result = swept.value();
  std::cerr << result.executed << " cells executed, " << result.resumed
            << " resumed\n";
  print_pool_stats(std::cerr);
  print_logpipe_stats(std::cerr);

  // The report — and only the report — on stdout, so an interrupted+
  // resumed sweep can be diffed byte-for-byte against a fresh one.
  std::cout << report_of(result);
  return 0;
}
