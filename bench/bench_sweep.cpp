// Sweep-driver throughput: what the multi-campaign outer loop costs on
// top of the run queue it drives.
//
// BM_SweepThroughput runs a fixed 2×2 grid (two scenarios × the paper's
// two intensity rates) end to end — grid expansion, every cell's runs on
// one run queue, aggregate folding — at 1/2/4/8 queue workers, so the
// sweep layer's scaling can be tracked next to BM_ExecutorThroughput's.
//
// BM_DistributedThroughput runs the same end-to-end path through the
// multi-process runtime (fork + cell leasing over a shared logdir) at
// 1/2/4 worker processes, one executor thread each — so the row isolates
// what process-level fan-out buys on a provision-heavy grid, next to the
// thread-level rows above.
//
//   $ ./bench_sweep
//   $ ./bench_sweep --distributed-json  # machine-readable distributed
//                                       # runs/sec + w2/w4 speedups (CI gate)
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "core/sweep_worker.hpp"

namespace {

using namespace mcs;

fi::SweepSpec small_grid() {
  fi::SweepSpec spec;
  spec.name = "bench-grid";
  spec.scenarios = {"freertos-steady", "inject-during-boot"};
  spec.rates = {fi::kMediumRate, fi::kHighRate};
  spec.runs = 4;
  spec.duration_ticks = 1'000;  // short windows: measure the driver, not
                                // the paper's one-minute observation
  spec.seed = 0xC0FFEE;
  return spec;
}

void BM_SweepThroughput(benchmark::State& state) {
  const fi::SweepSpec spec = small_grid();
  fi::ExecutorConfig config;
  config.threads = static_cast<unsigned>(state.range(0));
  const std::uint64_t runs_per_sweep =
      static_cast<std::uint64_t>(spec.cell_count()) * spec.runs;

  for (auto _ : state) {
    fi::SweepDriver driver(spec, config);
    auto result = driver.execute();
    if (!result.is_ok() ||
        result.value().total.distribution.total() != runs_per_sweep) {
      state.SkipWithError("sweep failed");
      break;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(runs_per_sweep));
}

BENCHMARK(BM_SweepThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- distributed -------------------------------------------------------------

/// The provision-heavy fixture the distributed speedup is gated on: one
/// scenario fanned across eight intensity rates, short windows, so
/// per-cell provisioning (boot + warm-start) and campaign turnover —
/// the costs process fan-out actually divides — dominate the wall time.
fi::SweepSpec provision_heavy_grid() {
  fi::SweepSpec spec;
  spec.name = "bench-distributed";
  spec.scenarios = {"freertos-steady"};
  spec.rates = {40, 50, 60, 70, 80, 90, 100, 110};
  spec.runs = 12;
  spec.duration_ticks = 20'000;
  spec.seed = 0xD15B;
  return spec;
}

/// A fresh logdir per measurement: resume must never serve a previous
/// iteration's logs, or every row after the first measures file parsing.
std::filesystem::path fresh_log_dir() {
  static unsigned counter = 0;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mcs_bench_dist_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return dir;
}

/// One distributed sweep, wall-clock seconds, or < 0 on failure. One
/// executor thread per worker: the processes are the only parallelism,
/// so workers=1 is the true serial baseline for the speedup ratios.
double time_distributed(unsigned workers, std::uint64_t expected_runs) {
  const std::filesystem::path dir = fresh_log_dir();
  fi::SweepSpec spec = provision_heavy_grid();
  spec.log_dir = dir.string();
  fi::DistributedSweepOptions options;
  options.workers = workers;
  options.worker.poll = std::chrono::milliseconds(10);

  // One executor thread per worker process, recovery probe off. Runs are
  // provisioned like any sweep's: pooled slots restored to rewind points.
  const auto begin = std::chrono::steady_clock::now();
  auto result =
      fi::run_distributed_sweep(spec, {.threads = 1, .probe_recovery = false}, options);
  const auto end = std::chrono::steady_clock::now();
  std::filesystem::remove_all(dir);
  if (!result.is_ok() ||
      result.value().total.distribution.total() != expected_runs) {
    return -1.0;
  }
  return std::chrono::duration<double>(end - begin).count();
}

void BM_DistributedThroughput(benchmark::State& state) {
  const unsigned workers = static_cast<unsigned>(state.range(0));
  const fi::SweepSpec spec = provision_heavy_grid();
  const std::uint64_t runs_per_sweep =
      static_cast<std::uint64_t>(spec.cell_count()) * spec.runs;

  for (auto _ : state) {
    const double seconds = time_distributed(workers, runs_per_sweep);
    if (seconds < 0) {
      state.SkipWithError("distributed sweep failed");
      break;
    }
    state.SetIterationTime(seconds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(runs_per_sweep));
  state.counters["workers"] = workers;
}

BENCHMARK(BM_DistributedThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// `--distributed-json`: runs/sec of the provision-heavy fixture through
/// the multi-process runtime at 1/2/4 workers, plus the w2/w4 : w1
/// speedups — the CI artifact that gates "distributing a sweep across
/// processes actually buys throughput" (w2 ≥ 1.6× is the release gate).
int run_distributed_json() {
  const std::vector<unsigned> worker_counts = {1, 2, 4};
  constexpr int kReps = 3;  // best-of: the gate measures capability
  const fi::SweepSpec spec = provision_heavy_grid();
  const std::uint64_t runs =
      static_cast<std::uint64_t>(spec.cell_count()) * spec.runs;

  std::ostream& out = std::cout;
  out << "{\n  \"distributed_throughput\": [\n";
  double baseline = 0.0;
  std::string speedups;
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    const unsigned workers = worker_counts[i];
    double best = -1.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double seconds = time_distributed(workers, runs);
      if (seconds < 0) {
        std::cerr << "distributed sweep failed at " << workers << " workers\n";
        return 1;
      }
      if (best < 0 || seconds < best) best = seconds;
    }
    const double runs_per_sec =
        best > 0 ? static_cast<double>(runs) / best : 0.0;
    out << "    {\"workers\": " << workers << ", \"runs\": " << runs
        << ", \"seconds\": " << best << ", \"runs_per_sec\": " << runs_per_sec
        << "}" << (i + 1 == worker_counts.size() ? "\n" : ",\n");
    if (workers == 1) {
      baseline = best;
    } else {
      speedups += std::string(speedups.empty() ? "" : ", ") + "\"w" +
                  std::to_string(workers) +
                  "\": " + std::to_string(best > 0 ? baseline / best : 0.0);
    }
  }
  out << "  ],\n  \"distributed_speedup\": {" << speedups << "}\n}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--distributed-json") == 0) {
      return run_distributed_json();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
