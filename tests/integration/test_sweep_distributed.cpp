// The distributed sweep's headline property, end to end: N worker
// processes splitting a grid over nothing but a shared logdir must
// produce the byte-identical comparison report a single-process
// SweepDriver renders — including when a worker dies mid-cell and its
// lease has to be stolen, and when workers race the same logdir
// concurrently. Equivalence is checked over every registered scenario
// on both boards, so no scenario's execution path escapes the
// lease/execute/resume plumbing.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "analysis/report.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "core/sweep_worker.hpp"

namespace mcs {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// Every registered scenario on both boards: the widest grid the
/// simulator can express, so distributed equivalence covers every
/// scenario's execution path (including ones whose setup rejects a
/// board — those classify as harness errors identically everywhere).
fi::SweepSpec full_grid_spec(const std::string& log_dir) {
  fi::SweepSpec spec;
  spec.name = "distributed-grid";
  spec.scenarios = fi::ScenarioRegistry::instance().names();
  spec.rates = {100};
  spec.boards = {"bananapi", "quad-a7"};
  spec.runs = 2;
  spec.seed = 0xD157;
  spec.duration_ticks = 5'000;
  spec.log_dir = log_dir;
  return spec;
}

std::string report_of(const fi::SweepResult& result) {
  std::vector<analysis::ComparisonColumn> columns;
  for (const fi::SweepCellResult& cell : result.cells) {
    columns.push_back({cell.id, cell.aggregate});
  }
  return analysis::render_comparison_report(columns, "distributed-grid");
}

class DistributedSweepTest : public testing::Test {
 protected:
  void SetUp() override {
    // Unique per test (not just per fixture): parallel ctest runs each
    // test in its own process, so a shared path would let one test's
    // cleanup race another's live logdir.
    scratch_ = fs::path(testing::TempDir()) /
               (std::string("mcs_distributed_sweep_") +
                testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(scratch_);
    fs::create_directories(scratch_);

    // The single-process reference every distributed variant must match
    // byte for byte.
    const fs::path ref_dir = scratch_ / "reference";
    auto reference =
        fi::SweepDriver(full_grid_spec(ref_dir.string()), {.threads = 2}).execute();
    ASSERT_TRUE(reference.is_ok()) << reference.status().to_string();
    cells_total_ = reference.value().cells.size();
    reference_report_ = report_of(reference.value());
    ASSERT_FALSE(reference_report_.empty());
  }
  void TearDown() override { fs::remove_all(scratch_); }

  std::string dir_for(const std::string& variant) const {
    return (scratch_ / variant).string();
  }

  /// No lease, claim scratch, or un-renamed artifact temp may survive a
  /// clean distributed run — only runlogs, sidecars, and the spec.
  void expect_clean_logdir(const std::string& log_dir) {
    for (const auto& entry : fs::directory_iterator(log_dir)) {
      const std::string name = entry.path().filename().string();
      EXPECT_TRUE(name == fi::kSweepSpecFileName ||
                  name.find(".runlog") != std::string::npos)
          << "unexpected logdir litter: " << name;
      EXPECT_EQ(name.find(".lease"), std::string::npos) << name;
      EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
    }
  }

  fs::path scratch_;
  std::size_t cells_total_ = 0;
  std::string reference_report_;
};

TEST_F(DistributedSweepTest, TwoAndFourForkedWorkersMatchSingleProcess) {
  for (const unsigned workers : {2u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    const std::string log_dir =
        dir_for("fork" + std::to_string(workers));
    fi::DistributedSweepOptions options;
    options.workers = workers;
    // Each worker is its own process with its own sharded executor; one
    // executor thread per worker keeps the fork the only parallelism.
    auto result = fi::run_distributed_sweep(full_grid_spec(log_dir),
                                            {.threads = 1}, options);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    // The coordinator merges from worker logs; with live workers its
    // backstop never executes anything itself.
    EXPECT_EQ(result.value().resumed, cells_total_);
    EXPECT_EQ(result.value().executed, 0u);
    EXPECT_EQ(report_of(result.value()), reference_report_);
    expect_clean_logdir(log_dir);

    // The spec file persisted for --join workers expands the same grid.
    auto spec = fi::read_spec_file(log_dir);
    ASSERT_TRUE(spec.is_ok());
    EXPECT_EQ(spec.value().scenarios, full_grid_spec(log_dir).scenarios);
  }
}

TEST_F(DistributedSweepTest, DeadWorkersStaleLeaseIsStolenAndReExecuted) {
  const std::string log_dir = dir_for("stale");
  const fi::SweepSpec spec = full_grid_spec(log_dir);
  fs::create_directories(log_dir);

  // Reconstruct what a worker killed mid-cell leaves behind: a lease
  // that stopped heartbeating (backdated past any TTL) and a partial,
  // uncommitted runlog for the cell it was executing.
  auto expanded = fi::SweepDriver(spec).expand();
  ASSERT_TRUE(expanded.is_ok());
  const std::string victim = expanded.value().front().name;
  auto dead = fi::CellLease::try_claim(log_dir, victim, "dead-worker", 60s);
  ASSERT_TRUE(dead.is_ok()) << dead.status().to_string();
  dead.value().abandon();
  const std::string lease = fi::CellLease::lease_path(log_dir, victim);
  fs::last_write_time(lease, fs::last_write_time(lease) - 600s);
  std::ofstream(fi::SweepDriver::cell_log_path(log_dir, victim))
      << "run 0: CORRECT detect=0 latency=0\n";  // incomplete: 1 of 2 runs

  fi::SweepWorkerConfig config;
  config.worker_id = "rescuer";
  config.lease_ttl = 100ms;
  fi::SweepWorker rescuer(spec, {.threads = 1}, config);
  auto stats = rescuer.run();
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_GE(stats.value().stolen, 1u);
  EXPECT_EQ(stats.value().executed, cells_total_);

  // The re-executed victim cell — and the whole merged grid — must be
  // indistinguishable from a run where nobody ever died.
  auto merged = fi::SweepDriver(spec, {.threads = 4}).execute();
  ASSERT_TRUE(merged.is_ok());
  EXPECT_EQ(merged.value().resumed, cells_total_);
  EXPECT_EQ(merged.value().executed, 0u);
  EXPECT_EQ(report_of(merged.value()), reference_report_);
}

TEST_F(DistributedSweepTest, WorkerKilledMidFlightIsRescuedByAJoiningWorker) {
  const std::string log_dir = dir_for("killed");
  const fi::SweepSpec spec = full_grid_spec(log_dir);
  ASSERT_TRUE(fi::write_spec_file(spec).is_ok());

  // A real victim process: a worker with an effectively infinite TTL (so
  // only its death, not a lapsed heartbeat, can free its cells), killed
  // with SIGKILL mid-grid — no destructors, no lease release, exactly
  // the crash the protocol is for.
  std::cout.flush();
  std::cerr.flush();
  const pid_t victim = ::fork();
  ASSERT_GE(victim, 0);
  if (victim == 0) {
    fi::SweepWorkerConfig config;
    config.worker_id = "victim";
    config.lease_ttl = std::chrono::milliseconds(3'600'000);
    fi::SweepWorker worker(spec, {.threads = 1}, config);
    (void)worker.run();
    std::_Exit(0);
  }
  std::this_thread::sleep_for(150ms);
  ::kill(victim, SIGKILL);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(victim, &wait_status, 0), victim);

  // The rescuer treats any existing lease as stale (ttl 0): it steals
  // whatever the victim held and finishes the grid.
  fi::SweepWorkerConfig config;
  config.worker_id = "rescuer";
  config.lease_ttl = 0ms;
  fi::SweepWorker rescuer(spec, {.threads = 1}, config);
  auto stats = rescuer.run();
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().executed + stats.value().observed, cells_total_);

  auto merged = fi::SweepDriver(spec, {.threads = 2}).execute();
  ASSERT_TRUE(merged.is_ok());
  EXPECT_EQ(merged.value().resumed, cells_total_);
  EXPECT_EQ(report_of(merged.value()), reference_report_);
}

TEST_F(DistributedSweepTest, ConcurrentWorkersOnThreadsSplitWithoutOverlap) {
  // Two SweepWorkers racing the same logdir from threads of one process:
  // the filesystem can't tell threads from processes, so the lease files
  // must still hand each cell to exactly one of them.
  const std::string log_dir = dir_for("threads");
  const fi::SweepSpec spec = full_grid_spec(log_dir);

  fi::SweepWorkerStats stats_a;
  fi::SweepWorkerStats stats_b;
  util::Status status_a = util::ok_status();
  util::Status status_b = util::ok_status();
  const auto run_worker = [&spec](const std::string& id,
                                  fi::SweepWorkerStats& stats,
                                  util::Status& status) {
    fi::SweepWorkerConfig config;
    config.worker_id = id;
    fi::SweepWorker worker(spec, {.threads = 1}, config);
    auto result = worker.run();
    if (result.is_ok()) {
      stats = result.value();
      status = util::ok_status();
    } else {
      status = result.status();
    }
  };
  std::thread a(run_worker, "ta", std::ref(stats_a), std::ref(status_a));
  std::thread b(run_worker, "tb", std::ref(stats_b), std::ref(status_b));
  a.join();
  b.join();
  ASSERT_TRUE(status_a.is_ok()) << status_a.to_string();
  ASSERT_TRUE(status_b.is_ok()) << status_b.to_string();

  // Every cell executed exactly once across the pair; with
  // wait_for_stragglers both workers saw the whole grid complete.
  EXPECT_EQ(stats_a.executed + stats_b.executed, cells_total_);
  EXPECT_EQ(stats_a.executed + stats_a.observed, cells_total_);
  EXPECT_EQ(stats_b.executed + stats_b.observed, cells_total_);

  auto merged = fi::SweepDriver(spec, {.threads = 2}).execute();
  ASSERT_TRUE(merged.is_ok());
  EXPECT_EQ(merged.value().resumed, cells_total_);
  EXPECT_EQ(report_of(merged.value()), reference_report_);
  expect_clean_logdir(log_dir);
}

}  // namespace
}  // namespace mcs
