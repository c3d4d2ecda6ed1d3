// Resume trust chain, end to end: the analytics a live sharded campaign
// keeps must be exactly — bit for bit — what can be rebuilt from its
// persisted run log, for every scenario and any executor thread count;
// and a sweep interrupted mid-grid must resume from those logs into a
// byte-identical comparison report. These are the properties that make
// `SweepDriver` resume trustworthy rather than merely plausible.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/log_parser.hpp"
#include "analysis/report.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"

namespace mcs {
namespace {

/// Exact equality, doubles included: the round trip claims bit identity,
/// not closeness.
void expect_same_aggregate(const analysis::CampaignAggregate& a,
                           const analysis::CampaignAggregate& b,
                           const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(a.distribution.total(), b.distribution.total());
  for (std::size_t i = 0; i < fi::kNumOutcomes; ++i) {
    EXPECT_EQ(a.distribution.count(static_cast<fi::Outcome>(i)),
              b.distribution.count(static_cast<fi::Outcome>(i)));
  }
  EXPECT_EQ(a.injections, b.injections);
  EXPECT_EQ(a.cell_failures, b.cell_failures);
  EXPECT_EQ(a.reclaimed, b.reclaimed);
  EXPECT_EQ(a.detection_latency.n(), b.detection_latency.n());
  EXPECT_EQ(a.detection_latency.mean(), b.detection_latency.mean());
  EXPECT_EQ(a.detection_latency.stddev(), b.detection_latency.stddev());
  EXPECT_EQ(a.detection_latency.min(), b.detection_latency.min());
  EXPECT_EQ(a.detection_latency.max(), b.detection_latency.max());
}

TEST(RoundTrip, LiveAggregateEqualsLogRebuildForEveryScenarioAndThreads) {
  for (const std::string& scenario :
       fi::ScenarioRegistry::instance().names()) {
    auto made = fi::ScenarioRegistry::instance().make(scenario);
    ASSERT_TRUE(made.is_ok()) << made.status().to_string();
    fi::TestPlan plan = made.value();
    plan.runs = 6;
    plan.seed = 0xABCDEF ^ std::hash<std::string>{}(scenario);

    for (const unsigned threads : {1u, 4u, 8u}) {
      fi::CampaignExecutor executor(
          plan, {.threads = threads, .probe_recovery = true});
      analysis::LogSink sink;  // retaining: text() is the log file body
      executor.set_progress(
          [&sink](std::uint32_t index, const fi::RunResult& run) {
            sink.record(index, run);
          });
      const fi::CampaignResult result = executor.execute();
      ASSERT_EQ(result.runs.size(), plan.runs);

      const analysis::RunLogScan scan = analysis::scan_run_log(sink.text());
      EXPECT_EQ(scan.malformed_lines, 0u);
      ASSERT_EQ(scan.entries, plan.runs);
      EXPECT_TRUE(scan.indices_sequential);
      expect_same_aggregate(
          sink.aggregate(), scan.aggregate,
          scenario + " @" + std::to_string(threads) + " threads");
    }
  }
}

TEST(RoundTrip, DuplicateProgressDeliveriesDoNotSkewTheAggregate) {
  fi::TestPlan plan = fi::paper_medium_trap_plan();
  plan.runs = 5;
  plan.duration_ticks = 2'000;

  fi::CampaignExecutor executor(plan, {.threads = 2});
  analysis::LogSink clean;
  analysis::LogSink noisy;
  executor.set_progress(
      [&clean, &noisy](std::uint32_t index, const fi::RunResult& run) {
        clean.record(index, run);
        noisy.record(index, run);
        noisy.record(index, run);  // a resume replaying every run once more
      });
  (void)executor.execute();
  EXPECT_EQ(noisy.duplicates(), 5u);
  expect_same_aggregate(clean.aggregate(), noisy.aggregate(), "noisy replay");
  EXPECT_EQ(clean.text(), noisy.text());
}

// --- sweep resume -----------------------------------------------------------

fi::SweepSpec resume_spec(const std::string& log_dir) {
  fi::SweepSpec spec;
  spec.name = "resume-grid";
  spec.scenarios = {"freertos-steady", "inject-during-boot"};
  spec.rates = {100, 50};
  spec.runs = 3;
  spec.seed = 0x5EED;
  spec.duration_ticks = 20'000;
  spec.log_dir = log_dir;
  return spec;
}

std::string report_of(const fi::SweepResult& result) {
  std::vector<analysis::ComparisonColumn> columns;
  for (const fi::SweepCellResult& cell : result.cells) {
    columns.push_back({cell.id, cell.aggregate});
  }
  return analysis::render_comparison_report(columns, "resume-grid");
}

TEST(SweepResume, InterruptedSweepResumesToAByteIdenticalReport) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "mcs_sweep_resume";
  std::filesystem::remove_all(dir);

  // The uninterrupted reference run.
  auto fresh = fi::SweepDriver(resume_spec(dir.string()), {.threads = 4}).execute();
  ASSERT_TRUE(fresh.is_ok()) << fresh.status().to_string();
  ASSERT_EQ(fresh.value().executed, 4u);
  const std::string fresh_report = report_of(fresh.value());

  // Simulate an interrupt: one cell's log truncated mid-line (the shape a
  // killed process leaves), another deleted outright.
  const std::string truncated =
      fi::SweepDriver::cell_log_path(dir.string(), "freertos-steady_r50");
  std::ifstream in(truncated);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  const std::string body = buffer.str();
  ASSERT_GT(body.size(), 20u);
  std::ofstream(truncated, std::ios::trunc)
      << body.substr(0, body.size() / 2);
  ASSERT_EQ(std::remove(fi::SweepDriver::cell_log_path(
                            dir.string(), "inject-during-boot_r100")
                            .c_str()),
            0);

  // Resume with a different thread count: the two damaged cells re-run,
  // the completed ones rebuild from their logs — and the report is
  // byte-identical to the uninterrupted run's.
  auto resumed =
      fi::SweepDriver(resume_spec(dir.string()), {.threads = 1}).execute();
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value().resumed, 2u);
  EXPECT_EQ(resumed.value().executed, 2u);
  EXPECT_EQ(report_of(resumed.value()), fresh_report);
  for (std::size_t i = 0; i < fresh.value().cells.size(); ++i) {
    expect_same_aggregate(fresh.value().cells[i].aggregate,
                          resumed.value().cells[i].aggregate,
                          "cell " + fresh.value().cells[i].id);
  }
  expect_same_aggregate(fresh.value().total, resumed.value().total, "total");

  // A second re-invocation finds every cell complete and runs nothing.
  auto again = fi::SweepDriver(resume_spec(dir.string()), {.threads = 8}).execute();
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().resumed, 4u);
  EXPECT_EQ(again.value().executed, 0u);
  EXPECT_EQ(report_of(again.value()), fresh_report);

  std::filesystem::remove_all(dir);
}

TEST(SweepResume, ChangedSpecReExecutesInsteadOfServingStaleLogs) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "mcs_sweep_staleness";
  std::filesystem::remove_all(dir);

  auto first = fi::SweepDriver(resume_spec(dir.string()), {.threads = 2}).execute();
  ASSERT_TRUE(first.is_ok());
  ASSERT_EQ(first.value().executed, 4u);

  // Same grid shape, different seed: every cell's log is structurally
  // complete, but the sidecar fingerprint no longer matches the plan, so
  // nothing may resume — a resumed cell here would be another
  // experiment's data wearing this one's id.
  fi::SweepSpec reseeded = resume_spec(dir.string());
  reseeded.seed = 0xBAD5EED;
  auto second = fi::SweepDriver(reseeded, {.threads = 2}).execute();
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().resumed, 0u);
  EXPECT_EQ(second.value().executed, 4u);

  // And a changed duration re-executes too.
  fi::SweepSpec longer = resume_spec(dir.string());
  longer.duration_ticks = 25'000;
  auto third = fi::SweepDriver(longer, {.threads = 2}).execute();
  ASSERT_TRUE(third.is_ok());
  EXPECT_EQ(third.value().resumed, 0u);

  std::filesystem::remove_all(dir);
}

TEST(SweepResume, TornMetaSidecarReExecutesInsteadOfBlockingResume) {
  // The failure the atomic sidecar write exists to prevent: a process
  // dying mid-meta-write used to be able to leave a truncated
  // fingerprint. Committing via temp + rename means the sidecar is
  // either absent or whole — and if damage does appear (disk surgery,
  // an older writer), the mismatch re-executes the cell rather than
  // wedging or resuming someone else's data.
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "mcs_sweep_torn_meta";
  std::filesystem::remove_all(dir);

  auto fresh = fi::SweepDriver(resume_spec(dir.string()), {.threads = 2}).execute();
  ASSERT_TRUE(fresh.is_ok());
  const std::string fresh_report = report_of(fresh.value());

  const std::string log =
      fi::SweepDriver::cell_log_path(dir.string(), "freertos-steady_r100");
  const std::string meta = fi::cell_meta_path(log);
  std::ifstream meta_in(meta);
  std::string fingerprint;
  std::getline(meta_in, fingerprint);
  meta_in.close();
  ASSERT_GT(fingerprint.size(), 4u);
  std::ofstream(meta, std::ios::trunc)
      << fingerprint.substr(0, fingerprint.size() / 2);

  auto resumed =
      fi::SweepDriver(resume_spec(dir.string()), {.threads = 2}).execute();
  ASSERT_TRUE(resumed.is_ok());
  EXPECT_EQ(resumed.value().executed, 1u);  // only the torn-meta cell
  EXPECT_EQ(resumed.value().resumed, 3u);
  EXPECT_EQ(report_of(resumed.value()), fresh_report);

  std::filesystem::remove_all(dir);
}

// The logdir is crash-consistent, not power-loss durable: logs, meta
// sidecars and leases commit by temp file + rename, and nothing calls
// fsync. After a power loss a renamed file may therefore come back
// empty. Either empty file must re-execute its cell, never resume it.
void expect_empty_file_reexecutes(const std::string& dir_name,
                                  bool empty_meta) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / dir_name;
  std::filesystem::remove_all(dir);

  auto fresh = fi::SweepDriver(resume_spec(dir.string()), {.threads = 2}).execute();
  ASSERT_TRUE(fresh.is_ok());
  const std::string fresh_report = report_of(fresh.value());

  const std::string log =
      fi::SweepDriver::cell_log_path(dir.string(), "freertos-steady_r50");
  const std::string meta = fi::cell_meta_path(log);
  ASSERT_TRUE(std::filesystem::exists(meta));
  std::filesystem::resize_file(empty_meta ? meta : log, 0);

  auto resumed =
      fi::SweepDriver(resume_spec(dir.string()), {.threads = 2}).execute();
  ASSERT_TRUE(resumed.is_ok());
  EXPECT_EQ(resumed.value().executed, 1u);
  EXPECT_EQ(resumed.value().resumed, 3u);
  EXPECT_EQ(report_of(resumed.value()), fresh_report);
  EXPECT_GT(std::filesystem::file_size(log), 0u);
  EXPECT_GT(std::filesystem::file_size(meta), 0u);

  std::filesystem::remove_all(dir);
}

TEST(SweepResume, ZeroLengthRunLogWithIntactMetaReExecutes) {
  expect_empty_file_reexecutes("mcs_sweep_empty_log", /*empty_meta=*/false);
}

TEST(SweepResume, ZeroLengthMetaSidecarReExecutes) {
  expect_empty_file_reexecutes("mcs_sweep_empty_meta", /*empty_meta=*/true);
}

TEST(SweepResume, ResumeIsByteIdenticalAtEveryThreadCount) {
  // The resume pre-scan is a pure read; only its *scan* runs on a thread
  // pool, the fold stays serial in grid order. So resuming the same
  // populated logdir at any executor thread count must render byte-
  // identical reports — the property the examples-smoke CI step diffs
  // end to end.
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "mcs_sweep_par_resume";
  std::filesystem::remove_all(dir);

  auto fresh = fi::SweepDriver(resume_spec(dir.string()), {.threads = 4}).execute();
  ASSERT_TRUE(fresh.is_ok()) << fresh.status().to_string();
  ASSERT_EQ(fresh.value().executed, 4u);
  const std::string fresh_report = report_of(fresh.value());

  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    auto resumed =
        fi::SweepDriver(resume_spec(dir.string()), {.threads = threads}).execute();
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    EXPECT_EQ(resumed.value().resumed, 4u);
    EXPECT_EQ(resumed.value().executed, 0u);
    EXPECT_EQ(report_of(resumed.value()), fresh_report);
    for (std::size_t i = 0; i < fresh.value().cells.size(); ++i) {
      expect_same_aggregate(fresh.value().cells[i].aggregate,
                            resumed.value().cells[i].aggregate,
                            "cell " + fresh.value().cells[i].id);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepResume, InMemorySweepMatchesPersistedSweep) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "mcs_sweep_inmem";
  std::filesystem::remove_all(dir);

  fi::SweepSpec in_memory = resume_spec("");
  auto transient = fi::SweepDriver(in_memory, {.threads = 2}).execute();
  auto persisted =
      fi::SweepDriver(resume_spec(dir.string()), {.threads = 2}).execute();
  ASSERT_TRUE(transient.is_ok() && persisted.is_ok());
  ASSERT_EQ(transient.value().cells.size(), persisted.value().cells.size());
  for (std::size_t i = 0; i < transient.value().cells.size(); ++i) {
    expect_same_aggregate(transient.value().cells[i].aggregate,
                          persisted.value().cells[i].aggregate,
                          "cell " + transient.value().cells[i].id);
  }
  std::filesystem::remove_all(dir);
}

// --- one run queue per sweep ---------------------------------------------------

TEST(SweepResume, CellProgressFiresOncePerCellInGridOrder) {
  // Resumed and executed cells interleave in grid order; the executed
  // ones share one run queue and finish in any order. Progress still
  // fires once per cell, in grid order, with the cell's final aggregate,
  // and only after an executed cell's log and fingerprint are committed.
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "mcs_sweep_progress";
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    std::filesystem::remove_all(dir);
    auto fresh = fi::SweepDriver(resume_spec(dir.string()), {.threads = 4}).execute();
    ASSERT_TRUE(fresh.is_ok()) << fresh.status().to_string();
    for (const char* cell : {"freertos-steady_r100", "inject-during-boot_r100"}) {
      std::filesystem::remove(fi::SweepDriver::cell_log_path(dir.string(), cell));
    }

    fi::SweepDriver driver(resume_spec(dir.string()), {.threads = threads});
    std::vector<fi::SweepCellResult> seen;
    std::vector<bool> committed;
    driver.set_cell_progress([&](const fi::SweepCellResult& cell) {
      seen.push_back(cell);
      analysis::CampaignAggregate on_disk;
      committed.push_back(fi::cell_log_complete(cell.plan, cell.log_path, on_disk));
    });
    auto resumed = driver.execute();
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    EXPECT_EQ(resumed.value().executed, 2u);
    ASSERT_EQ(seen.size(), fresh.value().cells.size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
      const fi::SweepCellResult& want = fresh.value().cells[i];
      EXPECT_EQ(seen[i].id, want.id);
      EXPECT_EQ(seen[i].resumed, i % 2 == 1) << want.id;
      EXPECT_TRUE(committed[i]) << want.id;
      expect_same_aggregate(seen[i].aggregate, want.aggregate, "progress " + want.id);
      expect_same_aggregate(seen[i].aggregate, resumed.value().cells[i].aggregate,
                            "result " + want.id);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepResume, PersistenceFailureStopsTheQueueAndResumesCleanly) {
  // A directory where one cell's log must land makes that cell's commit
  // fail. The sweep reports it by name, hands out no further runs, and
  // leaves no fingerprint for the cell and no temp log behind. Once the
  // directory is gone, the next invocation executes exactly the cells
  // without a committed log and reports what a fresh sweep reports.
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "mcs_sweep_commit_failure";
  std::filesystem::remove_all(dir);
  const std::string blocked =
      fi::SweepDriver::cell_log_path(dir.string(), "inject-during-boot_r100");
  std::filesystem::create_directories(blocked);

  auto failed = fi::SweepDriver(resume_spec(dir.string()), {.threads = 2}).execute();
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.status().code(), util::Code::EIo);
  EXPECT_NE(failed.status().message().find("inject-during-boot_r100"), std::string::npos)
      << failed.status().to_string();
  EXPECT_FALSE(std::filesystem::exists(fi::cell_meta_path(blocked)));
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }

  std::filesystem::remove_all(blocked);
  const std::vector<fi::TestPlan> grid =
      fi::SweepDriver(resume_spec(dir.string())).expand().value();
  std::vector<bool> committed;
  for (const fi::TestPlan& plan : grid) {
    analysis::CampaignAggregate on_disk;
    committed.push_back(fi::cell_log_complete(
        plan, fi::SweepDriver::cell_log_path(dir.string(), plan.name), on_disk));
  }
  EXPECT_FALSE(committed[2]);

  auto retried = fi::SweepDriver(resume_spec(dir.string()), {.threads = 2}).execute();
  ASSERT_TRUE(retried.is_ok()) << retried.status().to_string();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(retried.value().cells[i].resumed, committed[i]) << grid[i].name;
  }
  const std::size_t missing =
      static_cast<std::size_t>(std::count(committed.begin(), committed.end(), false));
  EXPECT_EQ(retried.value().executed, missing);

  const std::filesystem::path fresh_dir = dir / "fresh";
  auto fresh =
      fi::SweepDriver(resume_spec(fresh_dir.string()), {.threads = 2}).execute();
  ASSERT_TRUE(fresh.is_ok()) << fresh.status().to_string();
  EXPECT_EQ(report_of(retried.value()), report_of(fresh.value()));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mcs
