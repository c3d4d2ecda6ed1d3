#include "core/sweep.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "analysis/log_parser.hpp"
#include "core/scenario.hpp"
#include "hypervisor/config_text.hpp"
#include "util/logpipe_counters.hpp"
#include "util/mapped_file.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace mcs::fi {

namespace {

/// "scenario_rN[_board][_domain]": unique per grid cell (the spec parser
/// rejects duplicated axis values), filesystem-safe for registry-style
/// keys. Cells without a board/domain axis keep the historical id, so
/// pre-refactor logdirs still resume.
std::string cell_id(const std::string& scenario, std::uint32_t rate,
                    const std::string& board, const std::string& domain) {
  std::string id = scenario + "_r" + std::to_string(rate);
  if (!board.empty()) id += "_" + board;
  if (!domain.empty()) id += "_" + domain;
  return id;
}

template <typename T>
bool has_duplicates(std::vector<T> values) {
  std::sort(values.begin(), values.end());
  return std::adjacent_find(values.begin(), values.end()) != values.end();
}

/// Grid-level validation shared by the spec parser and expand(): a spec
/// assembled from CLI flags must obey the same rules as a parsed one —
/// in particular no duplicated axis values, which would alias cell ids
/// (and therefore log files), making resume report one cell's data as
/// another's.
util::Status validate_grid(const SweepSpec& spec) {
  if (spec.scenarios.empty()) {
    return util::invalid_argument("sweep spec names no scenario");
  }
  if (spec.rates.empty()) {
    return util::invalid_argument("sweep spec names no rate");
  }
  if (spec.runs == 0) {
    return util::invalid_argument("sweep needs runs ≥ 1");
  }
  for (const std::uint32_t rate : spec.rates) {
    if (rate == 0) return util::invalid_argument("sweep rate must be ≥ 1");
  }
  if (has_duplicates(spec.scenarios)) {
    return util::invalid_argument("duplicate scenario in sweep spec");
  }
  if (has_duplicates(spec.rates)) {
    return util::invalid_argument("duplicate rate in sweep spec");
  }
  if (has_duplicates(spec.boards)) {
    return util::invalid_argument("duplicate board in sweep spec");
  }
  if (has_duplicates(spec.domains)) {
    return util::invalid_argument("duplicate domain in sweep spec");
  }
  return util::ok_status();
}

}  // namespace

std::string plan_fingerprint(const TestPlan& plan) {
  std::string tuning = plan.cell_tuning;
  std::replace(tuning.begin(), tuning.end(), '\n', ';');
  std::ostringstream out;
  out << "scenario " << plan.scenario << "\n"
      << "board " << plan.board << "\n"
      << "target " << static_cast<int>(plan.target) << "\n"
      << "fault " << static_cast<int>(plan.fault) << "\n"
      << "fault_registers";
  for (const arch::Reg reg : plan.fault_registers) {
    out << ' ' << static_cast<int>(reg);
  }
  out << "\n"
      << "fault_count " << plan.fault_count << "\n"
      << "rate " << plan.rate << "\n"
      << "phase " << plan.phase << "\n"
      << "cpu_filter " << plan.cpu_filter << "\n"
      << "duration " << plan.duration_ticks << "\n"
      << "runs " << plan.runs << "\n"
      << "seed " << plan.seed << "\n"
      << "inject_during_boot " << (plan.inject_during_boot ? 1 : 0) << "\n"
      << "tuning " << tuning << "\n";
  // Appended (not inline above) and only for non-register plans: a
  // register-domain plan's fingerprint is byte-identical to the
  // pre-refactor format, so existing logdirs resume instead of
  // re-executing.
  if (plan.fault_domain != FaultDomain::Register) {
    out << "domain " << fault_domain_name(plan.fault_domain) << "\n";
  }
  return out.str();
}

std::string cell_meta_path(const std::string& log_path) {
  return log_path + ".meta";
}

util::Status write_text_atomic(const std::string& path, std::string_view text,
                               const std::string& tag) {
  const std::string effective_tag =
      tag.empty() ? std::to_string(static_cast<long>(::getpid())) : tag;
  const std::string tmp = path + "." + effective_tag + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    out << text;
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return util::Status(util::Code::EIo, "cannot write '" + tmp + "'");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return util::Status(util::Code::EIo, "cannot rename '" + tmp + "' to '" +
                                             path + "': " + ec.message());
  }
  return util::ok_status();
}

bool cell_log_complete(const TestPlan& plan, const std::string& log_path,
                       analysis::CampaignAggregate& aggregate) {
  // The sidecar fingerprint ties the log to the exact plan that wrote
  // it. Absent (interrupted before completion) or mismatched (the
  // logdir was reused with a different spec) → the log is not this
  // cell's data, however complete it looks.
  {
    const auto meta = util::read_file(cell_meta_path(log_path));
    if (!meta.is_ok() || meta.value() != plan_fingerprint(plan)) return false;
  }

  // One zero-copy pass: the log is mapped, scanned in place and folded
  // straight into the aggregate. (The historical path slurped the file
  // into a stringstream and copied it out again before parsing — two
  // full copies per cell, per resume attempt.)
  const auto mapped = util::MappedFile::open(log_path);
  if (!mapped.is_ok()) return false;
  const analysis::RunLogScan scan = analysis::scan_run_log(mapped.value().view());

  // Complete ⇔ every run index 0..runs-1 exactly once, in order, and not
  // a single malformed line — anything else (truncated tail from an
  // interrupt, foreign content) re-executes the cell from scratch.
  if (scan.malformed_lines != 0) return false;
  if (scan.entries != plan.runs) return false;
  if (!scan.indices_sequential) return false;
  aggregate = scan.aggregate;
  return true;
}

namespace {

/// One cell's run log on its way to disk, the one commit sequence that
/// execute_cell and SweepDriver::execute share: open() drops the stale
/// fingerprint and opens `<log_path>.<tag>.tmp`; record() streams runs
/// through an order-restoring LogSink; commit() flushes, renames the log
/// into place and only then writes the fingerprint, temp + rename too. An
/// interruption anywhere leaves no fingerprint, so the next invocation
/// re-executes the cell; a log that never commits takes its temp file
/// with it. An empty `log_path` keeps the cell in memory: the sink
/// streams into a scratch buffer and nothing touches the disk.
class CellLog {
 public:
  CellLog(std::string log_path, const std::string& tag)
      : log_path_(std::move(log_path)),
        tag_(tag.empty() ? std::to_string(static_cast<long>(::getpid())) : tag),
        tmp_(log_path_ + "." + tag_ + ".tmp"),
        sink_(persist() ? static_cast<std::ostream&>(file_) : scratch_) {}

  CellLog(const CellLog&) = delete;
  CellLog& operator=(const CellLog&) = delete;

  ~CellLog() {
    if (file_.is_open()) {
      file_.close();
      std::error_code ec;
      std::filesystem::remove(tmp_, ec);
    }
  }

  [[nodiscard]] util::Status open() {
    if (!persist()) return util::ok_status();
    // A stale fingerprint must never outlive the log it described.
    std::error_code ec;
    std::filesystem::remove(cell_meta_path(log_path_), ec);
    file_.open(tmp_, std::ios::trunc);
    if (!file_) {
      return util::Status(util::Code::EIo, "cannot write cell log '" + tmp_ + "'");
    }
    return util::ok_status();
  }

  void record(std::uint32_t index, const RunResult& run) { sink_.record(index, run); }

  /// Runs released to the log so far, in run order.
  [[nodiscard]] std::uint64_t records() const { return sink_.records(); }

  [[nodiscard]] util::Expected<analysis::CampaignAggregate> commit(
      const TestPlan& plan) {
    if (persist()) {
      sink_.flush();
      const bool written = static_cast<bool>(file_);
      file_.close();
      std::error_code ec;
      if (!written) {
        std::filesystem::remove(tmp_, ec);
        return util::Status(util::Code::EIo, "cannot write cell log '" + tmp_ + "'");
      }
      std::filesystem::rename(tmp_, log_path_, ec);
      if (ec) {
        const std::string why = ec.message();
        std::filesystem::remove(tmp_, ec);
        return util::Status(util::Code::EIo,
                            "cannot rename cell log '" + tmp_ + "': " + why);
      }
      const util::Status meta =
          write_text_atomic(cell_meta_path(log_path_), plan_fingerprint(plan), tag_);
      if (!meta.is_ok()) return meta;
    }
    return sink_.aggregate();
  }

 private:
  [[nodiscard]] bool persist() const { return !log_path_.empty(); }

  std::string log_path_;
  std::string tag_;
  std::string tmp_;
  std::ofstream file_;
  std::ostringstream scratch_;
  analysis::LogSink sink_;
};

}  // namespace

util::Expected<analysis::CampaignAggregate> execute_cell(
    const TestPlan& plan, const std::string& log_path,
    const ExecutorConfig& config, const std::string& tag,
    const std::function<void(std::uint32_t)>& per_run) {
  CellLog log(log_path, tag);
  const util::Status opened = log.open();
  if (!opened.is_ok()) return opened;
  CampaignExecutor executor(plan, config);
  executor.set_progress([&log, &per_run](std::uint32_t index, const RunResult& run) {
    log.record(index, run);
    if (per_run) per_run(index);
  });
  (void)executor.execute();  // every run already reached the log, in order
  return log.commit(plan);
}

std::string render_sweep_spec(const SweepSpec& spec) {
  std::ostringstream out;
  out << "sweep \"" << spec.name << "\"\n";
  out << "scenario";
  for (const std::string& scenario : spec.scenarios) out << ' ' << scenario;
  out << "\nrate";
  for (const std::uint32_t rate : spec.rates) out << ' ' << rate;
  out << "\n";
  if (!spec.boards.empty()) {
    out << "board";
    for (const std::string& board : spec.boards) out << ' ' << board;
    out << "\n";
  }
  if (!spec.domains.empty()) {
    out << "domain";
    for (const std::string& domain : spec.domains) out << ' ' << domain;
    out << "\n";
  }
  out << "runs " << spec.runs << "\n"
      << "seed " << spec.seed << "\n";
  if (spec.duration_ticks != 0) out << "duration " << spec.duration_ticks << "\n";
  if (!spec.cell_tuning.empty()) {
    std::string tuning = spec.cell_tuning;
    std::replace(tuning.begin(), tuning.end(), '\n', ';');
    out << "tuning " << tuning << "\n";
  }
  if (!spec.log_dir.empty()) out << "logdir " << spec.log_dir << "\n";
  return out.str();
}

util::Expected<SweepSpec> parse_sweep_spec(std::string_view text) {
  SweepSpec spec;
  int line_number = 0;
  const auto fail = [&line_number](const std::string& what) {
    return util::invalid_argument("line " + std::to_string(line_number) + ": " +
                                  what);
  };

  for (const std::string& raw_line : util::split(text, '\n')) {
    ++line_number;
    const std::string_view line = util::trim(raw_line);
    if (line.empty() || line.front() == '#') continue;

    const std::size_t space = line.find(' ');
    const std::string_view keyword = line.substr(0, space);
    const std::string_view rest =
        space == std::string_view::npos ? std::string_view{}
                                        : util::trim(line.substr(space + 1));

    if (keyword == "sweep") {
      // sweep "name" — quoted like the cell-config header.
      const std::size_t open = rest.find('"');
      const std::size_t close = rest.rfind('"');
      if (open == std::string_view::npos || close <= open) {
        return fail("sweep name must be quoted");
      }
      spec.name = std::string(rest.substr(open + 1, close - open - 1));
    } else if (keyword == "scenario" || keyword == "board" ||
               keyword == "domain") {
      if (rest.empty()) return fail(std::string(keyword) + " needs a key");
      auto& axis = keyword == "scenario" ? spec.scenarios
                   : keyword == "board"  ? spec.boards
                                         : spec.domains;
      for (const std::string& token : util::split(rest, ' ')) {
        if (!util::trim(token).empty()) {
          axis.emplace_back(util::trim(token));
        }
      }
    } else if (keyword == "rate") {
      if (rest.empty()) return fail("rate needs a value");
      for (const std::string& token : util::split(rest, ' ')) {
        if (util::trim(token).empty()) continue;
        auto value = jh::parse_config_number(util::trim(token));
        if (!value.is_ok() || value.value() == 0 ||
            value.value() > UINT32_MAX) {
          return fail("bad rate '" + token +
                      "' (need a call count from 1 to 4294967295)");
        }
        spec.rates.push_back(static_cast<std::uint32_t>(value.value()));
      }
    } else if (keyword == "runs") {
      auto value = jh::parse_config_number(rest);
      if (!value.is_ok() || value.value() == 0 || value.value() > UINT32_MAX) {
        return fail("bad runs count");
      }
      spec.runs = static_cast<std::uint32_t>(value.value());
    } else if (keyword == "seed") {
      auto value = jh::parse_config_number(rest);
      if (!value.is_ok()) return fail("bad seed");
      spec.seed = value.value();
    } else if (keyword == "duration") {
      auto value = jh::parse_config_number(rest);
      if (!value.is_ok() || value.value() == 0) return fail("bad duration");
      spec.duration_ticks = value.value();
    } else if (keyword == "tuning") {
      // The rest of the line is cell-tuning text, ';'-separated like the
      // fault_campaign CLI; multiple tuning lines accumulate.
      std::string tuning(rest);
      std::replace(tuning.begin(), tuning.end(), ';', '\n');
      if (!spec.cell_tuning.empty()) spec.cell_tuning += '\n';
      spec.cell_tuning += tuning;
    } else if (keyword == "logdir") {
      if (rest.empty()) return fail("logdir needs a path");
      spec.log_dir = std::string(rest);
    } else {
      return fail("unknown keyword '" + std::string(keyword) + "'");
    }
  }

  const util::Status valid = validate_grid(spec);
  if (!valid.is_ok()) return valid;
  return spec;
}

SweepDriver::SweepDriver(SweepSpec spec, ExecutorConfig config)
    : spec_(std::move(spec)), config_(config) {}

std::string SweepDriver::cell_log_path(const std::string& log_dir,
                                       const std::string& cell_id) {
  return (std::filesystem::path(log_dir) / (cell_id + ".runlog")).string();
}

util::Expected<std::vector<TestPlan>> SweepDriver::expand() const {
  // Specs can arrive without passing parse_sweep_spec (built from CLI
  // flags or code), so the grid rules are enforced here too.
  const util::Status valid = validate_grid(spec_);
  if (!valid.is_ok()) return valid;

  // No board/domain axis → one pass with the scenario/tuning default.
  const std::vector<std::string> boards =
      spec_.boards.empty() ? std::vector<std::string>{""} : spec_.boards;
  const std::vector<std::string> domains =
      spec_.domains.empty() ? std::vector<std::string>{""} : spec_.domains;

  ScenarioRegistry& registry = ScenarioRegistry::instance();
  std::vector<TestPlan> plans;
  plans.reserve(spec_.cell_count());
  // One serial seed expansion over the full grid, in grid order: a cell's
  // seed depends only on its grid position, never on which cells execute.
  util::SplitMix64 seeder(spec_.seed);
  for (const std::string& scenario : spec_.scenarios) {
    for (const std::uint32_t rate : spec_.rates) {
      for (const std::string& board : boards) {
        for (const std::string& domain : domains) {
          ScenarioRegistry::MakeOptions options;
          options.cell_tuning = spec_.cell_tuning;
          if (!board.empty()) {
            // The board axis rides the tuning vocabulary; appended last
            // so it overrides any `board` line in the shared tuning.
            if (!options.cell_tuning.empty()) options.cell_tuning += '\n';
            options.cell_tuning += "board " + board;
          }
          if (!domain.empty()) {
            // The fault-domain axis rides the same vocabulary.
            if (!options.cell_tuning.empty()) options.cell_tuning += '\n';
            options.cell_tuning += "fault domain " + domain;
          }
          auto made = registry.make(scenario, options);
          if (!made.is_ok()) {
            return util::invalid_argument(
                "cell " + cell_id(scenario, rate, board, domain) + ": " +
                made.status().message());
          }
          TestPlan plan = std::move(made).value();
          plan.name = cell_id(scenario, rate, board, domain);
          plan.rate = rate;
          plan.runs = spec_.runs;
          plan.seed = seeder.next();
          if (spec_.duration_ticks != 0) {
            plan.duration_ticks = spec_.duration_ticks;
          }
          plans.push_back(std::move(plan));
        }
      }
    }
  }
  return plans;
}

util::Expected<SweepResult> SweepDriver::execute() {
  auto plans = expand();
  if (!plans.is_ok()) return plans.status();

  const bool persist = !spec_.log_dir.empty();
  if (persist) {
    std::error_code ec;
    std::filesystem::create_directories(spec_.log_dir, ec);
    if (ec) {
      return util::Status(util::Code::EIo, "cannot create sweep log dir '" +
                                               spec_.log_dir + "': " +
                                               ec.message());
    }
  }

  std::vector<TestPlan>& grid = plans.value();

  // Resume pre-scan. Rebuilding a completed cell from its persisted log
  // is a pure read — mmap + one zero-copy scan, no shared state — so a
  // cold start over a populated logdir validates cells on the pool. Only
  // the *scan* is parallel: the fold below stays in grid order, so the
  // report is byte-identical for any thread count (the resume suite
  // asserts it).
  std::vector<char> done(grid.size(), 0);
  std::vector<analysis::CampaignAggregate> recovered(grid.size());
  if (persist) {
    util::ThreadPool pool(config_.threads);
    std::atomic<std::size_t> next{0};
    for (unsigned t = 0; t < pool.size(); ++t) {
      pool.submit([&] {
        for (std::size_t i = next.fetch_add(1); i < grid.size(); i = next.fetch_add(1)) {
          const std::string path = cell_log_path(spec_.log_dir, grid[i].name);
          if (cell_log_complete(grid[i], path, recovered[i])) {
            done[i] = 1;
            util::LogPipeCounters::instance().record_resumed_cell();
          }
        }
      });
    }
    pool.wait_idle();
  }

  SweepResult result;
  result.spec = spec_;
  result.cells.resize(grid.size());
  std::vector<std::unique_ptr<CampaignExecutor>> executors;
  std::vector<const CampaignExecutor*> queued;
  std::vector<std::size_t> cell_of;  // queue position → grid index
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SweepCellResult& cell = result.cells[i];
    cell.id = grid[i].name;
    cell.plan = std::move(grid[i]);
    if (persist) cell.log_path = cell_log_path(spec_.log_dir, cell.id);
    if (done[i] != 0) {
      cell.aggregate = recovered[i];
      cell.resumed = true;
      ++result.resumed;
    } else {
      executors.push_back(std::make_unique<CampaignExecutor>(cell.plan, config_));
      queued.push_back(executors.back().get());
      cell_of.push_back(i);
      ++result.executed;
    }
  }

  // Fold every cell that is done and has no unfinished cell before it.
  std::size_t folded = 0;
  const auto fold_done_prefix = [&] {
    for (; folded < result.cells.size() && done[folded] != 0; ++folded) {
      result.total.merge(result.cells[folded].aggregate);
      if (cell_progress_) cell_progress_(result.cells[folded]);
    }
  };
  fold_done_prefix();

  // Every unresumed cell's runs go to one queue. A cell's log opens with
  // its first result and commits with its last, so open files stay
  // bounded by the cells in flight; the queue's result lock serialises
  // all of this.
  std::vector<std::unique_ptr<CellLog>> logs(queued.size());
  util::Status failure;
  RunQueue queue(queued, config_.threads);
  queue.execute([&](std::size_t k, std::uint32_t index, RunResult run) {
    if (!failure.is_ok()) return;
    SweepCellResult& cell = result.cells[cell_of[k]];
    const auto fail = [&](const util::Status& status) {
      failure = util::Status(status.code(), "cell " + cell.id + ": " + status.message());
      logs[k].reset();
      queue.stop();
    };
    if (logs[k] == nullptr) {
      logs[k] = std::make_unique<CellLog>(cell.log_path, "");
      if (const util::Status opened = logs[k]->open(); !opened.is_ok()) {
        fail(opened);
        return;
      }
    }
    logs[k]->record(index, run);
    if (logs[k]->records() < cell.plan.runs) return;
    auto committed = logs[k]->commit(cell.plan);
    if (!committed.is_ok()) {
      fail(committed.status());
      return;
    }
    logs[k].reset();
    cell.aggregate = std::move(committed).value();
    done[cell_of[k]] = 1;
    fold_done_prefix();
  });
  if (!failure.is_ok()) return failure;
  return result;
}

}  // namespace mcs::fi
