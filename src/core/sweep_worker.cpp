#include "core/sweep_worker.hpp"

#include <errno.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "util/mapped_file.hpp"
#include "util/strings.hpp"

namespace mcs::fi {

namespace {

namespace fs = std::filesystem;

std::string lease_body(const std::string& worker_id, long pid,
                       std::uint64_t heartbeats, std::uint64_t generation) {
  std::ostringstream out;
  out << "worker " << worker_id << "\n"
      << "pid " << pid << "\n"
      << "heartbeat " << heartbeats << "\n"
      << "generation " << generation << "\n";
  return out.str();
}

/// Write `body` to a fresh file at `path`; false (and no file) on error.
bool write_scratch(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc);
  out << body;
  out.flush();
  if (out) return true;
  std::error_code ec;
  fs::remove(path, ec);
  return false;
}

/// Seconds since the file's mtime, by the filesystem's own clock — the
/// only clock all workers on a shared filesystem can agree on. Negative
/// ages (skewed writer ahead of us) clamp to 0: a lease from the future
/// is at least as alive as a fresh one.
double age_of(const fs::path& path, std::error_code& ec) {
  const fs::file_time_type mtime = fs::last_write_time(path, ec);
  if (ec) return 0.0;
  const auto age = std::chrono::file_clock::now() - mtime;
  return std::max(0.0, std::chrono::duration<double>(age).count());
}

/// Remove every file a (now definitely dead) worker could have left in
/// the logdir: its cell leases, claim/steal scratch, and un-renamed
/// artifact temps. Safe because the caller has waitpid()ed the owner.
void remove_worker_litter(const std::string& log_dir,
                          const std::string& worker_id, long pid) {
  std::error_code ec;
  const std::string tmp_suffix = "." + worker_id + ".tmp";
  const std::string scratch_mark = "." + worker_id + "." + std::to_string(pid);
  for (fs::directory_iterator it(log_dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    const bool artifact_tmp = name.size() > tmp_suffix.size() &&
                              name.compare(name.size() - tmp_suffix.size(),
                                           tmp_suffix.size(),
                                           tmp_suffix) == 0;
    const bool scratch = name.find(scratch_mark) != std::string::npos;
    bool dead_lease = false;
    if (name.size() > 6 &&
        name.compare(name.size() - 6, 6, ".lease") == 0) {
      const auto info = CellLease::read(log_dir,
                                        name.substr(0, name.size() - 6));
      dead_lease = info && info->worker_id == worker_id && info->pid == pid;
    }
    if (artifact_tmp || scratch || dead_lease) {
      std::error_code remove_ec;
      fs::remove(it->path(), remove_ec);
    }
  }
}

}  // namespace

// --- CellLease ---------------------------------------------------------------

CellLease::CellLease(CellLease&& other) noexcept
    : path_(std::move(other.path_)),
      worker_id_(std::move(other.worker_id_)),
      pid_(other.pid_),
      heartbeats_(other.heartbeats_),
      generation_(other.generation_),
      stole_(other.stole_) {
  other.path_.clear();
}

CellLease& CellLease::operator=(CellLease&& other) noexcept {
  if (this != &other) {
    release();
    path_ = std::move(other.path_);
    worker_id_ = std::move(other.worker_id_);
    pid_ = other.pid_;
    heartbeats_ = other.heartbeats_;
    generation_ = other.generation_;
    stole_ = other.stole_;
    other.path_.clear();
  }
  return *this;
}

CellLease::~CellLease() { release(); }

std::string CellLease::lease_path(const std::string& log_dir,
                                  const std::string& cell_id) {
  return (fs::path(log_dir) / (cell_id + ".lease")).string();
}

std::optional<LeaseInfo> CellLease::read(const std::string& log_dir,
                                         const std::string& cell_id) {
  const std::string path = lease_path(log_dir, cell_id);
  std::error_code ec;
  const double age = age_of(path, ec);
  if (ec) return std::nullopt;
  const auto body = util::read_file(path);
  if (!body.is_ok()) return std::nullopt;

  LeaseInfo info;
  info.cell_id = cell_id;
  info.age_seconds = age;
  for (const std::string& raw : util::split(body.value(), '\n')) {
    const std::string_view line = util::trim(raw);
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos) continue;
    const std::string_view key = line.substr(0, space);
    const std::string value(util::trim(line.substr(space + 1)));
    if (key == "worker") {
      info.worker_id = value;
    } else if (key == "pid") {
      info.pid = std::strtol(value.c_str(), nullptr, 10);
    } else if (key == "heartbeat") {
      info.heartbeats = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "generation") {
      info.generation = std::strtoull(value.c_str(), nullptr, 10);
    }
  }
  return info;
}

util::Expected<CellLease> CellLease::try_claim(const std::string& log_dir,
                                               const std::string& cell_id,
                                               const std::string& worker_id,
                                               std::chrono::milliseconds ttl) {
  const std::string lease = lease_path(log_dir, cell_id);
  const long pid = static_cast<long>(::getpid());
  const std::string unique = "." + worker_id + "." + std::to_string(pid);
  const std::string tmp = lease + unique + ".claim";
  const auto claimed = [&](std::uint64_t generation, bool stole) {
    CellLease lease_held;
    lease_held.path_ = lease;
    lease_held.worker_id_ = worker_id;
    lease_held.pid_ = pid;
    lease_held.generation_ = generation;
    lease_held.stole_ = stole;
    return lease_held;
  };
  // Strictly younger than the TTL counts alive — so ttl == 0 makes any
  // existing lease stealable, as the header promises.
  const auto alive = [ttl](double age_seconds) {
    return age_seconds * 1000.0 < static_cast<double>(ttl.count());
  };

  // A few rounds: each failed claim either finds a live holder (EBusy)
  // or makes progress (a released/stolen lease vanishes or turns fresh);
  // the bound only guards against pathological claim/release churn.
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (!write_scratch(tmp, lease_body(worker_id, pid, 0, 0))) {
      return util::Status(util::Code::EIo,
                          "cannot write lease temp '" + tmp + "'");
    }
    // link(2), not O_CREAT|O_EXCL: atomic on POSIX shared filesystems
    // (historic NFS caveat), and exactly one claimer's link succeeds.
    const int linked = ::link(tmp.c_str(), lease.c_str());
    const int link_errno = errno;
    std::error_code ec;
    fs::remove(tmp, ec);
    if (linked == 0) return claimed(0, false);
    if (link_errno != EEXIST) {
      return util::Status(util::Code::EIo,
                          "cannot link lease '" + lease +
                              "': " + std::strerror(link_errno));
    }

    // Someone holds it. Alive (heartbeat within the TTL) → busy; a
    // vanished lease (released between our link and read) → retry.
    const std::optional<LeaseInfo> holder = read(log_dir, cell_id);
    if (!holder) continue;
    if (alive(holder->age_seconds)) {
      return util::busy("cell '" + cell_id + "' leased by worker '" +
                        holder->worker_id + "'");
    }

    // Stale. Stealing generation g means creating the successor name
    // `<cell>.lease.<g+1>` with link(2): of all stealers that judged
    // generation g stale, exactly one succeeds. The winner re-reads the
    // lease — another stealer may have replaced generation g before this
    // one judged it — and only a still-stale generation g is replaced,
    // atomically, by a lease of generation g+1. The successor name is
    // removed afterwards; a late stealer that recreates it finds the
    // lease moved on and backs off. A successor name older than the TTL
    // is a crashed stealer's and is cleared.
    const std::uint64_t generation = holder->generation + 1;
    const std::string successor = lease + "." + std::to_string(generation);
    if (!write_scratch(tmp, lease_body(worker_id, pid, 0, generation))) {
      return util::Status(util::Code::EIo,
                          "cannot write lease temp '" + tmp + "'");
    }
    if (::link(tmp.c_str(), successor.c_str()) != 0) {
      const int successor_errno = errno;
      fs::remove(tmp, ec);
      if (successor_errno != EEXIST) {
        return util::Status(util::Code::EIo,
                            "cannot link lease successor '" + successor +
                                "': " + std::strerror(successor_errno));
      }
      const double successor_age = age_of(successor, ec);
      if (!ec && !alive(successor_age)) {
        const std::string cleared = successor + unique + ".stale";
        fs::rename(successor, cleared, ec);
        if (!ec) fs::remove(cleared, ec);
      }
      continue;
    }
    const std::optional<LeaseInfo> now = read(log_dir, cell_id);
    const bool still_stale = now && now->generation == holder->generation &&
                             now->worker_id == holder->worker_id &&
                             now->pid == holder->pid && !alive(now->age_seconds);
    if (still_stale) fs::rename(tmp, lease, ec);
    const bool stole = still_stale && !ec;
    fs::remove(tmp, ec);
    fs::remove(successor, ec);
    if (stole) return claimed(generation, true);
  }
  return util::busy("cell '" + cell_id + "' lease contended");
}

bool CellLease::heartbeat() {
  if (!held()) return false;
  // Losing the lease (a peer judged us dead after a missed TTL) is not
  // an error to fight: ownership transferred, the peer is re-executing,
  // and the artifact renames make the duplicate harmless. Just stop
  // claiming to own it.
  const fs::path dir = fs::path(path_).parent_path();
  const std::string cell =
      fs::path(path_).filename().string();  // "<cell>.lease"
  const std::optional<LeaseInfo> current =
      read(dir.string(), cell.substr(0, cell.size() - 6));
  if (!current || current->worker_id != worker_id_ || current->pid != pid_) {
    path_.clear();
    return false;
  }
  ++heartbeats_;
  const util::Status wrote = write_text_atomic(
      path_, lease_body(worker_id_, pid_, heartbeats_, generation_),
      worker_id_ + ".hb");
  return wrote.is_ok();
}

void CellLease::release() {
  if (!held()) return;
  std::error_code ec;
  fs::remove(path_, ec);
  path_.clear();
}

void CellLease::abandon() noexcept { path_.clear(); }

// --- spec file ---------------------------------------------------------------

util::Status write_spec_file(const SweepSpec& spec) {
  if (spec.log_dir.empty()) {
    return util::invalid_argument("spec has no logdir to persist into");
  }
  std::error_code ec;
  fs::create_directories(spec.log_dir, ec);
  if (ec) {
    return util::Status(util::Code::EIo, "cannot create sweep log dir '" +
                                             spec.log_dir +
                                             "': " + ec.message());
  }
  return write_text_atomic(
      (fs::path(spec.log_dir) / kSweepSpecFileName).string(),
      render_sweep_spec(spec));
}

util::Expected<SweepSpec> read_spec_file(const std::string& log_dir) {
  const std::string path = (fs::path(log_dir) / kSweepSpecFileName).string();
  auto body = util::read_file(path);
  if (!body.is_ok()) {
    if (body.status().code() == util::Code::ENoEnt) {
      return util::not_found("no sweep spec at '" + path +
                             "' — was this logdir started by a sweep "
                             "coordinator?");
    }
    return util::Status(util::Code::EIo, "error reading '" + path + "'");
  }
  auto parsed = parse_sweep_spec(body.value());
  if (!parsed.is_ok()) return parsed.status();
  SweepSpec spec = std::move(parsed).value();
  // The joining host may mount the share at a different path; the
  // logdir it was told wins over the one the coordinator recorded.
  spec.log_dir = log_dir;
  return spec;
}

// --- SweepWorker -------------------------------------------------------------

SweepWorker::SweepWorker(SweepSpec spec, ExecutorConfig executor,
                         SweepWorkerConfig worker)
    : spec_(std::move(spec)), executor_(executor), worker_(std::move(worker)) {
  if (worker_.worker_id.empty()) {
    worker_.worker_id = "w" + std::to_string(static_cast<long>(::getpid()));
  }
}

util::Expected<SweepWorkerStats> SweepWorker::run() {
  if (spec_.log_dir.empty()) {
    return util::invalid_argument(
        "sweep worker needs a logdir to coordinate over");
  }
  SweepDriver driver(spec_, executor_);
  auto plans = driver.expand();
  if (!plans.is_ok()) return plans.status();

  std::error_code ec;
  std::filesystem::create_directories(spec_.log_dir, ec);
  if (ec) {
    return util::Status(util::Code::EIo, "cannot create sweep log dir '" +
                                             spec_.log_dir +
                                             "': " + ec.message());
  }

  struct Cell {
    TestPlan plan;
    std::string log_path;
    bool done = false;
  };
  std::vector<Cell> cells;
  cells.reserve(plans.value().size());
  for (TestPlan& plan : plans.value()) {
    Cell cell;
    cell.log_path = SweepDriver::cell_log_path(spec_.log_dir, plan.name);
    cell.plan = std::move(plan);
    cells.push_back(std::move(cell));
  }

  SweepWorkerStats stats;
  std::size_t done = 0;

  const auto report = [&](const Cell& cell,
                          analysis::CampaignAggregate aggregate,
                          bool executed_here, bool resumed) {
    if (!progress_) return;
    SweepCellResult result;
    result.id = cell.plan.name;
    result.plan = cell.plan;
    result.log_path = cell.log_path;
    result.aggregate = std::move(aggregate);
    result.resumed = resumed;
    SweepWorkerProgress event;
    event.cell = &result;
    event.executed_here = executed_here;
    event.cells_done = done;
    event.cells_total = cells.size();
    event.runs_executed_here = stats.runs_executed;
    progress_(event);
  };

  while (done < cells.size()) {
    bool advanced = false;

    for (Cell& cell : cells) {
      if (cell.done) continue;

      analysis::CampaignAggregate aggregate;
      if (cell_log_complete(cell.plan, cell.log_path, aggregate)) {
        cell.done = true;
        ++done;
        ++stats.observed;
        advanced = true;
        report(cell, std::move(aggregate), false, true);
        continue;
      }

      auto claim = CellLease::try_claim(spec_.log_dir, cell.plan.name,
                                        worker_.worker_id, worker_.lease_ttl);
      if (!claim.is_ok()) {
        if (claim.status().code() == util::Code::EBusy) continue;
        return claim.status();
      }
      CellLease lease = std::move(claim).value();
      if (lease.stole()) ++stats.stolen;

      // The previous holder may have committed the cell between our
      // completeness check and the claim (release happens after the
      // artifact renames) — never re-execute a complete cell.
      if (cell_log_complete(cell.plan, cell.log_path, aggregate)) {
        lease.release();
        cell.done = true;
        ++done;
        ++stats.observed;
        advanced = true;
        report(cell, std::move(aggregate), false, true);
        continue;
      }

      // Execute under the lease, heartbeating (throttled) per run so a
      // long cell on a live worker never looks dead.
      auto last_beat = std::chrono::steady_clock::now();
      const auto beat = [&](std::uint32_t) {
        const auto now = std::chrono::steady_clock::now();
        if (now - last_beat >= worker_.heartbeat_interval) {
          last_beat = now;
          (void)lease.heartbeat();
        }
      };
      auto executed = execute_cell(cell.plan, cell.log_path, executor_,
                                   worker_.worker_id, beat);
      if (!executed.is_ok()) return executed.status();  // lease released by RAII
      lease.release();

      cell.done = true;
      ++done;
      ++stats.executed;
      stats.runs_executed += cell.plan.runs;
      advanced = true;
      report(cell, std::move(executed).value(), true, false);
    }

    if (done == cells.size()) break;
    if (!advanced) {
      // Every remaining cell is leased by a live peer. Either wait for
      // them (stale leases become stealable as TTLs lapse), or leave
      // the stragglers to their holders.
      if (!worker_.wait_for_stragglers) break;
      std::this_thread::sleep_for(worker_.poll);
    }
  }

  return stats;
}

// --- distributed coordinator -------------------------------------------------

util::Expected<SweepResult> run_distributed_sweep(
    const SweepSpec& spec, const ExecutorConfig& executor,
    const DistributedSweepOptions& options) {
  if (spec.log_dir.empty()) {
    return util::invalid_argument(
        "distributed sweep needs a logdir (the coordination substrate)");
  }
  if (options.workers == 0) {
    return util::invalid_argument("distributed sweep needs ≥ 1 worker");
  }
  MCS_RETURN_IF_ERROR(write_spec_file(spec));

  const std::string prefix =
      options.worker.worker_id.empty() ? "w" : options.worker.worker_id;

  // Nothing buffered may cross fork(): a child that exits would flush a
  // duplicate copy of the parent's pending output.
  std::cout.flush();
  std::cerr.flush();
  ::fflush(nullptr);

  std::vector<std::pair<pid_t, std::string>> children;
  children.reserve(options.workers);
  for (unsigned k = 0; k < options.workers; ++k) {
    const std::string worker_id = prefix + std::to_string(k);
    const pid_t pid = ::fork();
    if (pid < 0) {
      if (children.empty()) {
        return util::Status(util::Code::EIo,
                            std::string("fork: ") + std::strerror(errno));
      }
      break;  // degraded but correct: fewer workers split the grid
    }
    if (pid == 0) {
#ifdef __linux__
      // Children are visibly "sweep-worker" processes (pkill -x
      // sweep-worker in the crash-tolerance smoke kills exactly one).
      ::prctl(PR_SET_NAME, "sweep-worker", 0, 0, 0);
#endif
      SweepWorkerConfig config = options.worker;
      config.worker_id = worker_id;
      SweepWorker worker(spec, executor, config);
      if (options.make_worker_progress) {
        worker.set_progress(options.make_worker_progress(worker_id));
      }
      const auto stats = worker.run();
      // _Exit: no atexit / static destructors in a forked child.
      std::_Exit(stats.is_ok() ? 0 : 3);
    }
    children.emplace_back(pid, worker_id);
  }

  for (const auto& [pid, worker_id] : children) {
    int wait_status = 0;
    (void)::waitpid(pid, &wait_status, 0);
  }
  // All children are reaped: anything they left — leases, claim scratch,
  // un-renamed artifact temps — is litter from a dead process.
  for (const auto& [pid, worker_id] : children) {
    remove_worker_litter(spec.log_dir, worker_id, static_cast<long>(pid));
  }

  // The backstop merge: resume every completed cell from its log and
  // re-execute whatever no worker finished (all children crashing is
  // just the degenerate case), then fold — byte-identical to the
  // single-process driver by construction.
  SweepDriver driver(spec, executor);
  return driver.execute();
}

}  // namespace mcs::fi
