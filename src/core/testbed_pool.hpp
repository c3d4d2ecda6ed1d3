// TestbedPool: long-lived (board, testbed) slots reused across campaign
// runs.
//
// The paper's outer loop provisions a fresh target per experiment; real
// fault-injection tooling amortises that by *resetting* the target
// instead of re-provisioning it. The pool is that amortisation for the
// campaign executor's run queue: each worker thread holds one slot at a
// time, keeps it while its runs share the slot's key, and restores it
// between runs — its rewind point, or its power-on snapshot
// (Testbed::reset) — with bit-identical results (the snapshot-equivalence
// suite pins pooled == fresh construction on every scenario × board ×
// thread count) and zero steady-state heap allocations (asserted via
// util::AllocationObserver).
//
// Slots are keyed by (board_name, tuning text) even though reset()
// restores power-on state regardless of the previous occupant — the key
// keeps a slot's arena warm for one shape of campaign instead of
// ping-ponging page working sets between differently tuned cells. The
// executor passes only the tuning fields that reach the machine (RAM
// size, console kind), so the fault domain no longer splits slots: the
// domain cells of a sweep share one slot, and with it the slot's rewind
// point.
//
// Memory: idle slots are capped at kMaxIdlePerKey per key (releases
// beyond the cap destroy the testbed instead of parking it), so a key's
// footprint is bounded by its peak concurrent workers. Slots for keys a
// sweep never revisits do persist until process exit — a grid over many
// distinct tunings pays one warm slot set per distinct key; clear()
// reclaims them all.
//
// Thread-safety: acquire/release take one mutex each; a checked-out slot
// is owned exclusively by its lease, so the steady-state per-run path
// (restore + run) is lock-free. Leases from many executors may share the
// process-wide pool concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/testbed.hpp"
#include "platform/board_registry.hpp"

namespace mcs::fi {

class TestbedPool;

/// Exclusive ownership of one pooled testbed; returns the slot to the
/// pool on destruction. Default-constructed leases are empty (get() ==
/// nullptr): the executor leases none for campaigns that can only
/// produce HarnessErrors.
class TestbedLease {
 public:
  TestbedLease() = default;
  ~TestbedLease();

  TestbedLease(TestbedLease&& other) noexcept;
  TestbedLease& operator=(TestbedLease&& other) noexcept;
  TestbedLease(const TestbedLease&) = delete;
  TestbedLease& operator=(const TestbedLease&) = delete;

  [[nodiscard]] Testbed* get() const noexcept { return testbed_.get(); }
  explicit operator bool() const noexcept { return testbed_ != nullptr; }

  /// Return the slot to the pool now (idempotent).
  void release();

 private:
  friend class TestbedPool;
  TestbedLease(TestbedPool* pool, std::string key,
               std::unique_ptr<Testbed> testbed) noexcept
      : pool_(pool), key_(std::move(key)), testbed_(std::move(testbed)) {}

  TestbedPool* pool_ = nullptr;
  std::string key_;
  std::unique_ptr<Testbed> testbed_;
};

class TestbedPool {
 public:
  /// Idle slots retained per key; above the executor's ThreadPool clamp
  /// divided by anything realistic, below unbounded.
  static constexpr std::size_t kMaxIdlePerKey = 64;

  /// The process-wide pool the executor uses. Slots live until process
  /// exit (bounded by kMaxIdlePerKey × distinct keys).
  static TestbedPool& instance();

  TestbedPool() = default;
  TestbedPool(const TestbedPool&) = delete;
  TestbedPool& operator=(const TestbedPool&) = delete;

  /// Check a slot out for `(board_name, tuning_text)`: an idle slot when
  /// one exists, else a fresh testbed built from `entry`'s factory. The
  /// caller owns the slot until the lease dies. The testbed is handed out
  /// as-is (possibly dirty); the executor restores its rewind point or
  /// power-on state before every run, first run included.
  /// `extra_key` extends the slot key (the executor passes scenario +
  /// tick policy, so a parked slot's rewind point is one the next
  /// campaign that checks it out may share). Empty (the default) keeps
  /// the plain (board, tuning) keying.
  [[nodiscard]] TestbedLease acquire(
      const std::string& board_name, const std::string& tuning_text,
      const platform::BoardRegistry::Entry& entry,
      const std::string& extra_key = std::string());

  struct Stats {
    std::uint64_t acquires = 0;  ///< total checkouts
    std::uint64_t creates = 0;   ///< checkouts that built a new testbed
    std::uint64_t reuses = 0;    ///< checkouts served from an idle slot
    std::size_t idle_slots = 0;  ///< slots currently parked in the pool
    // Per-run provisioning counters (recorded lock-free by the executor).
    std::uint64_t run_resets = 0;      ///< runs provisioned by power-on + boot
    std::uint64_t run_restores = 0;    ///< runs resumed from a rewind point
    std::uint64_t captures = 0;        ///< rewind points captured (≤ 2 per learning run)
    std::uint64_t snapshot_bytes = 0;  ///< DRAM payload bytes, last capture
    std::uint64_t dirty_pages = 0;     ///< dirty DRAM pages, last capture
    std::uint64_t ladder_captures = 0; ///< golden-suffix ladder rungs captured
    // Runs from a rewind point decided at an injecting call.
    std::uint64_t golden_results = 0;  ///< took the golden suffix's result
    std::uint64_t ladder_restores = 0; ///< jumped to the next ladder rung
    std::uint64_t panic_stops = 0;     ///< skipped a panicked machine's window
    // Guest-access fast-path activity summed over every executor run
    // (windowed per run via Testbed::access_counters deltas).
    std::uint64_t tlb_hits = 0;        ///< stage-2 TLB hits
    std::uint64_t tlb_misses = 0;      ///< stage-2 map walks
    std::uint64_t dram_fast_ops = 0;   ///< direct-map word accesses
    std::uint64_t dram_slow_ops = 0;   ///< bounds-checked slow accesses
  };
  [[nodiscard]] Stats stats() const;

  // Lock-free per-run counters for the executor's steady path.
  void record_reset() noexcept { run_resets_.fetch_add(1, std::memory_order_relaxed); }
  void record_restore() noexcept { run_restores_.fetch_add(1, std::memory_order_relaxed); }
  void record_golden_result() noexcept {
    golden_results_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_ladder_restore() noexcept {
    ladder_restores_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_ladder_capture() noexcept {
    ladder_captures_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_panic_stop() noexcept {
    panic_stops_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_capture(std::uint64_t bytes, std::uint64_t dirty_pages) noexcept {
    captures_.fetch_add(1, std::memory_order_relaxed);
    snapshot_bytes_.store(bytes, std::memory_order_relaxed);
    dirty_pages_.store(dirty_pages, std::memory_order_relaxed);
  }
  /// One run's guest-access activity window (after − before samples of
  /// Testbed::access_counters()); the executor calls this once per run.
  void record_access(const Testbed::AccessCounters& after,
                     const Testbed::AccessCounters& before) noexcept {
    tlb_hits_.fetch_add(after.tlb_hits - before.tlb_hits,
                        std::memory_order_relaxed);
    tlb_misses_.fetch_add(after.tlb_misses - before.tlb_misses,
                          std::memory_order_relaxed);
    dram_fast_ops_.fetch_add(after.dram_fast_ops - before.dram_fast_ops,
                             std::memory_order_relaxed);
    dram_slow_ops_.fetch_add(after.dram_slow_ops - before.dram_slow_ops,
                             std::memory_order_relaxed);
  }

  /// Destroy all idle slots (tests; checked-out slots are unaffected and
  /// will be re-parked on release).
  void clear();

 private:
  friend class TestbedLease;
  void release(std::string key, std::unique_ptr<Testbed> testbed);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::vector<std::unique_ptr<Testbed>>> idle_;
  std::uint64_t acquires_ = 0;
  std::uint64_t creates_ = 0;
  std::uint64_t reuses_ = 0;
  std::atomic<std::uint64_t> run_resets_{0};
  std::atomic<std::uint64_t> run_restores_{0};
  std::atomic<std::uint64_t> captures_{0};
  std::atomic<std::uint64_t> snapshot_bytes_{0};
  std::atomic<std::uint64_t> dirty_pages_{0};
  std::atomic<std::uint64_t> ladder_captures_{0};
  std::atomic<std::uint64_t> golden_results_{0};
  std::atomic<std::uint64_t> ladder_restores_{0};
  std::atomic<std::uint64_t> panic_stops_{0};
  std::atomic<std::uint64_t> tlb_hits_{0};
  std::atomic<std::uint64_t> tlb_misses_{0};
  std::atomic<std::uint64_t> dram_fast_ops_{0};
  std::atomic<std::uint64_t> dram_slow_ops_{0};
};

}  // namespace mcs::fi
