#include "core/testbed_pool.hpp"

#include <utility>

namespace mcs::fi {

TestbedLease::~TestbedLease() { release(); }

TestbedLease::TestbedLease(TestbedLease&& other) noexcept
    : pool_(std::exchange(other.pool_, nullptr)),
      key_(std::move(other.key_)),
      testbed_(std::move(other.testbed_)) {}

TestbedLease& TestbedLease::operator=(TestbedLease&& other) noexcept {
  if (this != &other) {
    release();
    pool_ = std::exchange(other.pool_, nullptr);
    key_ = std::move(other.key_);
    testbed_ = std::move(other.testbed_);
  }
  return *this;
}

void TestbedLease::release() {
  if (pool_ != nullptr && testbed_ != nullptr) {
    pool_->release(std::move(key_), std::move(testbed_));
  }
  pool_ = nullptr;
  testbed_ = nullptr;
}

TestbedPool& TestbedPool::instance() {
  static TestbedPool pool;
  return pool;
}

TestbedLease TestbedPool::acquire(const std::string& board_name,
                                  const std::string& tuning_text,
                                  const platform::BoardRegistry::Entry& entry,
                                  const std::string& extra_key) {
  // '\x1f' (unit separator) cannot occur in a board key or tuning text,
  // so the compound key is unambiguous.
  std::string key = board_name + '\x1f' + tuning_text;
  if (!extra_key.empty()) {
    key += '\x1f';
    key += extra_key;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++acquires_;
    const auto it = idle_.find(key);
    if (it != idle_.end() && !it->second.empty()) {
      std::unique_ptr<Testbed> testbed = std::move(it->second.back());
      it->second.pop_back();
      ++reuses_;
      return TestbedLease(this, std::move(key), std::move(testbed));
    }
    ++creates_;
  }
  // Board/testbed construction happens outside the lock: misses are the
  // cold path, and factories may be arbitrarily expensive.
  auto testbed = std::make_unique<Testbed>(entry.factory());
  return TestbedLease(this, std::move(key), std::move(testbed));
}

void TestbedPool::release(std::string key, std::unique_ptr<Testbed> testbed) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::unique_ptr<Testbed>>& slots = idle_[std::move(key)];
    if (slots.size() < kMaxIdlePerKey) {
      slots.push_back(std::move(testbed));
      return;
    }
  }
  // Cap reached: destroy outside the lock (testbed teardown is not cheap).
  testbed.reset();
}

TestbedPool::Stats TestbedPool::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.acquires = acquires_;
  stats.creates = creates_;
  stats.reuses = reuses_;
  for (const auto& [key, slots] : idle_) stats.idle_slots += slots.size();
  stats.run_resets = run_resets_.load(std::memory_order_relaxed);
  stats.run_restores = run_restores_.load(std::memory_order_relaxed);
  stats.captures = captures_.load(std::memory_order_relaxed);
  stats.snapshot_bytes = snapshot_bytes_.load(std::memory_order_relaxed);
  stats.dirty_pages = dirty_pages_.load(std::memory_order_relaxed);
  stats.ladder_captures = ladder_captures_.load(std::memory_order_relaxed);
  stats.golden_results = golden_results_.load(std::memory_order_relaxed);
  stats.ladder_restores = ladder_restores_.load(std::memory_order_relaxed);
  stats.panic_stops = panic_stops_.load(std::memory_order_relaxed);
  stats.tlb_hits = tlb_hits_.load(std::memory_order_relaxed);
  stats.tlb_misses = tlb_misses_.load(std::memory_order_relaxed);
  stats.dram_fast_ops = dram_fast_ops_.load(std::memory_order_relaxed);
  stats.dram_slow_ops = dram_slow_ops_.load(std::memory_order_relaxed);
  return stats;
}

void TestbedPool::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  idle_.clear();
}

}  // namespace mcs::fi
