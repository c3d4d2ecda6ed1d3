// AllocationObserver: a test hook counting global operator-new calls.
//
// The testbed-reuse contract is "zero board/testbed heap allocations in
// steady state": after warm-up, checking a pooled testbed out and
// resetting it to power-on must not touch the general-purpose heap at
// all (arena rewinds, container clear()s that keep capacity, plain
// deallocations are all fine — new allocations are not). Asserting that
// needs an observable the allocator itself provides; this header's
// companion .cpp replaces the global operator new/delete with counting
// forwarders to malloc/free.
//
// The replacement is linked into a binary only when something in it
// references this interface (static-library pull-in), i.e. into the test
// suite — production binaries keep the stock allocator.
#pragma once

#include <cstdint>

namespace mcs::util {

class AllocationObserver {
 public:
  /// Global operator-new invocations (all forms) since process start.
  /// Monotonic; callers measure windows by differencing.
  [[nodiscard]] static std::uint64_t allocations() noexcept;

  /// Scoped window: allocations performed since construction.
  class Window {
   public:
    // Qualified: unqualified, the name finds Window::allocations(), which
    // reads start_ before it is initialised.
    Window() noexcept : start_(AllocationObserver::allocations()) {}
    [[nodiscard]] std::uint64_t allocations() const noexcept {
      return AllocationObserver::allocations() - start_;
    }

   private:
    std::uint64_t start_;
  };
};

}  // namespace mcs::util
