#pragma once

#include <atomic>

#include "util/layout.hpp"
#include "util/sync_policy.hpp"

namespace cab::util {

/// Test-and-test-and-set spin lock with exponential backoff.
///
/// Used for the inter-socket task pools: the paper's protocol funnels all
/// inter-socket pool traffic through squad head workers precisely so that a
/// simple lock suffices; contention is M-way at most.
/// Satisfies Lockable, so it works with std::lock_guard / std::unique_lock.
///
/// Templated on the Sync policy (util/sync_policy.hpp) so the identical
/// acquire/release protocol is exhaustively checked under `chk::atomic` in
/// tests/test_model_check.cpp; `SpinLock` is the production instantiation.
template <typename Sync = RealSync>
class BasicSpinLock {
 public:
  BasicSpinLock() = default;
  BasicSpinLock(const BasicSpinLock&) = delete;
  BasicSpinLock& operator=(const BasicSpinLock&) = delete;

  void lock() noexcept {
    int spins = 1;
    for (;;) {
      // mo: exchange(acquire) — the winning probe is the lock acquisition;
      // pairs with the release store in unlock() so the previous critical
      // section happens-before this one.
      if (!flag_.exchange(true, std::memory_order_acquire)) return;
      // Spin read-only until the lock looks free, with capped backoff.
      // mo: relaxed — the probe loop decides nothing; the next exchange
      // re-synchronizes.
      while (flag_.load(std::memory_order_relaxed)) {
        Sync::spin_pause(spins);
      }
    }
  }

  bool try_lock() noexcept {
    // mo: relaxed pre-check + exchange(acquire), same pairing as lock().
    return !flag_.load(std::memory_order_relaxed) &&
           !flag_.exchange(true, std::memory_order_acquire);
  }

  void unlock() noexcept {
    // mo: release — publishes the critical section to the next acquirer.
    flag_.store(false, std::memory_order_release);
  }

 private:
  // pad-ok: the lock is embedded in its owner (LockedDeque pads around the
  // pair as a unit); padding every lock instance would bloat per-frame state.
  typename Sync::template atomic_t<bool> flag_{false};
};

using SpinLock = BasicSpinLock<RealSync>;

static_assert(layout::one_line_anywhere<SpinLock>(),
              "hot-straddle: SpinLock must fit one line in any host");

}  // namespace cab::util
