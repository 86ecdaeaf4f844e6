// CPU pause primitive and bounded exponential backoff.
//
// The paper's retry loops (every failed CAS/SC restarts the operation) are
// where contention melts throughput; a short bounded spin-then-yield backoff
// keeps the algorithms lock-free while taming the retry storm. Backoff is a
// tuning aid, not a correctness requirement — the conformance suite runs
// both paper rings with and without it.
//
// A ring's ContentionPolicy (core/ring_engine.hpp) is one of these waiters:
// the engine calls pause() once per retry round and nothing else. The
// combining facade's losers spin on a Backoff too; SCQ takes no policy.
#pragma once

#include <cstdint>
#include <thread>

#include "evq/common/config.hpp"

namespace evq {

/// Hint to the CPU that we are in a spin-wait loop.
EVQ_ALWAYS_INLINE void cpu_relax() noexcept {
#if EVQ_ARCH_X86_64
  __builtin_ia32_pause();
#else
  // Portable fallback: compiler barrier only.
  asm volatile("" ::: "memory");
#endif
}

/// Bounded exponential backoff: spins with cpu_relax() doubling each round up
/// to kSpinLimit iterations, then degrades to std::this_thread::yield() so an
/// oversubscribed loser donates its timeslice to the thread it is waiting out.
class Backoff {
 public:
  static constexpr std::uint32_t kInitialSpin = 4;
  static constexpr std::uint32_t kSpinLimit = 1024;

  /// Performs one backoff round. Each call waits roughly twice as long as the
  /// previous one until the spin limit is reached, after which it yields.
  void pause() noexcept {
    if (spin_ <= kSpinLimit) {
      for (std::uint32_t i = 0; i < spin_; ++i) {
        cpu_relax();
      }
      spin_ *= 2;
    } else {
      std::this_thread::yield();
    }
  }

  /// True once pause() has escalated past pure spinning.
  [[nodiscard]] bool is_yielding() const noexcept { return spin_ > kSpinLimit; }

  /// Resets to the initial (shortest) wait.
  void reset() noexcept { spin_ = kInitialSpin; }

 private:
  std::uint32_t spin_ = kInitialSpin;
};

/// A no-op drop-in for Backoff, used to measure raw retry-storm behaviour.
class NullBackoff {
 public:
  void pause() noexcept {}
  [[nodiscard]] bool is_yielding() const noexcept { return false; }
  void reset() noexcept {}
};

/// ContentionPolicy names used by the ring engine (core/ring_engine.hpp):
/// NoBackoff is the paper-faithful default (the published loops retry
/// immediately); ExpBackoff is the opt-in spin-then-yield policy priced by
/// bench_backoff.
using NoBackoff = NullBackoff;
using ExpBackoff = Backoff;

}  // namespace evq
