// Always-on per-queue metrics: cacheline-sharded relaxed counters.
//
// The bench harness's op_stats are opt-in per thread and vanish when the run
// ends; a production queue needs counters that are ALWAYS live and readable
// from outside the operating threads ("which queue is saturated, how many
// help-advances per second?"). QueueMetrics provides that at a hot-path cost
// of ONE relaxed fetch_add on a thread-striped cell:
//
//  * Striping: counters live in kStripes cacheline-aligned stripes and each
//    thread increments the stripe picked by its (process-wide) thread
//    ordinal, so concurrent writers on different cores do not ping-pong a
//    shared line. Reading sums the stripes.
//  * Ordering: increments and reads are memory_order_relaxed. Each cell is a
//    monotone event counter with no inter-counter invariant a reader could
//    rely on, so a snapshot only promises per-counter values that were each
//    current at SOME instant during the read — exactly the guarantee an
//    exporter scrape needs, and the weakest (cheapest) one the hardware
//    offers. No queue synchronization decision ever reads these counters.
//  * Compile-out: building with -DEVQ_TELEMETRY=0 (CMake option
//    EVQ_TELEMETRY=OFF) turns inc() into a no-op while keeping every API
//    compiling, so instrumented code needs no #ifdefs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "evq/common/cacheline.hpp"
#include "evq/common/config.hpp"
#include "evq/common/thread_block.hpp"

#if !defined(EVQ_TELEMETRY)
#define EVQ_TELEMETRY 1
#endif

namespace evq::telemetry {

/// Event taxonomy, uniform across every queue family (DESIGN.md
/// "Observability"). Array queues use the push/pop/slot/help/backoff rows;
/// the reclamation layers use the hp/pool/epoch rows; a queue simply never
/// increments rows that do not apply to it.
enum class Counter : std::uint8_t {
  kPushOk = 0,      // try_push returned true
  kPushFull,        // try_push observed FULL_QUEUE
  kPopOk,           // try_pop returned a value
  kPopEmpty,        // try_pop observed EMPTY_QUEUE
  kSlotScFail,      // slot commit (SC or its CAS stand-in) failed
  kHelpAdvance,     // lagging Head/Tail advanced on a peer's behalf
  kBackoffRound,    // one retry round (a ring engine pauses its ContentionPolicy)
  kHpScan,          // hazard-pointer scan pass
  kHpRetired,       // node handed to an HP domain's retired list
  kHpFreed,         // node reclaimed by an HP scan
  kPoolHit,         // FreePool::take() returned a recycled node
  kPoolMiss,        // FreePool::make() heap-allocated a fresh node
  kEpochRetired,    // node retired into an epoch bucket
  kEpochAdvance,    // successful global-epoch advance
  kFaaReserve,      // FAA-generation ticket claimed (SCQ head/tail fetch_add)
  kSlotSkip,        // SCQ entry skipped: cycle bumped past or marked unsafe
  kSegSeal,         // segment sealed (CLOSED bit set on a ring's tail)
  kSegAlloc,        // fresh segment appended to a segmented queue
  kSegRetire,       // drained segment unlinked and handed to reclamation
  kCombSubmit,      // op published into a combining-queue announce record
  kCombCombine,     // combiner lock acquired and a combining pass executed
  kCombBatchN,      // ops applied by combiners (sum; / comb_combine = batch)
};

inline constexpr std::size_t kCounterCount = 22;

/// Stable short name ("push_ok", ...): the `op` label of the Prometheus
/// exporter and the key of the JSON telemetry section.
const char* counter_name(Counter c) noexcept;

/// A point-in-time copy of one queue's counters (plain integers: compare,
/// diff and serialize without touching the live atomics).
struct CounterSnapshot {
  std::uint64_t counts[kCounterCount] = {};

  std::uint64_t& operator[](Counter c) noexcept {
    return counts[static_cast<std::size_t>(c)];
  }
  std::uint64_t operator[](Counter c) const noexcept {
    return counts[static_cast<std::size_t>(c)];
  }

  CounterSnapshot& operator+=(const CounterSnapshot& other) noexcept {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      counts[i] += other.counts[i];
    }
    return *this;
  }

  [[nodiscard]] bool any() const noexcept {
    for (std::uint64_t v : counts) {
      if (v != 0) {
        return true;
      }
    }
    return false;
  }
};

/// after - before, per counter. Counters are monotone, so this is the event
/// count of the interval between the two snapshots of one queue.
CounterSnapshot counter_delta(const CounterSnapshot& before,
                              const CounterSnapshot& after) noexcept;

namespace detail {
/// Cold half of stripe_ordinal(): hands this thread the next process-wide
/// ordinal (telemetry.cpp).
EVQ_COLD std::uint32_t assign_stripe() noexcept;
/// This thread's ordinal, cached in the per-thread block
/// (common/thread_block.hpp).
EVQ_ALWAYS_INLINE std::uint32_t stripe_ordinal() noexcept {
  const std::uint32_t s = evq::detail::t_block.stripe;
  return EVQ_LIKELY(s != evq::detail::kStripeUnassigned) ? s : assign_stripe();
}
}  // namespace detail

/// The per-queue counter block. Not copyable/movable (live atomics, and
/// registry entries hand out stable pointers to it).
class QueueMetrics {
 public:
  static constexpr std::size_t kStripes = 8;  // power of two

  QueueMetrics() = default;
  QueueMetrics(const QueueMetrics&) = delete;
  QueueMetrics& operator=(const QueueMetrics&) = delete;

  /// The hot-path hook: one relaxed increment on this thread's stripe.
  ///
  /// Deliberately a relaxed load+store, NOT fetch_add: the lock prefix of an
  /// uncontended RMW costs ~20ns — an order of magnitude more than the whole
  /// queue operation budget the <1% overhead target allows (see DESIGN.md
  /// §10). The store is exact as long as no two live threads share a stripe:
  /// ordinals are handed out consecutively, so a batch of up to kStripes
  /// worker threads (the torture/bench shape) lands on distinct stripes.
  /// When more threads collide on a stripe, a concurrent pair can drop an
  /// increment — counters are monotone rate signals, and that trade buys
  /// the always-on property.
  /// Both accesses stay atomic, so racy readers/writers are TSan-clean.
  EVQ_ALWAYS_INLINE void inc(Counter c, std::uint64_t n = 1) noexcept {
#if EVQ_TELEMETRY
    std::atomic<std::uint64_t>& cell = stripes_[detail::stripe_ordinal() & (kStripes - 1)]
                                           .cells[static_cast<std::size_t>(c)];
    cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
#else
    (void)c;
    (void)n;
#endif
  }

  /// Sum of one counter across stripes (relaxed; see header comment).
  [[nodiscard]] std::uint64_t value(Counter c) const noexcept {
    std::uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.cells[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
    }
    return total;
  }

  [[nodiscard]] CounterSnapshot snapshot() const noexcept {
    CounterSnapshot snap;
    for (const Stripe& stripe : stripes_) {
      for (std::size_t i = 0; i < kCounterCount; ++i) {
        snap.counts[i] += stripe.cells[i].load(std::memory_order_relaxed);
      }
    }
    return snap;
  }

 private:
  struct alignas(kCacheLineSize) Stripe {
    std::atomic<std::uint64_t> cells[kCounterCount] = {};
  };

  Stripe stripes_[kStripes] = {};
};

}  // namespace evq::telemetry
