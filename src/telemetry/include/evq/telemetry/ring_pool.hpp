// The per-thread ring pool shared by the flight recorder (ThreadTrace) and
// the span tracer (trace::SpanRing).
//
// A thread attaches on its first record: it takes a ring from the free list
// (or a fresh one), gets the next thread ordinal, and the ring's pointer goes
// into the thread's slot of the per-thread block (common/thread_block.hpp).
// At thread exit the ring returns to the free list and is reused by a later
// thread, so memory is bounded by the peak thread count. Every ring ever
// created stays on the "all" list, so records of exited threads survive for
// post-mortem dumps and exports. The pool and its rings are leaked on
// purpose: dumps must work during process teardown (the torture watchdog
// dumps from a detached timeout thread).
//
// Everything here is cold (once per thread, or a dump). Like the rest of
// telemetry it includes no injectable headers.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "evq/common/config.hpp"
#include "evq/common/thread_block.hpp"

namespace evq::telemetry {

/// `Ring` provides assign_owner(ordinal) and, optionally, mark_exited();
/// `kSlot` is the per-thread block member that caches this thread's ring.
/// One pool per ring type, process-wide.
template <typename Ring, Ring* evq::detail::ThreadBlock::*kSlot>
class ThreadRingPool {
 public:
  /// Hands the calling thread its ring and caches it in the thread block.
  EVQ_COLD static Ring& attach() {
    ThreadRingPool& pool = global();
    std::lock_guard<std::mutex> lock(pool.mu_);
    Ring* r;
    if (!pool.free_.empty()) {
      r = pool.free_.back();
      pool.free_.pop_back();
    } else {
      r = new Ring();
      pool.all_.push_back(r);
    }
    r->assign_owner(pool.next_ordinal_++);
    t_owner.ring = r;
    evq::detail::t_block.*kSlot = r;
    return *r;
  }

  /// Every ring ever created, in attach order.
  [[nodiscard]] static std::vector<Ring*> rings() {
    ThreadRingPool& pool = global();
    std::lock_guard<std::mutex> lock(pool.mu_);
    return pool.all_;
  }

  // --- test seams ---
  /// Appends a fresh ring with the next ordinal without attaching it to any
  /// thread.
  static Ring& make_unattached() {
    ThreadRingPool& pool = global();
    std::lock_guard<std::mutex> lock(pool.mu_);
    Ring* r = new Ring();
    r->assign_owner(pool.next_ordinal_++);
    pool.all_.push_back(r);
    return *r;
  }

  /// Forgets every ring (they are leaked: exited threads' exit hooks may
  /// still hold them), restarts the ordinals and detaches the calling
  /// thread. Racing threads must have been joined.
  static void reset() {
    ThreadRingPool& pool = global();
    std::lock_guard<std::mutex> lock(pool.mu_);
    pool.all_.clear();
    pool.free_.clear();
    pool.next_ordinal_ = 0;
    t_owner.ring = nullptr;
    evq::detail::t_block.*kSlot = nullptr;
  }

 private:
  static ThreadRingPool& global() {
    static ThreadRingPool* pool = new ThreadRingPool();
    return *pool;
  }

  /// Thread-exit hook: returns the thread's ring to the free list; the ring
  /// and its records stay reachable through all_.
  struct Owner {
    Ring* ring = nullptr;
    ~Owner() {
      if (ring == nullptr) {
        return;
      }
      if constexpr (requires { ring->mark_exited(); }) {
        ring->mark_exited();
      }
      ThreadRingPool& pool = global();
      std::lock_guard<std::mutex> lock(pool.mu_);
      pool.free_.push_back(ring);
    }
  };
  static thread_local Owner t_owner;

  mutable std::mutex mu_;
  std::vector<Ring*> all_;   // every ring ever created, attach order
  std::vector<Ring*> free_;  // rings of exited threads, ready to reuse
  std::uint32_t next_ordinal_ = 0;
};

template <typename Ring, Ring* evq::detail::ThreadBlock::*kSlot>
thread_local typename ThreadRingPool<Ring, kSlot>::Owner ThreadRingPool<Ring, kSlot>::t_owner;

}  // namespace evq::telemetry
