// Unbounded FIFO queue from a linked list of sealable bounded rings — the
// LCRQ/LSCQ composition (Morrison-Afek PPoPP'13; Nikolaev arXiv:1908.04511)
// over this repository's ring generations, ROADMAP open item 2.
//
// A segment is one bounded ring (any SealableRing: the engine instantiations
// of ring_engine.hpp or the SCQ of scq_queue.hpp) plus a `next` link. The
// queue keeps head/tail segment pointers:
//
//   push: follow tail_ (chasing next links); try the ring; on FULL seal it
//         (ring.close() — the CLOSED tail bit makes the failure permanent),
//         pre-insert the node into a private fresh segment and CAS it onto
//         `next`; losing the race recycles the private segment and retries
//         on the winner's.
//   pop:  try head_'s ring; on ⊥ with a successor linked, seal (idempotent —
//         a linked successor implies the pusher already sealed) and probe
//         ONCE MORE (LSCQ's finalize-then-recheck: a pre-seal straggler may
//         have installed after the first ⊥); a second ⊥ is then FINAL, so
//         the segment is unlinked and retired.
//
// Why the second ⊥ is final: the seal freezes the ring's masked tail (engine
// rings: advance() is strict and stranded commits are reverted; SCQ: tickets
// carry the CLOSED bit and close() re-arms the dequeue threshold — LSCQ's
// `threshold := 3n-1` finalize — so the post-seal probe claims head tickets
// up to the frozen tail and invalidates every pre-seal straggler's entry),
// so a sealed ring that reports empty can never report anything else again.
//
// Reclamation: a retired segment may still be referenced by a stalled peer
// that protected it before it was unlinked, so segments go through a safe
// memory reclamation domain — a template parameter, like the MS baselines:
// HpSegmentDomain (hazard pointers, 2 slots, hand-over-hand) by default or
// EbrSegmentDomain (epoch pin per operation). The HP domain reclaims into a
// FreePool, so steady-state traffic that oscillates across a segment
// boundary reuses pooled segments instead of allocating — allocation-free
// once the pool is primed, and total memory is bounded by the historical
// maximum of live segments.
#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "evq/common/cacheline.hpp"
#include "evq/common/config.hpp"
#include "evq/common/op_stats.hpp"
#include "evq/core/queue_traits.hpp"
#include "evq/hazard/hp_domain.hpp"
#include "evq/inject/inject.hpp"
#include "evq/reclaim/epoch.hpp"
#include "evq/reclaim/free_pool.hpp"
#include "evq/telemetry/op_event.hpp"
#include "evq/telemetry/registry.hpp"
#include "evq/trace/trace.hpp"

namespace evq {

/// What a ring must provide to serve as a segment: the uniform pointer-queue
/// protocol plus the seal triple — close() (permanent push-side shutdown,
/// idempotent, returns whether this call sealed), closed(), and a quiescent
/// reopen() so the segment free pool can recycle it.
template <typename Q>
concept SealableRing = ConcurrentPtrQueue<Q> && requires(Q& q) {
  { q.close() } -> std::same_as<bool>;
  { q.closed() } -> std::same_as<bool>;
  { q.reopen() };
};

namespace seg_detail {

inline constexpr char kSegPushEnter[] = "core.seg.push.enter";
// After the tail segment is hazard-protected, before its ring is tried: a
// thread parked here across a seal+drain+retire of that segment is exactly
// the use-after-retire race the reclamation domain must absorb.
inline constexpr char kSegPushProtected[] = "core.seg.push.protected";
inline constexpr char kSegPushAppend[] = "core.seg.push.append";
inline constexpr char kSegPopEnter[] = "core.seg.pop.enter";
inline constexpr char kSegPopRetire[] = "core.seg.pop.retire";

/// One link of the chain. `free_next` is the FreePool hook (live only while
/// the segment is pooled); `next` is monotone null -> successor and is only
/// reset by reopen() on a pool-recycled, thread-private segment.
template <typename Ring>
struct Segment {
  Segment(std::size_t capacity, std::string_view name) : ring(capacity, name) {}

  Ring ring;
  std::atomic<Segment*> next{nullptr};
  Segment* free_next = nullptr;
};

}  // namespace seg_detail

/// Hazard-pointer segment reclamation (the default): 2 slots per record (the
/// hand-over-hand walks need both; queue operations use only slot 0),
/// retired segments routed through the domain's reclaimer (the segmented
/// queue supplies its free pool). Operations keep slot 0 published across
/// calls — the resident-slot fast path (protect_resident) makes the steady
/// path fence-free, at the price of each idle handle holding its last
/// segment on the retired list. A stalled reader blocks only the segments
/// it actually holds.
template <typename Node>
class HpSegmentDomain {
 public:
  using Rec = typename hazard::HpDomain<Node, 2>::Record;

  /// Retired nodes reach the reclaimer (here: the segment pool) instead of
  /// `delete`, so the segmented queue can recycle them.
  static constexpr bool kPoolable = true;

  explicit HpSegmentDomain(std::function<void(Node*)> reclaimer)
      : domain_(hazard::ScanMode::kUnsorted, /*threshold_multiplier=*/4, std::move(reclaimer)) {}

  [[nodiscard]] Rec* acquire() { return domain_.acquire(); }
  void release(Rec* rec) noexcept { domain_.release(rec); }

  /// Hazard pointers need no per-operation bracket. Unpin deliberately
  /// leaves the slots standing: slot 0 is the RESIDENT slot (see
  /// protect_resident — keeping it published is what makes the next
  /// operation's fast path sound), and queue operations never publish
  /// slot 1 (only the hand-over-hand walks do, and those release() their
  /// temporary record, which clears everything).
  void pin(Rec*) noexcept {}
  void unpin(Rec*) noexcept {}

  Node* protect(Rec* rec, std::size_t slot, const std::atomic<Node*>& src) noexcept {
    return domain_.protect(rec, slot, src);
  }

  /// Protect with a cross-operation cache (the LCRQ steady-path trick): when
  /// `slot` still holds exactly the pointer `src` currently carries, the
  /// seq_cst publish from the earlier protect never stopped standing, so the
  /// node was never reclaimed in between (a scan cannot free a published
  /// node, and pool reuse only happens after a free) — it is the same live
  /// object, still protected, and the fence-free fast path may return it.
  /// Only sound for a slot the caller keeps published across operations and
  /// only against sources of the owning queue.
  Node* protect_resident(Rec* rec, std::size_t slot, const std::atomic<Node*>& src) noexcept {
    Node* ptr = src.load(std::memory_order_acquire);
    if (rec->hp[slot].load(std::memory_order_relaxed) == ptr) {
      return ptr;
    }
    return domain_.protect(rec, slot, src);
  }

  void retire(Rec* rec, Node* node) { domain_.retire(rec, node); }

  void set_metrics(telemetry::QueueMetrics* metrics, std::uint32_t trace_queue) noexcept {
    domain_.set_metrics(metrics, trace_queue);
  }

  [[nodiscard]] hazard::HpDomain<Node, 2>& domain() noexcept { return domain_; }

 private:
  hazard::HpDomain<Node, 2> domain_;
};

/// Epoch-based segment reclamation: one pin per queue operation instead of a
/// protect loop per segment — cheaper walks, but a stalled pinned thread
/// stops ALL segment reclamation (EBR's documented weakness, here on
/// purpose: the segmented torture tests exercise exactly that trade-off).
/// EpochDomain frees with `delete`, so this domain cannot feed the segment
/// pool (kPoolable = false) and every appended segment is a fresh
/// allocation.
template <typename Node>
class EbrSegmentDomain {
 public:
  using Rec = typename reclaim::EpochDomain<Node>::Record;

  static constexpr bool kPoolable = false;

  explicit EbrSegmentDomain(std::function<void(Node*)> /*reclaimer*/) {}

  [[nodiscard]] Rec* acquire() { return domain_.acquire(); }
  void release(Rec* rec) noexcept { domain_.release(rec); }

  void pin(Rec* rec) noexcept { domain_.pin(rec); }
  void unpin(Rec* rec) noexcept { domain_.unpin(rec); }

  /// While pinned, any pointer reachable from the queue is safe to follow —
  /// a plain acquire load suffices (and "resident" caching is therefore
  /// already free).
  Node* protect(Rec*, std::size_t, const std::atomic<Node*>& src) noexcept {
    return src.load(std::memory_order_acquire);
  }
  Node* protect_resident(Rec*, std::size_t, const std::atomic<Node*>& src) noexcept {
    return src.load(std::memory_order_acquire);
  }

  void retire(Rec* rec, Node* node) { domain_.retire(rec, node); }

  void set_metrics(telemetry::QueueMetrics* metrics, std::uint32_t trace_queue) noexcept {
    domain_.set_metrics(metrics, trace_queue);
  }

  [[nodiscard]] reclaim::EpochDomain<Node>& domain() noexcept { return domain_; }

 private:
  reclaim::EpochDomain<Node> domain_;
};

/// The unbounded composition. `Ring` is a concrete sealable ring type (e.g.
/// CasArrayQueue<T> or ScqQueue<T>); the constructor's capacity argument is
/// the PER-SEGMENT capacity, and the queue as a whole has none — deliberately
/// no capacity() member, so the BoundedPtrQueue concept (and every gate built
/// on it: conformance full-checks, fuzz model capacity, sharded capacity
/// summing) classifies it as unbounded.
///
/// Telemetry: the facade registers under `name` (op outcomes, seg_seal/
/// seg_alloc/seg_retire, HP and pool rows, and a depth gauge that walks the
/// live chain); every segment ring registers under `name + "/seg"`, one
/// shared entry whose per-instance depth gauges the registry sums — the
/// facade gauge and the /seg entry's gauge agree by construction.
template <typename Ring, template <typename> typename DomainTmpl = HpSegmentDomain>
  requires SealableRing<Ring>
class SegmentedQueue {
 public:
  using value_type = typename Ring::value_type;
  using pointer = value_type*;
  using Seg = seg_detail::Segment<Ring>;
  using Domain = DomainTmpl<Seg>;
  using Rec = typename Domain::Rec;

  /// Per-thread reclamation record, RAII-held. Move-only; must not outlive
  /// the queue.
  class Handle {
   public:
    Handle(Handle&& other) noexcept : domain_(other.domain_), rec_(other.rec_) {
      other.domain_ = nullptr;
      other.rec_ = nullptr;
    }
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        reset();
        domain_ = other.domain_;
        rec_ = other.rec_;
        other.domain_ = nullptr;
        other.rec_ = nullptr;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { reset(); }

   private:
    friend class SegmentedQueue;
    explicit Handle(Domain& domain) : domain_(&domain), rec_(domain.acquire()) {}

    void reset() noexcept {
      if (domain_ != nullptr) {
        domain_->release(rec_);
        domain_ = nullptr;
        rec_ = nullptr;
      }
    }

    Domain* domain_;
    Rec* rec_;
  };

  /// `segment_capacity` sizes each ring (rounded up by the ring itself);
  /// the queue grows by whole segments past it.
  explicit SegmentedQueue(std::size_t segment_capacity, std::string_view name = "seg")
      : segment_capacity_(segment_capacity),
        seg_name_(std::string(name) + "/seg"),
        domain_(make_reclaimer()),
        telemetry_(name) {
    domain_.set_metrics(&telemetry_.metrics(), telemetry_.queue_id());
    pool_.set_metrics(&telemetry_.metrics(), telemetry_.queue_id());
    Seg* first = new Seg(segment_capacity_, seg_name_);
    head_.value.store(first, std::memory_order_relaxed);
    tail_.value.store(first, std::memory_order_relaxed);
    telemetry_.set_depth_gauge([this] { return depth_estimate(); });
  }

  SegmentedQueue(const SegmentedQueue&) = delete;
  SegmentedQueue& operator=(const SegmentedQueue&) = delete;

  /// Quiescent destruction: the live chain is deleted here; segments retired
  /// earlier are freed by the domain (into the pool, which the member order
  /// destroys last) or the epoch sweep.
  ~SegmentedQueue() {
    Seg* seg = head_.value.load(std::memory_order_acquire);
    while (seg != nullptr) {
      Seg* next = seg->next.load(std::memory_order_relaxed);
      delete seg;
      seg = next;
    }
  }

  [[nodiscard]] Handle handle() { return Handle{domain_}; }

  /// Never reports full: a full (or sealed) tail segment is sealed and a
  /// fresh segment appended. Returns false only on allocation failure, which
  /// `new` turns into an exception instead — i.e. never.
  bool try_push(Handle& h, value_type* node) {
    trace::OpProbe probe(telemetry_.queue_id());
    std::uint32_t retries = 0;
    EVQ_INJECT_POINT(seg_detail::kSegPushEnter);
    domain_.pin(h.rec_);
    for (;;) {
      probe.begin_phase(trace::Phase::kIndexLoad);
      // Slot 0 is the resident slot: on the steady path (same tail segment
      // as the previous operation) the standing publication makes this two
      // plain loads, no fence. The successor needs no hazard at all —
      // operations never dereference it; `next` links are monotone and the
      // value is only ever a CAS operand (help-swing below, head swing in
      // try_pop), so a stale read just makes that CAS fail.
      Seg* seg = domain_.protect_resident(h.rec_, 0, tail_.value);
      Seg* next = seg->next.load(std::memory_order_acquire);
      if (next != nullptr) {
        // tail_ lags a completed append — help it forward and re-resolve.
        const bool ok =
            tail_.value.compare_exchange_strong(seg, next, std::memory_order_seq_cst);
        stats::on_cas(ok);
        ++retries;
        continue;
      }
      EVQ_INJECT_POINT(seg_detail::kSegPushProtected);
      probe.begin_phase(trace::Phase::kSlotAttempt);
      {
        typename Ring::Handle rh = seg->ring.handle();
        if (seg->ring.try_push(rh, node)) {
          return finish_push(h, probe, retries);
        }
      }
      // Full or already sealed: seal (idempotent) and append. The node goes
      // into the fresh segment BEFORE the link CAS, so a won race publishes
      // node and segment atomically — the push linearizes at the CAS and
      // cannot fail.
      probe.begin_phase(trace::Phase::kSegAppend);
      if (seg->ring.close()) {
        telemetry_.metrics().inc(telemetry::Counter::kSegSeal);
      }
      Seg* fresh = alloc_segment();
      {
        typename Ring::Handle fh = fresh->ring.handle();
        const bool seeded = fresh->ring.try_push(fh, node);
        EVQ_CHECK(seeded, "fresh segment refused its first node");
      }
      EVQ_INJECT_POINT(seg_detail::kSegPushAppend);
      Seg* expected = nullptr;
      if (seg->next.compare_exchange_strong(expected, fresh, std::memory_order_seq_cst)) {
        stats::on_cas(true);
        telemetry_.metrics().inc(telemetry::Counter::kSegAlloc);
        const bool moved =
            tail_.value.compare_exchange_strong(seg, fresh, std::memory_order_seq_cst);
        stats::on_cas(moved);
        return finish_push(h, probe, retries);
      }
      stats::on_cas(false);
      // Lost the append race: reclaim our private segment (taking the node
      // back first) and retry through the winner's.
      {
        typename Ring::Handle fh = fresh->ring.handle();
        value_type* back = fresh->ring.try_pop(fh);
        EVQ_CHECK(back == node, "private segment lost its seed node");
      }
      recycle_private(fresh);
      const bool moved =
          tail_.value.compare_exchange_strong(seg, expected, std::memory_order_seq_cst);
      stats::on_cas(moved);
      telemetry::count_ring_event(telemetry_, telemetry::Counter::kBackoffRound);
      ++retries;
    }
  }

  /// nullptr iff the queue was empty at some instant during the call (only
  /// ever reported off the LAST segment — a drained sealed segment with a
  /// successor is unlinked and retired instead).
  value_type* try_pop(Handle& h) {
    trace::OpProbe probe(telemetry_.queue_id());
    std::uint32_t retries = 0;
    EVQ_INJECT_POINT(seg_detail::kSegPopEnter);
    domain_.pin(h.rec_);
    for (;;) {
      probe.begin_phase(trace::Phase::kIndexLoad);
      Seg* seg = domain_.protect_resident(h.rec_, 0, head_.value);
      probe.begin_phase(trace::Phase::kSlotAttempt);
      {
        typename Ring::Handle rh = seg->ring.handle();
        if (value_type* node = seg->ring.try_pop(rh)) {
          return finish_pop(h, probe, retries, node);
        }
      }
      // No hazard for the successor (same argument as try_push: never
      // dereferenced, only the desired value of the head-swing CAS, and a
      // successful CAS proves `seg` was still linked — so `next` was too).
      Seg* next = seg->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        domain_.unpin(h.rec_);
        telemetry::finish_op(telemetry_, probe, OpOutcome::kPopEmpty, 0, retries);
        return nullptr;
      }
      // LSCQ finalize-then-recheck: a linked successor implies the segment
      // is sealed (pushers seal before appending), but this close() is NOT
      // redundant — for SCQ segments it re-arms the dequeue threshold
      // (LSCQ's `threshold := 3n-1` store before every re-probe), making the
      // probe below full-strength: it claims head tickets up to the frozen
      // tail, so it either finds a pre-seal straggler's item or permanently
      // invalidates the straggler's entry. Only then is a second ⊥ final;
      // a fast-path ⊥ off a stale negative threshold would not advance Head
      // and could retire a segment a straggler later installs into.
      seg->ring.close();
      {
        typename Ring::Handle rh = seg->ring.handle();
        if (value_type* node = seg->ring.try_pop(rh)) {
          return finish_pop(h, probe, retries, node);
        }
      }
      probe.begin_phase(trace::Phase::kSegRetire);
      EVQ_INJECT_POINT(seg_detail::kSegPopRetire);
      if (head_.value.compare_exchange_strong(seg, next, std::memory_order_seq_cst)) {
        stats::on_cas(true);
        domain_.retire(h.rec_, seg);
        telemetry_.metrics().inc(telemetry::Counter::kSegRetire);
      } else {
        stats::on_cas(false);
      }
      telemetry::count_ring_event(telemetry_, telemetry::Counter::kBackoffRound);
      ++retries;
    }
  }

  std::size_t try_push_n(Handle& h, value_type* const* nodes, std::size_t count) {
    std::size_t done = 0;
    while (done < count && try_push(h, nodes[done])) {
      ++done;
    }
    return done;
  }

  std::size_t try_pop_n(Handle& h, value_type** out, std::size_t count) {
    std::size_t done = 0;
    while (done < count) {
      value_type* node = try_pop(h);
      if (node == nullptr) {
        break;
      }
      out[done++] = node;
    }
    return done;
  }

  /// Per-segment ring capacity. NOT capacity(): the queue is unbounded and
  /// must not satisfy BoundedPtrQueue.
  [[nodiscard]] std::size_t segment_capacity() const noexcept { return segment_capacity_; }

  /// Occupancy estimate across live segments (the sharded facade and the
  /// depth gauge both read this).
  [[nodiscard]] std::size_t size_estimate() { return static_cast<std::size_t>(depth_estimate()); }

  /// Live segments on the chain (head..tail inclusive; exact when
  /// quiescent). Bounded-memory checks are written against this.
  [[nodiscard]] std::size_t segment_count() {
    Rec* rec = domain_.acquire();
    domain_.pin(rec);
    std::size_t n = 0;
    std::size_t slot = 0;
    Seg* seg = domain_.protect(rec, slot, head_.value);
    while (seg != nullptr) {
      ++n;
      slot ^= 1;
      seg = domain_.protect(rec, slot, seg->next);
    }
    domain_.unpin(rec);
    domain_.release(rec);
    return n;
  }

  /// Sum of the live segments' size estimates (the facade depth gauge).
  [[nodiscard]] std::uint64_t depth_estimate() {
    Rec* rec = domain_.acquire();
    domain_.pin(rec);
    std::uint64_t sum = 0;
    std::size_t slot = 0;
    Seg* seg = domain_.protect(rec, slot, head_.value);
    while (seg != nullptr) {
      sum += static_cast<std::uint64_t>(seg->ring.size_estimate());
      slot ^= 1;
      seg = domain_.protect(rec, slot, seg->next);
    }
    domain_.unpin(rec);
    domain_.release(rec);
    return sum;
  }

  [[nodiscard]] telemetry::QueueMetrics& metrics() noexcept { return telemetry_.metrics(); }
  [[nodiscard]] const std::string& telemetry_name() const noexcept { return telemetry_.name(); }

  /// The reclamation domain and segment pool, exposed for the retirement
  /// race tests and memory-bound assertions.
  [[nodiscard]] Domain& reclaim_domain() noexcept { return domain_; }
  [[nodiscard]] reclaim::FreePool<Seg>& segment_pool() noexcept { return pool_; }

 private:

  bool finish_push(Handle& h, trace::OpProbe& probe, std::uint32_t retries) noexcept {
    domain_.unpin(h.rec_);
    telemetry::finish_op(telemetry_, probe, OpOutcome::kPushOk, 0, retries);
    return true;
  }

  value_type* finish_pop(Handle& h, trace::OpProbe& probe, std::uint32_t retries,
                         value_type* node) noexcept {
    domain_.unpin(h.rec_);
    telemetry::finish_op(telemetry_, probe, OpOutcome::kPopOk, 0, retries);
    return node;
  }

  /// A segment private to the calling thread: pooled (reopened here — the
  /// pool hands nodes back as-is) or fresh.
  [[nodiscard]] Seg* alloc_segment() {
    if constexpr (Domain::kPoolable) {
      if (Seg* seg = pool_.take()) {
        seg->next.store(nullptr, std::memory_order_relaxed);
        seg->ring.reopen();
        return seg;
      }
    }
    return pool_.make(segment_capacity_, seg_name_);
  }

  /// Returns a never-published segment. Straight back to the pool (no SMR
  /// lap needed: no other thread ever saw it).
  void recycle_private(Seg* seg) {
    if constexpr (Domain::kPoolable) {
      pool_.put(seg);
    } else {
      delete seg;
    }
  }

  [[nodiscard]] std::function<void(Seg*)> make_reclaimer() {
    if constexpr (Domain::kPoolable) {
      return [this](Seg* seg) { pool_.put(seg); };
    } else {
      return {};
    }
  }

  const std::size_t segment_capacity_;
  const std::string seg_name_;
  // pool_ before domain_: the domain's quiescent destructor sweep routes
  // surviving retired segments through the reclaimer into pool_, so pool_
  // must be destroyed after domain_ (it deletes everything it holds). The
  // QueueMetrics both point at live in the process-lifetime registry entry,
  // so running after ~telemetry_ is safe.
  reclaim::FreePool<Seg> pool_;
  Domain domain_;
  CachePadded<std::atomic<Seg*>> head_{};
  CachePadded<std::atomic<Seg*>> tail_{};
  // LAST member: destroyed first, clearing the depth gauge (which walks the
  // segment chain through `this`) while chain and domain still exist.
  telemetry::ScopedQueueMetrics telemetry_;
};

}  // namespace evq
