// SCQ — Nikolaev's Scalable Circular Queue (arXiv:1908.04511), the
// FAA-generation successor to the paper's CAS/LL-SC rings, expressed in the
// ring engine's policy vocabulary (DESIGN.md §12 maps the pseudocode lines
// to the hooks here).
//
// Where the paper's engines run load → boundary check → reserve slot →
// re-validate → commit, SCQ claims a ticket with ONE unconditional fetch_add
// (FaaIndexPolicy::reserve) and resolves everything at the slot: each ring
// entry packs {cycle, isSafe, index} into one 64-bit word, an enqueuer
// installs its index with a single CAS on the entry, and a dequeuer consumes
// with a single fetch_or. The indices' cache lines are never spun on, which
// is where the throughput past the paper's Fig. 6 knee comes from.
//
// Structure (Nikolaev's SCQD, the variant that stays single-word for
// arbitrary pointers): two internal index rings of 2n entries over the small
// indices 0..n-1 — `fq` (free indices, initially full) and `aq` (allocated
// indices, initially empty) — plus a plain data array of n pointers.
//
//   push: idx := fq.dequeue()  (⊥ → FULL);  data[idx] := node;  aq.enqueue(idx)
//   pop:  idx := aq.dequeue()  (⊥ → EMPTY); node := data[idx];  fq.enqueue(idx)
//
// At most n indices are ever live, so an internal enqueue into a 2n ring
// always succeeds — the rings need no full check, and every synchronization
// step is a single-word FAA, CAS or OR (the paper's own portability bar).
//
// Entry word layout (ScqLayout), for a ring of 2^order entries:
//
//   [ cycle : 63-order | isSafe : 1 | index : order ]
//
// ⊥ (empty) is the all-ones index field — legal because live indices are
// < n = 2^(order-1) < 2^order - 1. A fully-empty entry is the all-ones WORD:
// index ⊥, safe, and cycle ≡ −1 under the wrap-aware comparison, so cycle 0
// tickets may use it immediately. Cycle comparisons use serial-number
// arithmetic (ScqLayout::cycle_lt) so the packed cycle field may wrap —
// at 2^(63-order) ring revolutions that is unreachable in practice, but the
// comparison is what the cycle-tag ABA defence rests on, so scq_policy_test
// pins its behaviour across the numeric wrap boundary.
//
// Livelock avoidance (the algorithm's subtle half): an empty-side dequeuer
// still claims tickets, and each claimed ticket "uses up" an entry for one
// cycle. The threshold counter bounds that damage: enqueue resets it to
// 3n−1 after every successful install; dequeue decrements it on every
// failed probe and fast-path-returns ⊥ once it goes negative. A dequeuer
// that overtakes the tail also CATCHES THE TAIL UP (catch_up) so lost
// enqueue tickets cannot accumulate — the cautious-dequeue step DESIGN.md
// §12 details. Entries skipped while a slow enqueuer still holds their
// ticket are marked UNSAFE (isSafe := 0); an enqueuer finding its entry
// unsafe may only use it when Head proves no dequeuer can still want it.
//
// Observability: the same counter/trace taxonomy as the engines, plus two
// rows unique to this generation — kFaaReserve (every ticket claim; the
// FAA analogue of a slot reservation) and kSlotSkip (every cycle-bump or
// unsafe-mark; retry pressure that has no CAS-failure signature). Trace
// probes emit the matching faa_reserve / slot_skip phases, catch-up spans
// ride the existing help_advance machinery, so SCQ help chains render in
// the same Perfetto document as the paper queues'.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "evq/common/cacheline.hpp"
#include "evq/common/config.hpp"
#include "evq/core/queue_traits.hpp"
#include "evq/core/ring_engine.hpp"
#include "evq/inject/inject.hpp"
#include "evq/telemetry/op_event.hpp"
#include "evq/telemetry/registry.hpp"
#include "evq/trace/trace.hpp"

namespace evq {

inline constexpr char kScqIndexReservePoint[] = "core.scq.index.reserve";

/// The FAA ticket policy both internal rings share. Satisfies the engine's
/// RingIndexPolicy, so the advance-attribution tests cover it alongside the
/// CAS and LL/SC policies.
using ScqIndexPolicy = FaaIndexPolicy<kScqIndexReservePoint>;
static_assert(RingIndexPolicy<ScqIndexPolicy>);

/// The packed-entry word layout for one SCQ ring of 2^order entries.
/// Runtime-parameterized (ring sizes are constructor inputs) but fully
/// constexpr so scq_policy_test can pin round-trips and wrap edges at
/// compile time too.
class ScqLayout {
 public:
  explicit constexpr ScqLayout(std::uint32_t order) noexcept
      : order_(order),
        index_mask_((std::uint64_t{1} << order) - 1),
        safe_bit_(std::uint64_t{1} << order),
        cycle_shift_(order + 1),
        cycle_mask_((std::uint64_t{1} << (64 - order - 1)) - 1) {}

  [[nodiscard]] constexpr std::uint64_t make(std::uint64_t cycle, bool safe,
                                             std::uint64_t index) const noexcept {
    return ((cycle & cycle_mask_) << cycle_shift_) |
           (safe ? safe_bit_ : std::uint64_t{0}) | (index & index_mask_);
  }

  [[nodiscard]] constexpr std::uint64_t cycle(std::uint64_t entry) const noexcept {
    return entry >> cycle_shift_;
  }
  [[nodiscard]] constexpr bool is_safe(std::uint64_t entry) const noexcept {
    return (entry & safe_bit_) != 0;
  }
  [[nodiscard]] constexpr std::uint64_t index(std::uint64_t entry) const noexcept {
    return entry & index_mask_;
  }

  /// ⊥: the all-ones index field. Doubles as the fetch_or mask that consumes
  /// an entry (index -> ⊥) while preserving its cycle and safe bits.
  [[nodiscard]] constexpr std::uint64_t bottom() const noexcept { return index_mask_; }

  /// The cycle a raw monotone ticket belongs to, truncated to the stored
  /// cycle width so it compares against ScqLayout::cycle values.
  [[nodiscard]] constexpr std::uint64_t ticket_cycle(std::uint64_t ticket) const noexcept {
    return (ticket >> order_) & cycle_mask_;
  }

  /// Wrap-aware `a < b` over the cycle ring (serial-number arithmetic):
  /// a precedes b iff stepping forward from a reaches b in less than half
  /// the cycle space. Keeps the ABA defence sound across the numeric wrap
  /// of the truncated cycle field.
  [[nodiscard]] constexpr bool cycle_lt(std::uint64_t a, std::uint64_t b) const noexcept {
    const std::uint64_t forward = (b - a) & cycle_mask_;
    return forward != 0 && forward <= (cycle_mask_ >> 1);
  }

  [[nodiscard]] constexpr std::uint32_t order() const noexcept { return order_; }
  [[nodiscard]] constexpr std::uint64_t cycle_mask() const noexcept { return cycle_mask_; }

 private:
  std::uint32_t order_;
  std::uint64_t index_mask_;
  std::uint64_t safe_bit_;
  std::uint64_t cycle_shift_;
  std::uint64_t cycle_mask_;
};

/// Injection-point names for one internal ring (fq and aq get distinct sets
/// so scripted tests can park a thread in exactly one ring's protocol).
struct ScqRingPoints {
  const char* enq_reserve;    // before the enqueue-side ticket FAA
  const char* enq_reserved;   // after the FAA, before the entry CAS — the
                              // pre-seal-straggler window a seal must beat
  const char* enq_commit_sc;  // the entry-install CAS (spurious-fail injectable)
  const char* deq_reserve;    // before the dequeue-side ticket FAA
  const char* deq_reserved;   // after the dequeue-side FAA — stall here to age a ticket
  const char* deq_skip;       // before the skip CAS (cycle bump / unsafe mark)
  const char* deq_skip_sc;    // the skip CAS (spurious-fail injectable)
  const char* catchup_sc;     // the catch-up jump CAS (spurious-fail injectable)
};

/// One SCQ ring over small indices: 2^(half_order+1) packed entries carrying
/// the indices 0..2^half_order-1. Used in pairs by ScqQueue (fq/aq); the
/// caller guarantees at most 2^half_order live indices, so enqueue() never
/// reports full. All public mutators thread the owning queue's telemetry and
/// trace probe through an Io bundle, keeping the ring free of registration
/// state of its own.
class ScqRing {
 public:
  /// dequeue()'s ⊥ return. Distinct from any legal index (indices are < n).
  static constexpr std::uint64_t kBottom = ~std::uint64_t{0};

  struct Io {
    telemetry::ScopedQueueMetrics& tm;
    trace::OpProbe& probe;
    std::uint32_t& retries;
  };

  /// A ring holds indices 0..2^half_order-1 in 2^(half_order+1) entries.
  /// `full` seeds the free-ring shape (every index present, Tail at n,
  /// threshold armed); otherwise the ring starts empty with the threshold
  /// exhausted, so dequeue on a never-filled ring is one load.
  ScqRing(std::uint32_t half_order, bool full, const ScqRingPoints& points)
      : layout_(half_order + 1),
        order_(half_order + 1),
        size_(std::size_t{1} << order_),
        mask_(size_ - 1),
        half_(std::size_t{1} << half_order),
        threshold_init_(3 * static_cast<std::int64_t>(half_) - 1),
        initially_full_(full),
        points_(points),
        entries_(std::make_unique<std::atomic<std::uint64_t>[]>(size_)) {
    reopen();
  }

  ScqRing(const ScqRing&) = delete;
  ScqRing& operator=(const ScqRing&) = delete;

  /// (Re)initializes a QUIESCENT ring to its constructed shape — entries,
  /// indices, threshold, and the seal bit. Used by the segment free pool to
  /// recycle sealed rings; callers must guarantee no concurrent operations.
  void reopen() noexcept {
    for (std::size_t i = 0; i < size_; ++i) {
      // All-ones: index ⊥, safe, cycle ≡ −1 — consumable by cycle-0 tickets.
      entries_[i].store(~std::uint64_t{0}, std::memory_order_relaxed);
    }
    head_.value.store(0, std::memory_order_relaxed);
    if (initially_full_) {
      for (std::size_t i = 0; i < half_; ++i) {
        entries_[remap(i)].store(layout_.make(0, true, i), std::memory_order_relaxed);
      }
      tail_.value.store(half_, std::memory_order_relaxed);
      threshold_.value.store(threshold_init_, std::memory_order_relaxed);
    } else {
      tail_.value.store(0, std::memory_order_relaxed);
      threshold_.value.store(-1, std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  /// Seals the enqueue side (LSCQ's finalize): sets the CLOSED bit on Tail,
  /// so every ticket claimed from now on carries the bit and its enqueue
  /// fails permanently — AND re-arms the dequeue threshold, the paper's
  /// `cq.threshold := 3n-1` finalize step. The re-arm is load-bearing: a
  /// ring can carry a stale negative threshold from an earlier empty phase,
  /// under which dequeue() fast-path-returns ⊥ without claiming a head
  /// ticket, so Head would never advance past a pre-seal straggler's ticket
  /// T and the straggler (parked between its FAA and its entry CAS) could
  /// still install into a ring whose owner already took "⊥ after seal" as
  /// final. Re-armed, the caller's next probe is full-strength: it drives
  /// Head up to the frozen Tail, cycle-bumping or unsafe-marking every
  /// pre-seal entry on the way, so the straggler's install condition can
  /// never hold again and a post-close ⊥ really is final
  /// (tests/segment_race_test.cpp pins the schedule). Idempotent; returns
  /// whether THIS call sealed; callers re-probing a sealed ring call it
  /// again before every probe, exactly as LSCQ re-stores the threshold.
  bool close() noexcept {
    const bool sealed = ScqIndexPolicy::close(tail_.value);
    threshold_.value.store(threshold_init_, std::memory_order_seq_cst);
    return sealed;
  }

  [[nodiscard]] bool closed() noexcept {
    return (ScqIndexPolicy::load(tail_.value) & kRingClosedBit) != 0;
  }

  /// SCQ Enqueue (DESIGN.md §12, E-lines): FAA a ticket, install the index
  /// into the ticket's entry with one CAS, re-arm the threshold. Loops until
  /// an entry admits the install — guaranteed to terminate because at most
  /// `half_` indices are live in a ring of twice that many entries. A ticket
  /// whose entry is from a newer cycle, still occupied, or unsafe while a
  /// dequeuer may want it, is simply abandoned (lost tickets are what the
  /// dequeue side's catch-up repairs).
  ///
  /// Returns false iff the ring is sealed (close()): the FAA ticket itself
  /// carries the CLOSED bit, so the check costs nothing on the open path and
  /// no pre-seal ticket is ever refused — exactly LSCQ's finalize contract.
  bool enqueue(std::uint64_t index, Io io) noexcept {
    for (;;) {
      io.probe.begin_phase(trace::Phase::kFaaReserve);
      EVQ_INJECT_POINT(points_.enq_reserve);
      const std::uint64_t t = ScqIndexPolicy::reserve(tail_.value);         // E: T := FAA(&Tail, 1)
      if ((t & kRingClosedBit) != 0) {
        return false;
      }
      telemetry::count_ring_event(io.tm, telemetry::Counter::kFaaReserve);
      // A thread parked here holds a pre-seal ticket with no entry yet — the
      // straggler close()'s threshold re-arm exists to defeat.
      EVQ_INJECT_POINT(points_.enq_reserved);
      const std::uint64_t t_cycle = layout_.ticket_cycle(t);
      std::atomic<std::uint64_t>& cell = entries_[remap(t)];
      io.probe.begin_phase(trace::Phase::kSlotAttempt);
      std::uint64_t e = cell.load(std::memory_order_seq_cst);               // E: E := Entries[j]
      for (;;) {
        // E: Cycle(E) < Cycle(T) ∧ Index(E) = ⊥ ∧ (IsSafe(E) ∨ Head ≤ T)
        if (!layout_.cycle_lt(layout_.cycle(e), t_cycle) ||
            layout_.index(e) != layout_.bottom() ||
            (!layout_.is_safe(e) &&
             static_cast<std::int64_t>(ScqIndexPolicy::load(head_.value) - t) > 0)) {
          break;  // ticket lost — take a fresh one
        }
        const std::uint64_t desired = layout_.make(t_cycle, true, index);
        if (EVQ_INJECT_SC_FAILS(points_.enq_commit_sc)) {
          telemetry::count_ring_event(io.tm, telemetry::Counter::kSlotScFail);
          ++io.retries;
          e = cell.load(std::memory_order_seq_cst);
          continue;
        }
        if (!cell.compare_exchange_strong(e, desired, std::memory_order_seq_cst)) {
          // e reloaded by the failed CAS — re-evaluate the condition with it.
          telemetry::count_ring_event(io.tm, telemetry::Counter::kSlotScFail);
          ++io.retries;
          continue;
        }
        // E: installed — re-arm the livelock threshold.
        if (threshold_.value.load(std::memory_order_seq_cst) != threshold_init_) {
          threshold_.value.store(threshold_init_, std::memory_order_seq_cst);
        }
        return true;
      }
      // Retry round, counted and traced like the engine's; there is nothing
      // to wait out (the FAA ticket never loses a race), so no pause.
      telemetry::count_ring_event(io.tm, telemetry::Counter::kBackoffRound);
      io.probe.begin_phase(trace::Phase::kBackoff);
      ++io.retries;
    }
  }

  /// SCQ Dequeue (DESIGN.md §12, D-lines). Returns a stored index, or
  /// kBottom when the ring was empty at some instant during the call. The
  /// cautious part: a probe that finds its entry stale bumps the entry past
  /// its own cycle (or marks a held entry unsafe), then — if it overran the
  /// tail — catches the tail up and charges the threshold; ⊥ is only
  /// reported off the threshold, which enqueue re-arms on every success.
  std::uint64_t dequeue(Io io) noexcept {
    if (threshold_.value.load(std::memory_order_seq_cst) < 0) {             // D: fast path
      return kBottom;
    }
    for (;;) {
      io.probe.begin_phase(trace::Phase::kFaaReserve);
      EVQ_INJECT_POINT(points_.deq_reserve);
      const std::uint64_t h = ScqIndexPolicy::reserve(head_.value);         // D: H := FAA(&Head, 1)
      telemetry::count_ring_event(io.tm, telemetry::Counter::kFaaReserve);
      EVQ_INJECT_POINT(points_.deq_reserved);
      const std::uint64_t h_cycle = layout_.ticket_cycle(h);
      std::atomic<std::uint64_t>& cell = entries_[remap(h)];
      io.probe.begin_phase(trace::Phase::kSlotAttempt);
      std::uint64_t e = cell.load(std::memory_order_seq_cst);               // D: E := Entries[j]
      for (;;) {
        const std::uint64_t e_cycle = layout_.cycle(e);
        if (e_cycle == h_cycle) {
          // D: consume — Index := ⊥, cycle and safe bit preserved. OR, not
          // CAS: a concurrent unsafe-mark on this entry must compose, not
          // race (both are single-word RMWs on the same cell).
          cell.fetch_or(layout_.bottom(), std::memory_order_seq_cst);
          return layout_.index(e);
        }
        if (layout_.cycle_lt(e_cycle, h_cycle)) {
          // D: the entry is from an older cycle — skip it. An empty entry's
          // cycle is bumped to ours (it can serve a same-cycle enqueuer); a
          // HELD entry (a slow enqueuer's install from an older cycle that a
          // matching dequeuer has yet to consume) keeps cycle and index but
          // loses its safe bit, warning that cycle's enqueuers off.
          const std::uint64_t desired =
              layout_.index(e) == layout_.bottom()
                  ? layout_.make(h_cycle, layout_.is_safe(e), layout_.bottom())
                  : layout_.make(e_cycle, false, layout_.index(e));
          io.probe.begin_phase(trace::Phase::kSlotSkip);
          EVQ_INJECT_POINT(points_.deq_skip);
          if (EVQ_INJECT_SC_FAILS(points_.deq_skip_sc)) {
            telemetry::count_ring_event(io.tm, telemetry::Counter::kSlotScFail);
            ++io.retries;
            e = cell.load(std::memory_order_seq_cst);
            continue;  // re-check: an enqueuer may have installed our cycle
          }
          if (!cell.compare_exchange_strong(e, desired, std::memory_order_seq_cst)) {
            telemetry::count_ring_event(io.tm, telemetry::Counter::kSlotScFail);
            ++io.retries;
            continue;  // e reloaded by the failed CAS
          }
          telemetry::count_ring_event(io.tm, telemetry::Counter::kSlotSkip);
        }
        // D: emptiness check. Overran the tail → catch it up, charge the
        // threshold, report ⊥; otherwise ⊥ only once the threshold is spent.
        // The CLOSED bit is stripped for the comparison (a sealed ring drains
        // normally); catch_up takes the raw word so its CAS preserves it.
        io.probe.begin_phase(trace::Phase::kIndexLoad);
        const std::uint64_t t_raw = ScqIndexPolicy::load(tail_.value);
        const std::uint64_t t = t_raw & kRingIndexMask;
        if (static_cast<std::int64_t>(t - (h + 1)) <= 0) {
          catch_up(t_raw, h + 1, io);
          threshold_.value.fetch_sub(1, std::memory_order_seq_cst);
          return kBottom;
        }
        if (threshold_.value.fetch_sub(1, std::memory_order_seq_cst) <= 0) {
          return kBottom;
        }
        break;  // threshold still positive — take a fresh ticket
      }
      telemetry::count_ring_event(io.tm, telemetry::Counter::kBackoffRound);
      io.probe.begin_phase(trace::Phase::kBackoff);
      ++io.retries;
    }
  }

  // --- introspection (tests, size estimates, diagnostics) ---
  [[nodiscard]] std::uint64_t head() noexcept { return ScqIndexPolicy::load(head_.value); }
  [[nodiscard]] std::uint64_t tail() noexcept {
    return ScqIndexPolicy::load(tail_.value) & kRingIndexMask;
  }
  [[nodiscard]] std::int64_t threshold() const noexcept {
    return threshold_.value.load(std::memory_order_seq_cst);
  }
  [[nodiscard]] std::uint64_t entry(std::uint64_t ticket) const noexcept {
    return entries_[remap(ticket)].load(std::memory_order_seq_cst);
  }
  [[nodiscard]] const ScqLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] std::size_t entry_count() const noexcept { return size_; }
  [[nodiscard]] std::int64_t threshold_init() const noexcept { return threshold_init_; }

 private:
  /// Cache remap: rotate the position left by 3 within the ring's order bits,
  /// so consecutive tickets land 8 entries (one 64-byte line) apart and an
  /// FAA burst from different cores does not false-share one line. A
  /// bijection, so wraparound still visits every entry exactly once per
  /// cycle. Identity for tiny rings (order <= 3), where the whole array is
  /// one line anyway.
  [[nodiscard]] std::size_t remap(std::uint64_t ticket) const noexcept {
    const std::size_t pos = static_cast<std::size_t>(ticket) & mask_;
    if (order_ <= 3) {
      return pos;
    }
    return ((pos << 3) | (pos >> (order_ - 3))) & mask_;
  }

  /// SCQ Catchup: drag a lagging Tail forward to `h` so tickets lost by
  /// enqueuers cannot starve the threshold forever. Surfaces as a
  /// help-advance in telemetry and as a helper-side flow event in traces —
  /// it IS this generation's helping step. `t` is the RAW tail word: the
  /// jump CAS must carry the CLOSED bit across, or a catch-up on a sealed
  /// ring would quietly un-seal it.
  void catch_up(std::uint64_t t, std::uint64_t h, Io& io) noexcept {
    for (;;) {
      if (static_cast<std::int64_t>((t & kRingIndexMask) - h) >= 0) {
        return;  // already caught up (or a peer got there first)
      }
      std::uint64_t expected = t;
      if (!EVQ_INJECT_SC_FAILS(points_.catchup_sc) &&
          ScqIndexPolicy::catch_up(tail_.value, expected, h | (t & kRingClosedBit))) {
        telemetry::count_ring_event(io.tm, telemetry::Counter::kHelpAdvance);
        io.probe.help_advance(h, trace::HelpTarget::kTail);
        return;
      }
      h = ScqIndexPolicy::load(head_.value);
      t = ScqIndexPolicy::load(tail_.value);
    }
  }

  const ScqLayout layout_;
  const std::uint32_t order_;
  const std::size_t size_;
  const std::size_t mask_;
  const std::size_t half_;
  const std::int64_t threshold_init_;
  const bool initially_full_;
  const ScqRingPoints points_;
  // Indices and threshold each on their own line: all three are write-hot.
  CachePadded<ScqIndexPolicy::Cell> head_{};
  CachePadded<ScqIndexPolicy::Cell> tail_{};
  CachePadded<std::atomic<std::int64_t>> threshold_{};
  std::unique_ptr<std::atomic<std::uint64_t>[]> entries_;
};

namespace scq_detail {
inline constexpr ScqRingPoints kFreeRingPoints{
    "core.scq.fq.enq.reserve", "core.scq.fq.enq.reserved", "core.scq.fq.enq.commit",
    "core.scq.fq.deq.reserve", "core.scq.fq.deq.reserved", "core.scq.fq.deq.skip",
    "core.scq.fq.deq.skip.sc", "core.scq.fq.catchup",
};
inline constexpr ScqRingPoints kAllocRingPoints{
    "core.scq.aq.enq.reserve", "core.scq.aq.enq.reserved", "core.scq.aq.enq.commit",
    "core.scq.aq.deq.reserve", "core.scq.aq.deq.reserved", "core.scq.aq.deq.skip",
    "core.scq.aq.deq.skip.sc", "core.scq.aq.catchup",
};
}  // namespace scq_detail

/// The SCQD pointer queue: fq/aq index rings plus the data array. Drop-in
/// member of the bounded-queue family — TrivialHandle (no per-thread state),
/// the uniform try_push/try_pop plus native batch operations, capacity
/// rounded up to a power of two, registered telemetry with a depth gauge.
template <typename T>
class ScqQueue {
  static_assert(kQueueableV<T>, "element type must be at least 2-byte aligned");

 public:
  using value_type = T;
  using pointer = T*;
  using Handle = TrivialHandle;

  static constexpr const char* kPushEnter = "core.scq.push.enter";
  static constexpr const char* kPushReserved = "core.scq.push.reserved";
  static constexpr const char* kPushCommitted = "core.scq.push.committed";
  static constexpr const char* kPopEnter = "core.scq.pop.enter";
  static constexpr const char* kPopReserved = "core.scq.pop.reserved";
  static constexpr const char* kPopCommitted = "core.scq.pop.committed";

  explicit ScqQueue(std::size_t min_capacity, std::string_view name = "scq")
      : half_order_(static_cast<std::uint32_t>(
            std::bit_width(std::bit_ceil(min_capacity < 2 ? std::size_t{2} : min_capacity)) - 1)),
        capacity_(std::size_t{1} << half_order_),
        fq_(half_order_, /*full=*/true, scq_detail::kFreeRingPoints),
        aq_(half_order_, /*full=*/false, scq_detail::kAllocRingPoints),
        data_(std::make_unique<std::atomic<T*>[]>(capacity_)),
        telemetry_(name) {
    telemetry_.set_depth_gauge(
        [this] { return static_cast<std::uint64_t>(size_estimate()); });
  }

  ScqQueue(const ScqQueue&) = delete;
  ScqQueue& operator=(const ScqQueue&) = delete;

  [[nodiscard]] Handle handle() { return Handle{}; }

  /// False iff no free index was available — the queue held `capacity()`
  /// items (counting in-flight pushes that linearize before this call) at
  /// some instant during the call.
  bool try_push(Handle&, T* node) noexcept { return push_one(node); }

  /// nullptr iff the queue was empty at some instant during the call.
  T* try_pop(Handle&) noexcept { return pop_one(); }

  std::size_t try_push_n(Handle& h, T* const* nodes, std::size_t count) noexcept {
    std::size_t done = 0;
    while (done < count && try_push(h, nodes[done])) {
      ++done;
    }
    return done;
  }

  std::size_t try_pop_n(Handle& h, T** out, std::size_t count) noexcept {
    std::size_t done = 0;
    while (done < count) {
      T* node = try_pop(h);
      if (node == nullptr) {
        break;
      }
      out[done++] = node;
    }
    return done;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Instantaneous size estimate off the allocated ring's indices (exact
  /// when quiescent; clamped — an empty-side ticket burst can push the
  /// allocated Head transiently past its Tail).
  [[nodiscard]] std::size_t size_estimate() noexcept {
    const std::int64_t d = static_cast<std::int64_t>(aq_.tail() - aq_.head());
    if (d <= 0) {
      return 0;
    }
    return std::min(static_cast<std::size_t>(d), capacity_);
  }

  [[nodiscard]] telemetry::QueueMetrics& metrics() noexcept { return telemetry_.metrics(); }
  [[nodiscard]] const std::string& telemetry_name() const noexcept { return telemetry_.name(); }

  /// The internal rings, exposed for the policy tests (threshold state,
  /// entry words, unsafe transitions).
  [[nodiscard]] ScqRing& free_ring() noexcept { return fq_; }
  [[nodiscard]] ScqRing& alloc_ring() noexcept { return aq_; }

  /// Seals the queue (segment protocol): the CLOSED bit goes on the ALLOC
  /// ring's tail — pushes that already hold a free index return it and fail
  /// permanently; pops drain what was installed. Also re-arms aq's dequeue
  /// threshold (LSCQ's finalize, see ScqRing::close) so the caller's next
  /// try_pop is a full-strength emptiness probe — required before trusting
  /// a post-seal ⊥ as final. The free ring is never sealed (pop must always
  /// be able to recycle indices). Idempotent; returns whether THIS call
  /// sealed.
  bool close() noexcept { return aq_.close(); }

  [[nodiscard]] bool closed() noexcept { return aq_.closed(); }

  /// Resets a QUIESCENT (typically pool-recycled) queue to its constructed
  /// open-and-empty state. Callers must guarantee no concurrent operations.
  void reopen() noexcept {
    fq_.reopen();
    aq_.reopen();
  }

 private:
  bool push_one(T* node) noexcept {
    EVQ_DCHECK(node != nullptr, "cannot enqueue nullptr (it denotes an empty slot)");
    std::uint32_t retries = 0;
    trace::OpProbe probe(telemetry_.queue_id());
    EVQ_INJECT_POINT(kPushEnter);
    ScqRing::Io io{telemetry_, probe, retries};
    const std::uint64_t idx = fq_.dequeue(io);
    if (idx == ScqRing::kBottom) {
      telemetry::finish_op(telemetry_, probe, OpOutcome::kPushFull, 0, retries);
      return false;
    }
    // The index is exclusively ours until aq publishes it: the data write
    // races with nothing, and the release store pairs with pop_one's
    // acquire load through aq's entry CAS/load.
    data_[idx].store(node, std::memory_order_release);
    EVQ_INJECT_POINT(kPushReserved);
    if (!aq_.enqueue(idx, io)) {
      // Sealed under us (close()): the node was never published, so hand the
      // free index back and report the paper's FULL outcome — to a caller a
      // sealed queue and a full queue are the same "takes no more items"
      // answer, and the segmented facade counts the seal itself separately.
      fq_.enqueue(idx, io);
      telemetry::finish_op(telemetry_, probe, OpOutcome::kPushFull, idx, retries);
      return false;
    }
    // Linearized at the aq entry install (the kill-mid-enqueue freeze spot).
    EVQ_INJECT_POINT(kPushCommitted);
    telemetry::finish_op(telemetry_, probe, OpOutcome::kPushOk, idx, retries);
    return true;
  }

  T* pop_one() noexcept {
    std::uint32_t retries = 0;
    trace::OpProbe probe(telemetry_.queue_id());
    EVQ_INJECT_POINT(kPopEnter);
    ScqRing::Io io{telemetry_, probe, retries};
    const std::uint64_t idx = aq_.dequeue(io);
    if (idx == ScqRing::kBottom) {
      telemetry::finish_op(telemetry_, probe, OpOutcome::kPopEmpty, 0, retries);
      return nullptr;
    }
    EVQ_INJECT_POINT(kPopReserved);
    T* node = data_[idx].load(std::memory_order_acquire);
    // Only after the read may the index recycle: fq republishes it to the
    // next push, whose data write the read above must not race.
    fq_.enqueue(idx, io);
    EVQ_INJECT_POINT(kPopCommitted);
    telemetry::finish_op(telemetry_, probe, OpOutcome::kPopOk, idx, retries);
    return node;
  }

  const std::uint32_t half_order_;
  const std::size_t capacity_;
  ScqRing fq_;
  ScqRing aq_;
  std::unique_ptr<std::atomic<T*>[]> data_;
  // LAST member on purpose: destroyed first, which clears the depth gauge
  // (it reads aq_ through `this`) while the rings still exist.
  telemetry::ScopedQueueMetrics telemetry_;
};

static_assert(BoundedPtrQueue<ScqQueue<int>>);
static_assert(BatchPtrQueue<ScqQueue<int>>);

}  // namespace evq
