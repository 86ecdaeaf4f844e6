// The policy-based circular-array ring engine.
//
// Both paper algorithms (Fig. 3 and Fig. 5) and the array baselines
// (Tsigas-Zhang, Shann et al.) share one skeleton: monotone 64-bit Head/Tail
// counters, a power-of-two slot array, and per operation
//
//   load index -> full/empty check -> reserve slot -> re-validate index ->
//   classify slot -> commit | help-advance the lagging index | retry.
//
// BoundedRing factors that skeleton out once; what distinguishes the
// algorithms is injected through three policies:
//
//   SlotPolicy   — what a slot IS and how it is reserved/committed/abandoned
//                  (LL/SC cell, simulated-LL/SC cell, bare two-null CAS word,
//                  double-width {pointer, counter} word). Also owns per-queue
//                  shared state (Algorithm 2's Registry) and the fault-
//                  injection point names, so a policy-instantiated queue hits
//                  byte-identical injection streams to its hand-written
//                  predecessor.
//   IndexPolicy  — what Head/Tail ARE and how a lagging one is advanced
//                  (LL/SC CounterCell for Fig. 3 E12-E13/E16-E17 vs. plain
//                  `CAS(&Index, i, i+1)` for Fig. 5 and the baselines).
//   ContentionPolicy — what a retry costs: a waiter of common/backoff.hpp
//                  whose pause() runs once per retry round. NoBackoff
//                  reproduces the paper's published loops (retry
//                  immediately); ExpBackoff adds the bounded spin-then-yield
//                  on every retry path. Priced by bench_backoff.
//
// The engine also provides batch operations try_push_n/try_pop_n: after a
// successful operation the next slot index is already known (t+1), so a batch
// seeds the next iteration's index read with it and skips one shared-counter
// load per amortized operation. The hint is only ever <= the live index
// (indices are monotone and the hint is an index this thread itself advanced
// past), which keeps both boundary checks conservative: a stale-low tail can
// only under-report occupancy (the signed E6 check and the E10 re-validation
// catch it), and a stale-low head makes the D6 empty check compare equal only
// when the queue is genuinely empty at the moment of the Tail load.
#pragma once

#include <atomic>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>

#include "evq/common/backoff.hpp"
#include "evq/common/cacheline.hpp"
#include "evq/common/config.hpp"
#include "evq/common/op_stats.hpp"
#include "evq/core/queue_traits.hpp"
#include "evq/inject/inject.hpp"
#include "evq/llsc/counter_cell.hpp"
#include "evq/telemetry/op_event.hpp"
#include "evq/telemetry/registry.hpp"
#include "evq/trace/trace.hpp"

namespace evq {

/// What a reservation found in its slot, relative to operation index i:
///   kEmptyFresh — empty and writable for index i's generation (push commits
///                 here; pop treats it as a lagging-Head leftover and helps);
///   kOccupied   — holds a value (pop commits here; push helps the lagging
///                 Tail, Fig. 3 E11-E13);
///   kStaleEmpty — empty but for the WRONG generation (Tsigas-Zhang's
///                 other-null): the index is stale, plain retry.
enum class SlotClass : std::uint8_t { kEmptyFresh, kOccupied, kStaleEmpty };

/// Seal protocol (segmented_queue.hpp): bit 63 of the Tail counter marks a
/// ring CLOSED. The indices are 64-bit monotone counters that in practice
/// never reach 2^63, so the bit is free; setting it (one fetch_or / LL-SC
/// loop) makes every in-flight and future push fail permanently while pops
/// drain the remainder. The load/advance arithmetic below strips the bit
/// (kRingIndexMask) wherever a tail VALUE is needed, and keeps advance()
/// STRICT — a CAS expecting the unsealed raw value — so that once the bit is
/// set the masked tail is frozen forever: no helper or straggler can publish
/// another item, which is what makes "closed and pop saw empty" a FINAL
/// state a segment owner may retire on.
inline constexpr std::uint64_t kRingClosedBit = std::uint64_t{1} << 63;
inline constexpr std::uint64_t kRingIndexMask = kRingClosedBit - 1;

/// The slot-side policy contract. A policy is an instance member of the ring
/// (it may own shared state such as Algorithm 2's Registry) and must provide
/// the six injection-point names of the torture substrate. begin_op must have
/// no side effects: an empty poll may return without calling it (pop_one).
template <typename P, typename T>
concept RingSlotPolicy =
    requires(P p, typename P::Slot& slot, typename P::Handle& h, typename P::OpCtx& ctx,
             typename P::Reservation& res, T* node, std::uint64_t index) {
      { p.attach(std::size_t{1}) };
      { p.init_slot(slot, index) };
      { p.make_handle() } -> std::same_as<typename P::Handle>;
      { p.begin_op(h) } -> std::same_as<typename P::OpCtx>;
      { p.reserve(slot, ctx) } -> std::same_as<typename P::Reservation>;
      { p.classify(res, index) } -> std::same_as<SlotClass>;
      { p.commit_push(slot, res, node, index, ctx) } -> std::same_as<bool>;
      { p.commit_pop(slot, res, index, ctx) } -> std::same_as<bool>;
      { p.value_of(res) } -> std::same_as<T*>;
      { p.abandon(slot, res, ctx) };
      { P::kPushEnter } -> std::convertible_to<const char*>;
      { P::kPushReserved } -> std::convertible_to<const char*>;
      { P::kPushCommitted } -> std::convertible_to<const char*>;
      { P::kPopEnter } -> std::convertible_to<const char*>;
      { P::kPopReserved } -> std::convertible_to<const char*>;
      { P::kPopCommitted } -> std::convertible_to<const char*>;
    };

/// The index-side policy contract: a Cell holding a monotone 64-bit counter.
///
/// Advance-attribution contract (the help-chain flow arrows of DESIGN.md §11
/// depend on it): advance() returns whether THIS call moved the index from
/// `expected` to `expected + 1` — false means no movement is attributable to
/// this call, either because a peer already advanced it (the caller was
/// helped) or, for weak LL/SC, because the SC failed spuriously. Every index
/// move must be attributed to exactly one advance() (or reserve(), below)
/// return; the engines use the result only for best-effort trace
/// attribution, never for control flow.
///
/// Policies whose algorithms claim tickets UNCONDITIONALLY (the SCQ
/// generation's fetch_add) must expose that as a distinct reserve() returning
/// the claimed ticket — never by widening advance(): an unconditional
/// primitive always moves the index, so it could never report the "a peer
/// advanced it for me" outcome that advance()'s false return means, and a
/// policy that returned constant-true through advance() would silently turn
/// every helped op into a self-advance in the exported flow arrows. With the
/// split, attribution stays exact for free: a fetch_add moves the index by
/// exactly one and no other call observes that move as its own.
template <typename P>
concept RingIndexPolicy = requires(typename P::Cell& cell, std::uint64_t expected) {
  { P::load(cell) } -> std::same_as<std::uint64_t>;
  { P::advance(cell, expected) } -> std::same_as<bool>;
  { P::close(cell) } -> std::same_as<bool>;
};

/// Fig. 3's index handling: Head/Tail are LL/SC cells and a lagging index is
/// advanced with LL; compare; SC (E12-E13 on behalf of a peer, E16-E17 to
/// publish one's own operation — the paper uses the identical sequence for
/// both, which is why helping is safe: a failed SC means someone else already
/// moved the index).
struct LlscIndexPolicy {
  using Cell = llsc::CounterCell;

  static std::uint64_t load(Cell& cell) noexcept { return cell.load(); }

  static bool advance(Cell& cell, std::uint64_t expected) noexcept {
    auto link = cell.ll();                 // E12/E16 (D12/D16)
    if (link.value() == expected) {
      return cell.sc(link, expected + 1);  // E13/E17 (D13/D17)
    }
    return false;
  }

  /// Sets the CLOSED bit with an LL/SC loop (there is no single-word OR in
  /// the LL/SC repertoire, but the loop is equivalent: it terminates because
  /// a failed SC means either the bit is already set — done — or the counter
  /// moved, and counters move at most capacity times past any observed
  /// value). Returns whether THIS call set the bit.
  static bool close(Cell& cell) noexcept {
    for (;;) {
      auto link = cell.ll();
      if ((link.value() & kRingClosedBit) != 0) {
        return false;
      }
      if (cell.sc(link, link.value() | kRingClosedBit)) {
        return true;
      }
    }
  }
};

/// Fig. 5's (and the CAS baselines') index handling: plain
/// `CAS(&Index, i, i+1)` — identical to an LL/SC increment because the
/// counters are monotone (see counter_cell.hpp). AdvancePoint is the
/// queue-specific injection-point name ("core.cas.index.advance", ...).
template <const char* AdvancePoint>
struct CasIndexPolicy {
  using Cell = std::atomic<std::uint64_t>;

  static std::uint64_t load(Cell& cell) noexcept {
    return cell.load(std::memory_order_seq_cst);
  }

  static bool advance(Cell& cell, std::uint64_t expected) noexcept {
    // Delay-only point: the advance CAS must always be ATTEMPTED, because
    // its failure is read as "another thread already advanced the index" —
    // skipping it on a stream's final operation would forge a permanently
    // lagging index no real preemption can produce (a CAS, unlike weak
    // LL/SC, never fails spuriously).
    EVQ_INJECT_POINT(AdvancePoint);
    const bool ok =
        cell.compare_exchange_strong(expected, expected + 1, std::memory_order_seq_cst);
    stats::on_cas(ok);
    return ok;
  }

  /// Sets the CLOSED bit; returns whether THIS call set it.
  static bool close(Cell& cell) noexcept {
    return (cell.fetch_or(kRingClosedBit, std::memory_order_seq_cst) & kRingClosedBit) == 0;
  }
};

/// SCQ-generation index handling (core/scq_queue.hpp): a ticket is RESERVED
/// with one unconditional fetch_add instead of the engines' load → boundary
/// check → conditional advance round trip — the reservation can never fail
/// and never spins, which is where the SCQ family's scalability comes from.
/// advance() keeps the conditional contract above (SCQ's cautious dequeue
/// repairs a lagging Tail with it, via catch_up), so the policy satisfies
/// RingIndexPolicy and help attribution composes unchanged.
template <const char* ReservePoint>
struct FaaIndexPolicy {
  using Cell = std::atomic<std::uint64_t>;

  static std::uint64_t load(Cell& cell) noexcept {
    return cell.load(std::memory_order_seq_cst);
  }

  /// Unconditional ticket claim; returns the PRIOR index value (the caller's
  /// ticket). Per the attribution contract, the one-step move is attributed
  /// to this call, always — reserve() cannot fail and cannot be helped.
  static std::uint64_t reserve(Cell& cell) noexcept {
    // Delay-only point, like CasIndexPolicy::advance: the FAA must always be
    // ISSUED — skipping it would hand two threads the same ticket, a state
    // no real preemption can produce.
    EVQ_INJECT_POINT(ReservePoint);
    return cell.fetch_add(1, std::memory_order_seq_cst);
  }

  /// Conditional advance, identical semantics to CasIndexPolicy::advance.
  static bool advance(Cell& cell, std::uint64_t expected) noexcept {
    const bool ok =
        cell.compare_exchange_strong(expected, expected + 1, std::memory_order_seq_cst);
    stats::on_cas(ok);
    return ok;
  }

  /// SCQ's Catchup step: one conditional jump `expected -> to` (to is ahead
  /// of expected). Returns whether THIS call moved the index — the same
  /// attribution rule as advance(), covering moves of more than one step.
  static bool catch_up(Cell& cell, std::uint64_t expected, std::uint64_t to) noexcept {
    const bool ok = cell.compare_exchange_strong(expected, to, std::memory_order_seq_cst);
    stats::on_cas(ok);
    return ok;
  }

  /// Sets the CLOSED bit; returns whether THIS call set it. Reserved tickets
  /// taken after this carry the bit, which is how SCQ's enqueue observes the
  /// seal (scq_queue.hpp).
  static bool close(Cell& cell) noexcept {
    return (cell.fetch_or(kRingClosedBit, std::memory_order_seq_cst) & kRingClosedBit) == 0;
  }
};

/// The shared circular-array skeleton. Thin queue fronts (LlscArrayQueue,
/// CasArrayQueue, TsigasZhangQueue, ShannQueue) derive from this and add only
/// their documentation and algorithm-specific accessors.
template <typename T, typename SlotPolicy, typename IndexPolicy,
          typename ContentionPolicy = NoBackoff>
  requires RingSlotPolicy<SlotPolicy, T> && RingIndexPolicy<IndexPolicy>
class BoundedRing {
  static_assert(kQueueableV<T>, "element type must be at least 2-byte aligned");

 public:
  using value_type = T;
  using pointer = T*;
  using Handle = typename SlotPolicy::Handle;
  using Slot = typename SlotPolicy::Slot;

  /// Capacity is rounded up to a power of two (the paper requires Q_LENGTH
  /// to be a power of 2 so index wraparound never skips slots). `name` is the
  /// stable telemetry name this instance registers (and aggregates) under.
  explicit BoundedRing(std::size_t min_capacity, std::string_view name = "ring")
      : capacity_(std::bit_ceil(min_capacity < 2 ? std::size_t{2} : min_capacity)),
        mask_(capacity_ - 1),
        slots_(std::make_unique<Slot[]>(capacity_)),
        telemetry_(name) {
    policy_.attach(capacity_);
    for (std::size_t i = 0; i < capacity_; ++i) {
      policy_.init_slot(slots_[i], static_cast<std::uint64_t>(i));
    }
    telemetry_.set_depth_gauge(
        [this] { return static_cast<std::uint64_t>(size_estimate()); });
  }

  BoundedRing(const BoundedRing&) = delete;
  BoundedRing& operator=(const BoundedRing&) = delete;

  [[nodiscard]] Handle handle() { return policy_.make_handle(); }

  /// Fig. 3 E1-E21 / Fig. 5 Enqueue. Returns false iff the queue was full at
  /// some instant during the call (the paper's FULL_QUEUE).
  bool try_push(Handle& h, T* node) noexcept { return push_one(h, node, nullptr); }

  /// Fig. 3 D1-D21 / Fig. 5 Dequeue. Returns nullptr iff the queue was empty
  /// at some instant during the call.
  T* try_pop(Handle& h) noexcept { return pop_one(h, nullptr); }

  /// Pushes up to `count` nodes in FIFO order; returns how many landed. Stops
  /// at the first full-queue report, so a short return means the queue was
  /// full at that instant. Consecutive pushes seed each other's index read
  /// (one shared Tail load saved per amortized operation); each element still
  /// runs the full per-operation protocol (Algorithm 2 re-registers before
  /// every LL attempt of every element, see CasSlotPolicy::reserve).
  std::size_t try_push_n(Handle& h, T* const* nodes, std::size_t count) noexcept {
    std::uint64_t hint = kNoHint;
    std::size_t done = 0;
    while (done < count && push_one(h, nodes[done], &hint)) {
      ++done;
    }
    return done;
  }

  /// Pops up to `count` nodes in FIFO order into `out`; returns how many were
  /// obtained. Stops at the first empty report.
  std::size_t try_pop_n(Handle& h, T** out, std::size_t count) noexcept {
    std::uint64_t hint = kNoHint;
    std::size_t done = 0;
    while (done < count) {
      T* node = pop_one(h, &hint);
      if (node == nullptr) {
        break;
      }
      out[done++] = node;
    }
    return done;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Instantaneous size estimate (exact when quiescent).
  [[nodiscard]] std::size_t size_estimate() noexcept {
    const std::uint64_t h = IndexPolicy::load(head_.value);
    const std::uint64_t t = IndexPolicy::load(tail_.value) & kRingIndexMask;
    return t >= h ? static_cast<std::size_t>(t - h) : 0;
  }

  /// Diagnostic counters for tests.
  [[nodiscard]] std::uint64_t head_index() noexcept { return IndexPolicy::load(head_.value); }
  [[nodiscard]] std::uint64_t tail_index() noexcept {
    return IndexPolicy::load(tail_.value) & kRingIndexMask;
  }

  /// Seals the ring: every in-flight and future push fails permanently with
  /// the FULL_QUEUE outcome while pops drain the remaining items. Idempotent;
  /// returns whether THIS call performed the seal (the segmented facade
  /// counts seals with it). Safe to call from any thread at any time.
  bool close() noexcept { return IndexPolicy::close(tail_.value); }

  [[nodiscard]] bool closed() noexcept {
    return (IndexPolicy::load(tail_.value) & kRingClosedBit) != 0;
  }

  /// A closed ring whose Head caught up with the frozen Tail holds nothing
  /// and can never hold anything again (advance() is strict, so the masked
  /// tail at seal time is final). Exact, not an estimate — but only once
  /// closed() is true.
  [[nodiscard]] bool drained() noexcept {
    const std::uint64_t raw = IndexPolicy::load(tail_.value);
    return (raw & kRingClosedBit) != 0 &&
           IndexPolicy::load(head_.value) == (raw & kRingIndexMask);
  }

  /// Resets a QUIESCENT ring (typically one recycled through a segment free
  /// pool) to its freshly-constructed open state. Callers must guarantee no
  /// concurrent operations — the segmented queue only reopens segments that
  /// are private to the reopening thread.
  void reopen() noexcept {
    for (std::size_t i = 0; i < capacity_; ++i) {
      policy_.init_slot(slots_[i], static_cast<std::uint64_t>(i));
    }
    head_.value.store(0);
    tail_.value.store(0);
  }

  /// This instance's live telemetry counters (shared with same-name queues).
  [[nodiscard]] telemetry::QueueMetrics& metrics() noexcept { return telemetry_.metrics(); }
  [[nodiscard]] const std::string& telemetry_name() const noexcept { return telemetry_.name(); }

 protected:
  /// The policy instance — derived queues expose algorithm-specific state
  /// through it (e.g. CasArrayQueue::registry()).
  [[nodiscard]] SlotPolicy& slot_policy() noexcept { return policy_; }

 private:
  static constexpr std::uint64_t kNoHint = ~std::uint64_t{0};

#if defined(EVQ_INJECT_ENABLED) && EVQ_INJECT_ENABLED
  static constexpr bool kInjecting = true;
#else
  static constexpr bool kInjecting = false;
#endif
  /// Whether pop_one may answer an empty poll ahead of the op body.
  static constexpr bool kEmptyPollFastPath = !kInjecting;

  /// What an op body runs in place of trace::OpProbe while no sampled or
  /// recording hook is on: the same calls, all empty, so that body keeps no
  /// probe state.
  struct IdleProbe {
    explicit IdleProbe(std::uint32_t) noexcept {}
    void begin_phase(trace::Phase) noexcept {}
    void help_advance(std::uint64_t, trace::HelpTarget) noexcept {}
    void helped(std::uint64_t, trace::HelpTarget) noexcept {}
  };
  template <bool kSampled>
  using ProbeFor = std::conditional_t<kSampled, trace::OpProbe, IdleProbe>;

  /// The one retry round every push/pop retry path funnels through: count
  /// the round, open the backoff trace phase, wait, bump the retry counter.
  template <typename Probe>
  EVQ_ALWAYS_INLINE void retry_round(ContentionPolicy& backoff, Probe& probe,
                                     std::uint32_t& retries) noexcept {
    telemetry::count_ring_event(telemetry_, telemetry::Counter::kBackoffRound);
    probe.begin_phase(trace::Phase::kBackoff);
    backoff.pause();
    ++retries;
  }

  /// Takes back a node this thread committed at index `t` in a ring whose
  /// Tail was sealed frozen at exactly t (see the stranded-push comment in
  /// push_one). This thread is the only one referencing slot t, so the
  /// pop-protocol loop below terminates: classification is kOccupied (our
  /// own node, generation t) and only a spurious SC can make the commit
  /// fail. Mirrors pop_one's commit discipline — no abandon after a failed
  /// commit, abandon on a classification miss.
  void revert_stranded_push(Slot& slot, std::uint64_t t,
                            typename SlotPolicy::OpCtx& ctx) noexcept {
    for (;;) {
      typename SlotPolicy::Reservation res = policy_.reserve(slot, ctx);
      if (policy_.classify(res, t) == SlotClass::kOccupied) {
        if (policy_.commit_pop(slot, res, t, ctx)) {
          return;
        }
        telemetry::count_ring_event(telemetry_, telemetry::Counter::kSlotScFail);
        continue;
      }
      policy_.abandon(slot, res, ctx);
    }
  }

  /// One full enqueue. `hint`, when non-null and armed, replaces the initial
  /// Tail load (batch amortization) and is re-armed with t+1 on success; any
  /// retry falls back to the live index.
  ///
  /// The op body exists twice. push_op<false> is the common case: no
  /// sampled or recording hook is on, and the body has no trace probe or
  /// flight-recorder hook. push_op<true> runs them all. One
  /// relaxed load picks the body (DESIGN.md §10). push_one stays one
  /// out-of-line function that single, batch and adapter callers share.
  EVQ_NOINLINE bool push_one(Handle& h, T* node, std::uint64_t* hint) noexcept {
    if (EVQ_UNLIKELY(evq::detail::sampled_hooks_on())) {
      return push_sampled(h, node, hint);
    }
    return push_op<false>(h, node, hint);
  }

  EVQ_NOINLINE bool push_sampled(Handle& h, T* node, std::uint64_t* hint) noexcept {
    return push_op<true>(h, node, hint);
  }

  template <bool kSampled>
  EVQ_ALWAYS_INLINE bool push_op(Handle& h, T* node, std::uint64_t* hint) noexcept {
    EVQ_DCHECK(node != nullptr, "cannot enqueue nullptr (it denotes an empty slot)");
    typename SlotPolicy::OpCtx ctx = policy_.begin_op(h);
    ContentionPolicy backoff;
    std::uint32_t retries = 0;
    ProbeFor<kSampled> probe(telemetry_.queue_id());
    for (;;) {
      EVQ_INJECT_POINT(SlotPolicy::kPushEnter);
      probe.begin_phase(trace::Phase::kIndexLoad);
      std::uint64_t t;
      if (hint != nullptr && *hint != kNoHint) {
        t = *hint;
        *hint = kNoHint;  // one-shot: any retry reloads the live index
      } else {
        t = IndexPolicy::load(tail_.value);                          // E5
      }
      // Sealed ring: the push side is permanently shut (segment protocol).
      // Checked before ANY index arithmetic — a raw value carrying the
      // CLOSED bit would corrupt the signed occupancy check and the slot
      // index below. Reported as the paper's FULL_QUEUE outcome: to a caller
      // a sealed ring and a full ring are the same "this ring takes no more
      // items" answer, and the segmented facade counts the seal itself
      // separately (kSegSeal).
      if ((t & kRingClosedBit) != 0) {
        t &= kRingIndexMask;
        telemetry::finish_op<kSampled>(telemetry_, probe, OpOutcome::kPushFull, t, retries);
        return false;
      }
      // E6 — full check. The occupancy must be compared SIGNED: `t` may be
      // stale (another thread advanced Head past it between our two reads),
      // making the unsigned difference underflow and report full spuriously
      // — a bug our model checker found in an earlier unsigned version. A
      // stale-negative occupancy simply proceeds; E10 then catches it.
      if (static_cast<std::int64_t>(t - IndexPolicy::load(head_.value)) >=
          static_cast<std::int64_t>(capacity_)) {
        telemetry::finish_op<kSampled>(telemetry_, probe, OpOutcome::kPushFull, t, retries);
        return false;                                                // E7
      }
      probe.begin_phase(trace::Phase::kSlotAttempt);
      Slot& slot = slots_[t & mask_];                                // E8
      typename SlotPolicy::Reservation res = policy_.reserve(slot, ctx);  // E9
      EVQ_INJECT_POINT(SlotPolicy::kPushReserved);
      if (t != IndexPolicy::load(tail_.value)) {                     // E10
        policy_.abandon(slot, res, ctx);  // index moved under us: restore and retry
        retry_round(backoff, probe, retries);
        continue;
      }
      switch (policy_.classify(res, t)) {
        case SlotClass::kOccupied:
          // A concurrent enqueuer filled this slot but has not advanced Tail
          // yet — help it (E11-E13) and retry with the fresh index.
          policy_.abandon(slot, res, ctx);
          telemetry::count_ring_event(telemetry_, telemetry::Counter::kHelpAdvance);
          probe.begin_phase(trace::Phase::kHelpAdvance);
          IndexPolicy::advance(tail_.value, t);
          probe.help_advance(t, trace::HelpTarget::kTail);
          break;
        case SlotClass::kEmptyFresh:
          if (policy_.commit_push(slot, res, node, t, ctx)) {        // E15
            // Linearized: the item is in the array but Tail still lags —
            // the state the kill-mid-enqueue profile freezes.
            EVQ_INJECT_POINT(SlotPolicy::kPushCommitted);
            if (!IndexPolicy::advance(tail_.value, t)) {             // E16-E17
              // Either a peer advanced Tail for us (the helped side of
              // E11-E13) or the ring was sealed between our E10 check and
              // the advance. The two are distinguishable from the raw tail:
              // a seal that caught us freezes it at exactly t|CLOSED, and
              // because advance() is strict no later value can ever carry
              // that combination. In that case the committed node can never
              // become visible (visibility needs masked Tail > t, which is
              // now unreachable) — take it back and report the push failed,
              // so the caller still owns the node. Safe because no other
              // thread touches slot t: poppers stop at the frozen masked
              // tail (== t) and peer pushers bail at the sealed-check above
              // before helping Tail past it.
              const std::uint64_t raw = IndexPolicy::load(tail_.value);
              if (raw == (t | kRingClosedBit)) {
                revert_stranded_push(slot, t, ctx);
                telemetry::finish_op<kSampled>(telemetry_, probe, OpOutcome::kPushFull, t, retries);
                return false;
              }
              probe.helped(t, trace::HelpTarget::kTail);
            }
            if (hint != nullptr) {
              *hint = t + 1;
            }
            telemetry::finish_op<kSampled>(telemetry_, probe, OpOutcome::kPushOk, t, retries);
            return true;                                             // E18
          }
          // SC failed: the slot changed under our reservation — start over.
          telemetry::count_ring_event(telemetry_, telemetry::Counter::kSlotScFail);
          break;
        case SlotClass::kStaleEmpty:
          // Empty for the wrong generation (two-null scheme): stale index.
          break;
      }
      retry_round(backoff, probe, retries);
    }
  }

  /// One full dequeue; `hint` and the two op bodies as in push_one.
  ///
  /// An idle single pop first runs D5-D7 of its first attempt on its own:
  /// when the ring is empty, the common case of a polling consumer, it
  /// counts kPopEmpty and returns before the op body sets up its frame.
  /// The reads are the body's own, in the same order, and begin_op has no
  /// side effects, so the outcome is the one the body would return. A
  /// fault-injection build (whose kPopEnter point precedes D5) goes straight
  /// to the body.
  EVQ_NOINLINE T* pop_one(Handle& h, std::uint64_t* hint) noexcept {
    if (EVQ_UNLIKELY(evq::detail::sampled_hooks_on())) {
      return pop_sampled(h, hint);
    }
    if constexpr (kEmptyPollFastPath) {
      if (hint == nullptr) {
        const std::uint64_t head = IndexPolicy::load(head_.value);     // D5
        if (head == (IndexPolicy::load(tail_.value) & kRingIndexMask)) {  // D6
          telemetry::count_ring_event(telemetry_, telemetry::Counter::kPopEmpty);
          return nullptr;                                             // D7
        }
      }
    }
    return pop_idle(h, hint);
  }

  EVQ_NOINLINE T* pop_idle(Handle& h, std::uint64_t* hint) noexcept {
    return pop_op<false>(h, hint);
  }

  EVQ_NOINLINE T* pop_sampled(Handle& h, std::uint64_t* hint) noexcept {
    return pop_op<true>(h, hint);
  }

  template <bool kSampled>
  EVQ_ALWAYS_INLINE T* pop_op(Handle& h, std::uint64_t* hint) noexcept {
    typename SlotPolicy::OpCtx ctx = policy_.begin_op(h);
    ContentionPolicy backoff;
    std::uint32_t retries = 0;
    ProbeFor<kSampled> probe(telemetry_.queue_id());
    for (;;) {
      EVQ_INJECT_POINT(SlotPolicy::kPopEnter);
      probe.begin_phase(trace::Phase::kIndexLoad);
      std::uint64_t head;
      if (hint != nullptr && *hint != kNoHint) {
        head = *hint;
        *hint = kNoHint;
      } else {
        head = IndexPolicy::load(head_.value);                       // D5
      }
      // D6 — the CLOSED bit is stripped: pops drain a sealed ring normally,
      // and with the masked tail frozen (strict advance) "empty" here is a
      // FINAL verdict for a closed ring.
      if (head == (IndexPolicy::load(tail_.value) & kRingIndexMask)) {
        telemetry::finish_op<kSampled>(telemetry_, probe, OpOutcome::kPopEmpty, head, retries);
        return nullptr;                                              // D7
      }
      probe.begin_phase(trace::Phase::kSlotAttempt);
      Slot& slot = slots_[head & mask_];                             // D8
      typename SlotPolicy::Reservation res = policy_.reserve(slot, ctx);  // D9
      EVQ_INJECT_POINT(SlotPolicy::kPopReserved);
      if (head != IndexPolicy::load(head_.value)) {                  // D10
        policy_.abandon(slot, res, ctx);
        retry_round(backoff, probe, retries);
        continue;
      }
      if (policy_.classify(res, head) == SlotClass::kOccupied) {
        if (policy_.commit_pop(slot, res, head, ctx)) {              // D15
          // Linearized: the slot is empty but Head still lags.
          EVQ_INJECT_POINT(SlotPolicy::kPopCommitted);
          if (!IndexPolicy::advance(head_.value, head)) {            // D16-D17
            // A peer advanced Head for us — the helped side of D11-D13.
            probe.helped(head, trace::HelpTarget::kHead);
          }
          if (hint != nullptr) {
            *hint = head + 1;
          }
          telemetry::finish_op<kSampled>(telemetry_, probe, OpOutcome::kPopOk, head, retries);
          return policy_.value_of(res);                              // D18
        }
        telemetry::count_ring_event(telemetry_, telemetry::Counter::kSlotScFail);
      } else {
        // The item at head was already removed by a dequeuer that has not
        // advanced Head yet — help it (D11-D13) and retry.
        policy_.abandon(slot, res, ctx);
        telemetry::count_ring_event(telemetry_, telemetry::Counter::kHelpAdvance);
        probe.begin_phase(trace::Phase::kHelpAdvance);
        IndexPolicy::advance(head_.value, head);
        probe.help_advance(head, trace::HelpTarget::kHead);
      }
      retry_round(backoff, probe, retries);
    }
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  // Indices on their own cache lines: both are write-hot and shared.
  CachePadded<typename IndexPolicy::Cell> head_{};
  CachePadded<typename IndexPolicy::Cell> tail_{};
  std::unique_ptr<Slot[]> slots_;
  [[no_unique_address]] SlotPolicy policy_;
  // LAST member on purpose: destroyed first, which clears the depth gauge
  // (it reads head_/tail_ through `this`) while those indices still exist.
  telemetry::ScopedQueueMetrics telemetry_;
};

}  // namespace evq
