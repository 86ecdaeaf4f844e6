// Flat-combining facade over a batch-capable lock-free ring (DESIGN.md §14).
//
// The ring engines fight contention by retrying: every loser of a CAS/SC
// race re-runs the protocol, so past the core count the shared Head/Tail
// lines ping-pong and throughput collapses (the Fig. 6 cliffs). The
// combining idiom — SimQueue / flat combining, and the helping-record
// vocabulary of wCQ (arXiv:2201.02179) — inverts that: a contended thread
// PUBLISHES its operation into a per-thread announce record and one winner
// (the combiner) applies everyone's pending work in a batch, turning N
// cache-line brawls into one pass over the announce array plus N amortized
// ring operations through the batch entry points (try_push_n/try_pop_n,
// which seed each other's index reads — see ring_engine.hpp).
//
// Design:
//  * Announce records are cache-line-striped: one Record per line, claimed
//    by handle slot. The record array is statically PARTITIONED between the
//    two claiming disciplines so they can never meet on one record: the
//    first kExclusiveRecords handles own records [0, kExclusiveRecords)
//    exclusively (publish = plain node store + one release store); every
//    later handle maps round-robin onto the remaining shared records and
//    claims with a CAS, falling back to a direct ring operation when the
//    record is busy — the ring is itself lock-free and linearizable, so a
//    direct op is always correct. (Without the partition an exclusive
//    owner's plain publish could race a sharer's CAS claim on the same
//    record, and one combined result would be handed to two waiters.)
//  * The combiner lock is a single word acquired by CAS. The winner makes
//    ONE bounded pass over the records (≤ kRecordCount ops per
//    acquisition), draining pending pushes through try_push_n and pending
//    pops through try_pop_n, then releases. Losers spin-then-yield on their
//    own record with the existing Backoff; every loser iteration also
//    re-tries the lock, so an unserved announcer becomes the next combiner
//    as soon as the lock frees.
//  * Progress: a pending (unclaimed) announce can always be WITHDRAWN by
//    its owner (CAS pending -> idle) and applied directly to the lock-free
//    ring, so a stalled combiner cannot block ops it has not claimed; the
//    only wait that cannot be escaped is the short claimed->done window in
//    which a combiner is mid-application of the op on the ring. See
//    DESIGN.md §14 for the full bounded-help argument.
//  * Adaptive engagement: combining costs two RMWs + a record scan per op,
//    which would be ~20-30% overhead on an uncontended 50ns ring op. Ops
//    therefore run DIRECTLY on the ring while the queue believes it is
//    uncontended; every handle's kProbeEvery-th op takes the announce path
//    as a probe, and any observed collision (busy record, contended lock,
//    a combine that served more than its own op) flips the queue into
//    combining mode. A combiner that has served only itself for
//    kSoloStreakLimit consecutive passes flips back. The heuristic is
//    performance-only — both paths are linearizable at all times — and is
//    what keeps the single-thread overhead within the ≤5% CI gate.
//
// Telemetry: comb_submit (announce-path ops), comb_combine (combining
// passes), comb_batch_n (ops applied by combiners; batch_n / combine is the
// mean batch size). Trace: when the combiner applies a PEER's op it records
// a help span with HelpTarget::kCombiner keyed by a per-queue serial, and
// the served thread drops the matching helped marker — the exporter joins
// the two into combiner→helped flow arrows (visible in the pairwise
// scenario with --trace).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "evq/common/backoff.hpp"
#include "evq/common/cacheline.hpp"
#include "evq/common/config.hpp"
#include "evq/core/queue_traits.hpp"
#include "evq/telemetry/registry.hpp"
#include "evq/trace/trace.hpp"

namespace evq {

template <typename Q>
  requires ConcurrentPtrQueue<Q> && BatchPtrQueue<Q>
class CombiningQueue {
 public:
  using value_type = typename Q::value_type;
  using pointer = value_type*;
  using T = value_type;

  /// One announce record per handle slot. How many is a latency/footprint
  /// trade: the combiner's bounded pass touches every record, so the array
  /// must stay small enough to scan in the shadow of one ring operation.
  /// 16 lines = 1 KiB.
  static constexpr std::size_t kRecordCount = 16;
  /// Static partition of the record array between the two claiming
  /// disciplines. Records [0, kExclusiveRecords) belong to the first
  /// kExclusiveRecords handles one-to-one (plain-store publish, no claim
  /// CAS); records [kExclusiveRecords, kRecordCount) are shared round-robin
  /// by every later handle and claimed by CAS. The ranges are disjoint, so
  /// an exclusive owner's plain publish can never race a sharer's claim —
  /// the partition is a correctness requirement, not a tuning knob.
  static constexpr std::size_t kExclusiveRecords = kRecordCount / 2;
  static constexpr std::size_t kSharedRecords = kRecordCount - kExclusiveRecords;
  /// Every handle's kProbeEvery-th op takes the announce path while the
  /// queue is in direct mode, so contention is (re)discovered without
  /// taxing the uncontended fast path.
  static constexpr std::uint32_t kProbeEvery = 64;
  /// Consecutive self-only combining passes before falling back to direct
  /// mode.
  static constexpr std::uint32_t kSoloStreakLimit = 64;

  class Handle {
   public:
    explicit Handle(typename Q::Handle inner, std::uint32_t slot)
        : inner_(std::move(inner)), slot_(slot) {}

   private:
    friend class CombiningQueue;
    typename Q::Handle inner_;
    std::uint32_t slot_;
    std::uint32_t probe_clock_ = 0;
  };

  /// `min_capacity` is forwarded to the inner ring (which rounds to a power
  /// of two); `name` is this facade's telemetry name, the inner ring
  /// registers under "<name>/ring".
  explicit CombiningQueue(std::size_t min_capacity, std::string_view name = "comb")
      : inner_(min_capacity, std::string(name) + "/ring"), telemetry_(name) {
    telemetry_.set_depth_gauge([this] { return static_cast<std::uint64_t>(size_estimate()); });
  }

  CombiningQueue(const CombiningQueue&) = delete;
  CombiningQueue& operator=(const CombiningQueue&) = delete;

  [[nodiscard]] Handle handle() {
    return Handle{inner_.handle(), next_slot_.fetch_add(1, std::memory_order_relaxed)};
  }

  bool try_push(Handle& h, T* node) noexcept {
    if (!engaged(h)) {
      return inner_.try_push(h.inner_, node);
    }
    return submit_push(h, node);
  }

  T* try_pop(Handle& h) noexcept {
    if (!engaged(h)) {
      return inner_.try_pop(h.inner_);
    }
    return submit_pop(h);
  }

  /// Batch entry points (maximal-prefix semantics, like the ring's). In
  /// direct mode these forward to the ring's amortized batch ops — the
  /// composition the combiner itself relies on; in combining mode each
  /// element is its own announce (the cross-thread batching the combiner
  /// performs dwarfs the per-call hint saving).
  std::size_t try_push_n(Handle& h, T* const* nodes, std::size_t count) noexcept {
    if (!engaged(h)) {
      return inner_.try_push_n(h.inner_, nodes, count);
    }
    std::size_t done = 0;
    while (done < count && submit_push(h, nodes[done])) {
      ++done;
    }
    return done;
  }

  std::size_t try_pop_n(Handle& h, T** out, std::size_t count) noexcept {
    if (!engaged(h)) {
      return inner_.try_pop_n(h.inner_, out, count);
    }
    std::size_t done = 0;
    while (done < count) {
      T* node = submit_pop(h);
      if (node == nullptr) {
        break;
      }
      out[done++] = node;
    }
    return done;
  }

  [[nodiscard]] std::size_t capacity() const noexcept
    requires BoundedPtrQueue<Q>
  {
    return inner_.capacity();
  }

  [[nodiscard]] std::size_t size_estimate() noexcept { return inner_.size_estimate(); }

  /// True while the adaptive heuristic routes ops through announce records
  /// (exposed for tests; racy read, like the heuristic itself).
  [[nodiscard]] bool combining_mode() const noexcept {
    return state_.mode.load(std::memory_order_relaxed) != 0;
  }

  [[nodiscard]] Q& underlying() noexcept { return inner_; }
  [[nodiscard]] telemetry::QueueMetrics& metrics() noexcept { return telemetry_.metrics(); }

 private:
  // --- announce-record protocol words ------------------------------------
  // idle -> setup (claim, shared slots only) -> pending -> taken -> done ->
  // idle. Owners may withdraw pending -> idle; only a combiner moves
  // pending -> taken, and only it completes taken -> done.
  static constexpr std::uint64_t kIdle = 0;
  static constexpr std::uint64_t kSetup = 1;
  static constexpr std::uint64_t kPendingPush = 2;
  static constexpr std::uint64_t kPendingPop = 3;
  static constexpr std::uint64_t kTakenPush = 4;
  static constexpr std::uint64_t kTakenPop = 5;
  static constexpr std::uint64_t kDonePushOk = 6;
  static constexpr std::uint64_t kDonePushFull = 7;
  static constexpr std::uint64_t kDonePopOk = 8;
  static constexpr std::uint64_t kDonePopEmpty = 9;

  static constexpr bool is_done(std::uint64_t w) noexcept { return w >= kDonePushOk; }

  struct alignas(kCacheLineSize) Record {
    std::atomic<std::uint64_t> word{kIdle};
    // Plain fields, ordered by the word's release/acquire transitions: the
    // publisher writes node before releasing pending; the combiner writes
    // node (pop result) and serial before releasing done.
    T* node = nullptr;
    std::uint64_t serial = 0;
  };

  struct alignas(kCacheLineSize) CombinerState {
    std::atomic<std::uint32_t> lock{0};
    std::atomic<std::uint32_t> mode{0};  // 0 = direct, 1 = combining
    // Guarded by `lock` (plain fields; successive holders are ordered by
    // the lock's acquire/release pair).
    std::uint64_t serial = 0;
    std::uint32_t solo_streak = 0;
  };

  /// The per-op routing decision: announce when the queue believes it is
  /// contended, probe the announce path every kProbeEvery-th op otherwise.
  /// One relaxed load + a handle-local counter on the direct fast path.
  [[nodiscard]] bool engaged(Handle& h) noexcept {
    if (state_.mode.load(std::memory_order_relaxed) != 0) {
      return true;
    }
    if (++h.probe_clock_ >= kProbeEvery) {
      h.probe_clock_ = 0;
      return true;
    }
    return false;
  }

  [[nodiscard]] Record& record_of(const Handle& h) noexcept {
    if (owns_exclusively(h)) {
      return records_[h.slot_];
    }
    return records_[kExclusiveRecords + (h.slot_ - kExclusiveRecords) % kSharedRecords];
  }

  [[nodiscard]] bool owns_exclusively(const Handle& h) const noexcept {
    return h.slot_ < kExclusiveRecords;
  }

  [[nodiscard]] bool try_acquire_lock() noexcept {
    return state_.lock.load(std::memory_order_relaxed) == 0 &&
           state_.lock.exchange(1, std::memory_order_acquire) == 0;
  }

  void release_lock() noexcept { state_.lock.store(0, std::memory_order_release); }

  void enter_combining_mode() noexcept {
    state_.mode.store(1, std::memory_order_relaxed);
  }

  /// Publishes the op into this handle's record. Returns nullptr when the
  /// record is busy (shared slot in use by another thread) — the caller
  /// falls back to a direct ring op.
  Record* announce(Handle& h, std::uint64_t pending_word, T* node) noexcept {
    Record& r = record_of(h);
    if (owns_exclusively(h)) {
      EVQ_DCHECK(r.word.load(std::memory_order_relaxed) == kIdle,
                 "exclusive announce record reused while in flight");
    } else {
      std::uint64_t expected = kIdle;
      if (!r.word.compare_exchange_strong(expected, kSetup, std::memory_order_acquire)) {
        // Another thread shares this record and is mid-op: observed
        // contention, but no announce possible — go direct.
        enter_combining_mode();
        return nullptr;
      }
    }
    r.node = node;
    r.word.store(pending_word, std::memory_order_release);
    return &r;
  }

  /// Waits for `r` to complete, combining or withdrawing as opportunities
  /// arise. Returns the done-state word, or kIdle when the op was
  /// withdrawn (caller applies it directly).
  std::uint64_t await(Handle& h, Record& r, std::uint64_t pending_word,
                      trace::OpProbe& probe) noexcept {
    Backoff spin;
    bool lock_missed = false;
    bool self_combined = false;
    for (;;) {
      const std::uint64_t w = r.word.load(std::memory_order_acquire);
      if (is_done(w)) {
        if (lock_missed) {
          enter_combining_mode();
        }
        if (!self_combined) {
          probe.helped(r.serial, trace::HelpTarget::kCombiner);
        }
        return w;
      }
      if (try_acquire_lock()) {
        combine(h, &r, probe);
        release_lock();
        self_combined = true;
        continue;  // combine() serves every pending record, ours included
      }
      lock_missed = true;
      probe.begin_phase(trace::Phase::kBackoff);
      spin.pause();
      if (spin.is_yielding()) {
        // The combiner is taking long (parked, preempted, or stalled
        // pre-claim): withdraw and run the op on the lock-free ring
        // directly. Fails only if a combiner already claimed the record,
        // in which case its completion is imminent — keep waiting.
        // acq_rel: the release half publishes our plain `node` write to
        // whoever claims this record next (a shared-slot CAS claimer
        // synchronizes on this store, just as it does on the release kIdle
        // stores in submit_push/submit_pop).
        std::uint64_t expected = pending_word;
        if (r.word.compare_exchange_strong(expected, kIdle, std::memory_order_acq_rel)) {
          enter_combining_mode();
          return kIdle;
        }
      }
    }
  }

  bool submit_push(Handle& h, T* node) noexcept {
    telemetry_.inc(telemetry::Counter::kCombSubmit);
    trace::OpProbe probe(telemetry_.queue_id());
    Record* r = announce(h, kPendingPush, node);
    if (r == nullptr) {
      return inner_.try_push(h.inner_, node);
    }
    const std::uint64_t w = await(h, *r, kPendingPush, probe);
    if (w == kIdle) {
      return inner_.try_push(h.inner_, node);  // withdrawn
    }
    const std::uint64_t serial = r->serial;  // read BEFORE releasing the record
    r->word.store(kIdle, std::memory_order_release);
    probe.finish(w == kDonePushOk ? OpOutcome::kPushOk : OpOutcome::kPushFull, serial, 0);
    return w == kDonePushOk;
  }

  T* submit_pop(Handle& h) noexcept {
    telemetry_.inc(telemetry::Counter::kCombSubmit);
    trace::OpProbe probe(telemetry_.queue_id());
    Record* r = announce(h, kPendingPop, nullptr);
    if (r == nullptr) {
      return inner_.try_pop(h.inner_);
    }
    const std::uint64_t w = await(h, *r, kPendingPop, probe);
    if (w == kIdle) {
      return inner_.try_pop(h.inner_);  // withdrawn
    }
    T* node = w == kDonePopOk ? r->node : nullptr;
    const std::uint64_t serial = r->serial;
    r->word.store(kIdle, std::memory_order_release);
    probe.finish(node != nullptr ? OpOutcome::kPopOk : OpOutcome::kPopEmpty, serial, 0);
    return node;
  }

  /// One bounded combining pass (holding the lock): claim every pending
  /// record, apply pushes and pops through the ring's batch entry points,
  /// publish results. At most kRecordCount ops per acquisition — the bound
  /// that keeps a single acquisition's work finite.
  void combine(Handle& h, Record* self, trace::OpProbe& probe) noexcept {
    telemetry_.inc(telemetry::Counter::kCombCombine);
    T* push_nodes[kRecordCount];
    Record* push_recs[kRecordCount];
    Record* pop_recs[kRecordCount];
    std::size_t pushes = 0;
    std::size_t pops = 0;
    for (Record& r : records_) {
      std::uint64_t w = r.word.load(std::memory_order_acquire);
      if (w == kPendingPush) {
        if (r.word.compare_exchange_strong(w, kTakenPush, std::memory_order_acquire)) {
          push_recs[pushes] = &r;
          push_nodes[pushes] = r.node;  // read AFTER the claim: no ABA window
          ++pushes;
        }
      } else if (w == kPendingPop) {
        if (r.word.compare_exchange_strong(w, kTakenPop, std::memory_order_acquire)) {
          pop_recs[pops++] = &r;
        }
      }
    }
    if (pushes > 0) {
      const std::size_t landed = inner_.try_push_n(h.inner_, push_nodes, pushes);
      for (std::size_t i = 0; i < pushes; ++i) {
        Record* r = push_recs[i];
        r->serial = ++state_.serial;
        if (r != self) {
          probe.help_advance(r->serial, trace::HelpTarget::kCombiner);
        }
        r->word.store(i < landed ? kDonePushOk : kDonePushFull, std::memory_order_release);
      }
      telemetry_.inc(telemetry::Counter::kCombBatchN, pushes);
    }
    if (pops > 0) {
      T* out[kRecordCount];
      const std::size_t got = inner_.try_pop_n(h.inner_, out, pops);
      for (std::size_t i = 0; i < pops; ++i) {
        Record* r = pop_recs[i];
        r->node = i < got ? out[i] : nullptr;
        r->serial = ++state_.serial;
        if (r != self) {
          probe.help_advance(r->serial, trace::HelpTarget::kCombiner);
        }
        r->word.store(i < got ? kDonePopOk : kDonePopEmpty, std::memory_order_release);
      }
      telemetry_.inc(telemetry::Counter::kCombBatchN, pops);
    }
    // Mode decay: a combiner that keeps finding only its own op is paying
    // the announce tax for no batching — return to direct mode.
    const std::size_t total = pushes + pops;
    if (total > 1) {
      state_.solo_streak = 0;
      enter_combining_mode();
    } else if (state_.mode.load(std::memory_order_relaxed) != 0 &&
               ++state_.solo_streak >= kSoloStreakLimit) {
      state_.solo_streak = 0;
      state_.mode.store(0, std::memory_order_relaxed);
    }
  }

  Q inner_;
  Record records_[kRecordCount];
  CombinerState state_;
  std::atomic<std::uint32_t> next_slot_{0};
  // LAST member on purpose: destroyed first, clearing the depth gauge while
  // the inner queue it reads still exists.
  telemetry::ScopedQueueMetrics telemetry_;
};

}  // namespace evq
