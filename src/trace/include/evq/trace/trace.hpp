// evq::trace — sampled per-operation phase tracing (DESIGN.md §11).
//
// The telemetry counters (src/telemetry) say HOW OFTEN an op retried, backed
// off or help-advanced a lagging index; this layer says WHERE the
// nanoseconds of an individual operation went. A scoped OpProbe in the ring
// engine's push_one/pop_one (and ReclaimProbe in the HP/epoch/free-pool
// reclamation paths) records tsc-stamped span events — index load, slot
// attempt, backoff round, help-advance, reclaim — into pooled per-thread
// lock-free rings, and src/trace/chrome_trace.hpp exports them as Chrome
// Trace Format JSON that Perfetto renders as one track per thread with
// per-phase sub-slices and helper→helped flow arrows.
//
// Cost model (the reason this can ride in every build):
//  * Tracing disabled (default): the OpProbe constructor is one thread-local
//    countdown read and one relaxed load of the global sampling period, each
//    with a predictable branch, all inline — the same shape as
//    telemetry::record_trace and stats::on_cas. A ring-engine op constructs
//    no probe at all while no sampled hook is on (evq::detail::
//    sampled_hooks_on(), common/thread_block.hpp).
//  * Tracing enabled at 1-in-N: unsampled ops additionally pay one
//    thread-local countdown decrement; only every Nth op per thread stamps
//    timestamps and writes ring records. EXPERIMENTS.md E7 pins the
//    measured overhead at 1-in-64 to <= 5% on the worst-case array queues.
//    This is the only per-op sampler: the health Monitor takes its push/pop
//    latency percentiles from the sampled kOp spans (src/health).
//  * -DEVQ_TRACE=OFF (CMake option EVQ_TRACE): probe bodies compile to
//    nothing. The ring pool, snapshot and export APIs stay compiled (they
//    are cold) so instrumented code and tools need no #ifdefs — the
//    exported trace is simply empty.
//
// Ring infrastructure: the flight recorder's (telemetry/flight_recorder.hpp)
// — per-thread rings of all-relaxed-atomic records, written only by the
// owning thread, racily-but-atomically readable by dumpers while writers run
// (TSan-clean; a torn logical record is acceptable in a diagnostic, a data
// race is not), kept in the same ring pool (telemetry/ring_pool.hpp), and
// stamped with the same trace_clock() (raw TSC on x86-64, steady_clock ticks
// elsewhere) and its ns_per_tick() calibration.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "evq/common/config.hpp"
#include "evq/common/thread_block.hpp"
#include "evq/telemetry/flight_recorder.hpp"
#include "evq/telemetry/ring_pool.hpp"

#if !defined(EVQ_TRACE)
#define EVQ_TRACE 1
#endif

namespace evq::trace {

/// Reclaim probes from layers that are not wired to a queue use this id;
/// the exporter labels them "(unattributed)".
inline constexpr std::uint32_t kNoQueue = 0xFFFFFFFFu;

/// What a ring record describes. One operation produces one kOp record plus
/// its kPhase sub-slices; help-advance and reclamation get their own kinds
/// because the exporter treats them specially (flow events / always-on
/// recording, see below).
enum class EventKind : std::uint8_t {
  kOp = 0,      // one whole push/pop: code is an OpOutcome
  kPhase,       // a sub-slice of the enclosing op: code is a Phase
  kHelp,        // a help-advance span: code is a HelpTarget
  kReclaim,     // a reclamation-layer span: code is a ReclaimKind
};

/// Per-op phases of the ring engine's protocol (Fig. 3/Fig. 5 line ranges in
/// parentheses; see ring_engine.hpp for the E/D mapping).
enum class Phase : std::uint8_t {
  kIndexLoad = 0,  // index read + boundary check (E5-E7 / D5-D7)
  kSlotAttempt,    // reserve, re-validate, classify, commit (E8-E15 / D8-D15)
  kBackoff,        // one ContentionPolicy::pause() on a retry path
  kHelpAdvance,    // internal state while a help span is open (never exported
                   // as a kPhase record — it closes as a kHelp record)
  kFaaReserve,     // SCQ-generation ticket claim: the unconditional fetch_add
                   // (no load/validate round — distinct from kIndexLoad)
  kSlotSkip,       // SCQ dequeue skipping an entry: cycle bump or unsafe mark
                   // (a slot given up on, not an attempt — distinct from
                   // kSlotAttempt)
  kSegAppend,      // segmented-queue push slow path: seal the full segment,
                   // get a fresh one and link it
  kSegRetire,      // segmented-queue pop slow path: unlink a drained sealed
                   // segment and retire it to reclamation
};

/// Which lagging index a help-advance repaired. Tail-helps pair with the
/// push that committed at the index; head-helps pair with the pop.
/// kCombiner is the combining-queue flavor (core/combining_queue.hpp): the
/// combiner records the helper side when it applies a PEER's announced op,
/// the submitting thread records the helped side when it observes its record
/// completed, and the two join on the combiner's per-op serial (carried in
/// `index`) instead of a ring index.
enum class HelpTarget : std::uint8_t { kTail = 0, kHead, kCombiner };

enum class ReclaimKind : std::uint8_t { kHpScan = 0, kEpochAdvance, kPoolTake };

const char* phase_name(Phase p) noexcept;
const char* help_target_name(HelpTarget t) noexcept;
const char* reclaim_kind_name(ReclaimKind k) noexcept;

/// One span record. All fields are relaxed atomics for the same reason as
/// ThreadTrace::Record: the exporter may read while the owner thread writes.
///
/// kHelp records live in their own small area (kHelpSpans) instead of the
/// main ring: helps are orders of magnitude rarer than phases, and in the
/// main ring a help recorded early in a run would be overwritten by phase
/// spam long before export. The separate area retains every recent help, so
/// the exporter can pair the helper's record with the helped thread's
/// always-on marker (see OpProbe::helped) even in million-op runs.
class SpanRing {
 public:
  // kSpans trades post-mortem depth against cache footprint: at 40 bytes per
  // record the main area is 40 KiB, small enough to stay L2-resident while a
  // sampled workload cycles through it. The first cut used 4096 (160 KiB)
  // and the extra evictions nearly doubled the measured 1-in-64 overhead on
  // the 30ns-per-op array queues.
  static constexpr std::size_t kSpans = 1024;      // power of two
  static constexpr std::size_t kHelpSpans = 512;   // power of two

  struct Record {
    std::atomic<std::uint64_t> t_start{0};
    std::atomic<std::uint64_t> t_end{0};
    std::atomic<std::uint64_t> index{0};       // op/help slot index; 0 for reclaim
    std::atomic<std::uint32_t> queue_id{0};    // telemetry registry id (or kNoQueue)
    std::atomic<std::uint32_t> extra{0};       // op: retries; others: 0
    std::atomic<std::uint32_t> thread_ord{0};  // owner at write time (rings are reused)
    std::atomic<std::uint8_t> kind{0};         // EventKind
    std::atomic<std::uint8_t> code{0};         // OpOutcome/Phase/HelpTarget/ReclaimKind
  };

  /// Single-writer: only the owning thread records, so the position bump is
  /// a plain load+store, not an RMW — a lock-prefixed xadd would cost more
  /// than the rest of the record write combined.
  void record(EventKind kind, std::uint8_t code, std::uint32_t queue_id,
              std::uint64_t index, std::uint32_t extra, std::uint64_t t_start,
              std::uint64_t t_end) noexcept {
    const std::uint64_t at = pos_.load(std::memory_order_relaxed);
    pos_.store(at + 1, std::memory_order_relaxed);
    write(records_[at & (kSpans - 1)], kind, code, queue_id, index, extra, t_start, t_end);
  }

  /// Records into the help area. `extra` distinguishes the two sides of a
  /// help: 0 = helper (this thread advanced a peer's index), 1 = helped
  /// (this thread's own publish found the index already advanced).
  void record_help(std::uint8_t code, std::uint32_t queue_id, std::uint64_t index,
                   std::uint32_t extra, std::uint64_t t_start,
                   std::uint64_t t_end) noexcept {
    const std::uint64_t at = help_pos_.load(std::memory_order_relaxed);
    help_pos_.store(at + 1, std::memory_order_relaxed);
    write(help_records_[at & (kHelpSpans - 1)], EventKind::kHelp, code, queue_id, index,
          extra, t_start, t_end);
  }

  [[nodiscard]] std::uint64_t total_records() const noexcept {
    return pos_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const Record& record_at(std::uint64_t logical_pos) const noexcept {
    return records_[logical_pos & (kSpans - 1)];
  }
  [[nodiscard]] std::uint64_t total_help_records() const noexcept {
    return help_pos_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const Record& help_record_at(std::uint64_t logical_pos) const noexcept {
    return help_records_[logical_pos & (kHelpSpans - 1)];
  }
  [[nodiscard]] std::uint32_t owner_ordinal() const noexcept {
    return owner_ord_.load(std::memory_order_relaxed);
  }

  void assign_owner(std::uint32_t ordinal) noexcept {
    owner_ord_.store(ordinal, std::memory_order_relaxed);
  }

 private:
  void write(Record& r, EventKind kind, std::uint8_t code, std::uint32_t queue_id,
             std::uint64_t index, std::uint32_t extra, std::uint64_t t_start,
             std::uint64_t t_end) noexcept {
    r.t_start.store(t_start, std::memory_order_relaxed);
    r.t_end.store(t_end, std::memory_order_relaxed);
    r.index.store(index, std::memory_order_relaxed);
    r.queue_id.store(queue_id, std::memory_order_relaxed);
    r.extra.store(extra, std::memory_order_relaxed);
    r.thread_ord.store(owner_ord_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    r.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
    r.code.store(code, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> pos_{0};
  std::atomic<std::uint64_t> help_pos_{0};
  std::atomic<std::uint32_t> owner_ord_{0};
  Record records_[kSpans];
  Record help_records_[kHelpSpans];
};

namespace detail {

/// 0 = tracing off; N>0 = each thread records every Nth probe.
extern std::atomic<std::uint32_t> g_sample_every;

using SpanRingPool = telemetry::ThreadRingPool<SpanRing, &evq::detail::ThreadBlock::span_ring>;

/// The per-probe sampling gate: arms every `period`-th call on this thread
/// (the first call after enabling always arms, which makes sampling ratios
/// deterministic in tests). Countdown-first so the common unsampled probe
/// touches ONLY the thread-local counter — the global period is consulted
/// just when the countdown expires (and on every probe while tracing is
/// off, where it reads 0 and stays false). The countdown and this thread's
/// ring live in the per-thread block (common/thread_block.hpp).
EVQ_ALWAYS_INLINE bool arm_sample() noexcept {
  std::uint32_t& countdown = evq::detail::t_block.trace_countdown;
  if (countdown > 1) {
    --countdown;
    return false;
  }
  const std::uint32_t every = g_sample_every.load(std::memory_order_relaxed);
  if (EVQ_LIKELY(every == 0)) {
    return false;
  }
  countdown = every;
  return true;
}

inline SpanRing& ring() noexcept {
  SpanRing* r = evq::detail::t_block.span_ring;
  return r != nullptr ? *r : SpanRingPool::attach();
}

// --- test seams (trace_test.cpp) ---
/// Clears the pool (rings move to a leaked graveyard), resets ordinals and
/// detaches the calling thread. Only for tests: racing threads must have
/// been joined.
void reset_for_test();
/// Appends a fresh ring with the next ordinal without attaching it to any
/// thread — lets a single-threaded test fabricate multi-track traces.
SpanRing& make_ring_for_test();

}  // namespace detail

/// Enables recording at 1-in-`every` ops per thread (1 = every op,
/// 0 = disable). Also resets the calling thread's countdown so its next
/// probe arms immediately.
void set_sampling(std::uint32_t every) noexcept;
[[nodiscard]] std::uint32_t sampling_period() noexcept;
inline bool enabled() noexcept {
  return detail::g_sample_every.load(std::memory_order_relaxed) != 0;
}

/// Plain-integer copy of one ring record plus its owning ring's ordinal —
/// what the exporter (and tests) consume.
struct SpanSnapshot {
  std::uint32_t thread_ord = 0;
  EventKind kind = EventKind::kOp;
  std::uint8_t code = 0;
  std::uint32_t queue_id = 0;
  std::uint32_t extra = 0;
  std::uint64_t index = 0;
  std::uint64_t t_start = 0;
  std::uint64_t t_end = 0;
};

/// Racy-but-atomic snapshot of every ring's surviving window (newest kSpans
/// records per ring), in per-ring write order. Safe while writers run.
std::vector<SpanSnapshot> snapshot_spans();

/// RAII probe wrapping one ring-engine operation. The ring engine drives it
/// explicitly:
///
///   OpProbe probe(queue_id);
///   loop:
///     probe.begin_phase(Phase::kIndexLoad);   // closes the previous phase
///     ... probe.begin_phase(Phase::kSlotAttempt); ...
///     on help: probe.begin_phase(Phase::kHelpAdvance); <advance>;
///              probe.help_advance(index, HelpTarget::kTail);
///     on exit: probe.finish(OpOutcome::..., index, retries);
///
/// Every method is a no-op unless the constructor's sampling gate armed —
/// EXCEPT help_advance, which records an instant event even on unsampled
/// ops whenever tracing is enabled: help events are rare, they are the
/// paper's signature mechanism, and the exporter needs them on BOTH sides
/// to draw a helper→helped flow, so dropping 63 of 64 would leave almost
/// no pairs.
class OpProbe {
 public:
  /// Values of SpanSnapshot::extra on kHelp records.
  static constexpr std::uint32_t kHelperSide = 0;
  static constexpr std::uint32_t kHelpedSide = 1;

  /// An armed probe stamps the op start here, so every sampled op has a
  /// real duration, including one that returns before opening a phase
  /// (SCQ's threshold empty pop).
  EVQ_ALWAYS_INLINE explicit OpProbe(std::uint32_t queue_id) noexcept {
#if EVQ_TRACE
    queue_id_ = queue_id;
    armed_ = detail::arm_sample();
    if (armed_) {
      t_op_start_ = telemetry::trace_clock();
    }
#else
    (void)queue_id;
#endif
  }

  OpProbe(const OpProbe&) = delete;
  OpProbe& operator=(const OpProbe&) = delete;
  ~OpProbe() = default;  // ring-engine ops always reach finish()

  /// Starts phase `p`, emitting the previous phase's sub-slice (if any).
  void begin_phase(Phase p) noexcept {
#if EVQ_TRACE
    if (!armed_) {
      return;
    }
    const std::uint64_t now = telemetry::trace_clock();
    close_phase(now);
    phase_ = static_cast<std::uint8_t>(p);
    t_phase_start_ = now;
#else
    (void)p;
#endif
  }

  /// Records the help-advance span opened by begin_phase(kHelpAdvance) and
  /// its target index. On unsampled ops (tracing enabled) this still emits
  /// an instant help event — see the class comment. Help records go to the
  /// ring's dedicated help area so they survive phase-record churn.
  void help_advance(std::uint64_t index, HelpTarget target) noexcept {
#if EVQ_TRACE
    if (armed_) {
      const std::uint64_t now = telemetry::trace_clock();
      detail::ring().record_help(static_cast<std::uint8_t>(target), queue_id_, index,
                                 kHelperSide, t_phase_start_, now);
      phase_ = kNoPhase;
      t_phase_start_ = now;
    } else if (enabled()) {
      const std::uint64_t now = telemetry::trace_clock();
      detail::ring().record_help(static_cast<std::uint8_t>(target), queue_id_, index,
                                 kHelperSide, now, now);
    }
#else
    (void)index;
    (void)target;
#endif
  }

  /// The other side of a help: this op's own index publish found the index
  /// already advanced — a peer helped it. Always recorded (instant event)
  /// when tracing is enabled, like the helper side, so the exporter can
  /// join the two into a flow arrow regardless of sampling. Best-effort on
  /// weak LL/SC indices, where a spurious SC failure also lands here (the
  /// exporter drops markers with no matching helper).
  void helped(std::uint64_t index, HelpTarget target) noexcept {
#if EVQ_TRACE
    if (enabled()) {
      const std::uint64_t now = telemetry::trace_clock();
      detail::ring().record_help(static_cast<std::uint8_t>(target), queue_id_, index,
                                 kHelpedSide, now, now);
    }
#else
    (void)index;
    (void)target;
#endif
  }

  /// Ends the op: emits the last phase sub-slice and the op span itself.
  void finish(OpOutcome code, std::uint64_t index, std::uint32_t retries) noexcept {
#if EVQ_TRACE
    if (!armed_) {
      return;
    }
    const std::uint64_t now = telemetry::trace_clock();
    close_phase(now);
    detail::ring().record(EventKind::kOp, static_cast<std::uint8_t>(code), queue_id_,
                          index, retries, t_op_start_, now);
    armed_ = false;
#else
    (void)code;
    (void)index;
    (void)retries;
#endif
  }

 private:
#if EVQ_TRACE
  static constexpr std::uint8_t kNoPhase = 0xFF;

  void close_phase(std::uint64_t now) noexcept {
    if (phase_ != kNoPhase) {
      detail::ring().record(EventKind::kPhase, phase_, queue_id_, 0, 0,
                            t_phase_start_, now);
    }
  }

  std::uint32_t queue_id_ = kNoQueue;
  bool armed_ = false;
  std::uint8_t phase_ = kNoPhase;
  std::uint64_t t_op_start_ = 0;
  std::uint64_t t_phase_start_ = 0;
#endif
};

/// RAII span over one reclamation pass (HP scan, epoch-advance attempt,
/// free-pool take). Subject to the same per-thread 1-in-N gate as OpProbe:
/// the free-pool take sits on the MS-pool hot path, so it cannot record
/// unconditionally.
class ReclaimProbe {
 public:
  ReclaimProbe(std::uint32_t queue_id, ReclaimKind kind) noexcept {
#if EVQ_TRACE
    armed_ = detail::arm_sample();
    if (armed_) {
      queue_id_ = queue_id;
      kind_ = kind;
      t_start_ = telemetry::trace_clock();
    }
#else
    (void)queue_id;
    (void)kind;
#endif
  }

  ReclaimProbe(const ReclaimProbe&) = delete;
  ReclaimProbe& operator=(const ReclaimProbe&) = delete;

  ~ReclaimProbe() noexcept {
#if EVQ_TRACE
    if (armed_) {
      detail::ring().record(EventKind::kReclaim, static_cast<std::uint8_t>(kind_),
                            queue_id_, 0, 0, t_start_, telemetry::trace_clock());
    }
#endif
  }

 private:
#if EVQ_TRACE
  bool armed_ = false;
  std::uint32_t queue_id_ = kNoQueue;
  ReclaimKind kind_ = ReclaimKind::kHpScan;
  std::uint64_t t_start_ = 0;
#endif
};

}  // namespace evq::trace
