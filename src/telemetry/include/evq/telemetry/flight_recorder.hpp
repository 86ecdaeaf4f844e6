// Flight recorder: per-thread lock-free rings of fixed-size trace records.
//
// When a torture run wedges, aggregate counters say WHAT happened but not
// what each thread was doing at the end; the flight recorder answers that.
// Each thread owns a ring of kRecords trace records (timestamp, queue id,
// op, slot index, retry count) written only by that thread; dump routines on
// OTHER threads may read a ring while its owner is still writing, so every
// record field is a relaxed std::atomic — a torn logical record is
// acceptable in a post-mortem, a data race is not (the torture binary runs
// under TSan).
//
// Rings are pooled (telemetry/ring_pool.hpp): a thread attaches on its first
// traced op, its ring returns to a free list at thread exit and is reused by
// later threads, and every ring ever created stays reachable for dumping —
// so memory is bounded by the peak thread count, and records from exited
// threads survive for the post-mortem. Tracing is off by default behind one
// relaxed global flag; the torture harness switches it on, benches leave it
// off.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "evq/common/config.hpp"
#include "evq/common/op_outcome.hpp"
#include "evq/common/thread_block.hpp"
#include "evq/telemetry/metrics.hpp"
#include "evq/telemetry/ring_pool.hpp"

namespace evq::telemetry {

/// Cheap per-op timestamp: raw TSC where available (ordering within one
/// thread is all dumps need), steady_clock ticks elsewhere.
inline std::uint64_t trace_clock() noexcept {
#if defined(__x86_64__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Nanoseconds per trace_clock() tick, calibrated once against
/// steady_clock on first use and cached (~2ms spin, cold path only).
[[nodiscard]] double ns_per_tick() noexcept;

class ThreadTrace {
 public:
  static constexpr std::size_t kRecords = 1024;  // power of two

  struct Record {
    std::atomic<std::uint64_t> tsc{0};
    std::atomic<std::uint64_t> index{0};   // ring slot / queue-local position
    std::atomic<std::uint64_t> op_seq{0};  // owner's per-thread op count at write time
    std::atomic<std::uint32_t> queue_id{0};
    std::atomic<std::uint32_t> retries{0};
    std::atomic<std::uint32_t> thread_ord{0};  // owner at write time (rings are reused)
    std::atomic<std::uint8_t> op{0};
  };

  void record(std::uint32_t queue_id, OpOutcome op, std::uint64_t index,
              std::uint32_t retries) noexcept {
    const std::uint64_t at = pos_.fetch_add(1, std::memory_order_relaxed);
    // Single-writer sequence: monotone per OWNER, reset when the ring is
    // reassigned to a new thread (unlike pos_, which spans owners). The
    // health layer's stall detector compares successive reads of op_seq_ —
    // a live thread whose sequence freezes while the rest of the system
    // makes progress is stuck inside an operation.
    const std::uint64_t seq = op_seq_.load(std::memory_order_relaxed) + 1;
    op_seq_.store(seq, std::memory_order_relaxed);
    Record& r = records_[at & (kRecords - 1)];
    r.tsc.store(trace_clock(), std::memory_order_relaxed);
    r.index.store(index, std::memory_order_relaxed);
    r.op_seq.store(seq, std::memory_order_relaxed);
    r.queue_id.store(queue_id, std::memory_order_relaxed);
    r.retries.store(retries, std::memory_order_relaxed);
    r.thread_ord.store(owner_ord_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    r.op.store(static_cast<std::uint8_t>(op), std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t total_records() const noexcept {
    return pos_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const Record& record_at(std::uint64_t logical_pos) const noexcept {
    return records_[logical_pos & (kRecords - 1)];
  }
  [[nodiscard]] std::uint32_t owner_ordinal() const noexcept {
    return owner_ord_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool live() const noexcept { return live_.load(std::memory_order_relaxed); }
  /// The CURRENT owner's op count (0 until its first record). Survives ring
  /// wraparound — it counts operations, not surviving records.
  [[nodiscard]] std::uint64_t op_seq() const noexcept {
    return op_seq_.load(std::memory_order_relaxed);
  }

  void assign_owner(std::uint32_t ordinal) noexcept {
    owner_ord_.store(ordinal, std::memory_order_relaxed);
    live_.store(true, std::memory_order_relaxed);
    // Rings are reused across threads: the sequence restarts with the new
    // owner so "per-thread progress" never inherits a predecessor's count.
    op_seq_.store(0, std::memory_order_relaxed);
  }
  void mark_exited() noexcept { live_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> pos_{0};
  std::atomic<std::uint64_t> op_seq_{0};
  std::atomic<std::uint32_t> owner_ord_{0};
  std::atomic<bool> live_{false};
  Record records_[kRecords];
};

namespace detail {
extern std::atomic<bool> g_tracing;
using FlightRingPool = ThreadRingPool<ThreadTrace, &evq::detail::ThreadBlock::flight_ring>;
/// Cold half of record_trace(): attaches this thread's ring on first use
/// and writes one record (telemetry.cpp).
EVQ_COLD void write_trace_record(std::uint32_t queue_id, OpOutcome op, std::uint64_t index,
                                 std::uint32_t retries) noexcept;

/// This thread's ring, nullptr until its first traced op. The pointer lives
/// in the per-thread block (common/thread_block.hpp); `t_trace` reads it
/// like the pointer it stands for (`t_trace->op_seq()`, `*t_trace`,
/// `t_trace != nullptr`).
struct ThisThreadTrace {
  operator ThreadTrace*() const noexcept { return evq::detail::t_block.flight_ring; }
  ThreadTrace* operator->() const noexcept { return evq::detail::t_block.flight_ring; }
  ThreadTrace& operator*() const noexcept { return *evq::detail::t_block.flight_ring; }
};
inline constexpr ThisThreadTrace t_trace{};
}  // namespace detail

inline bool tracing_enabled() noexcept {
  return detail::g_tracing.load(std::memory_order_relaxed);
}
void set_tracing(bool on) noexcept;

/// The hot-path hook: one relaxed load when tracing is off.
EVQ_ALWAYS_INLINE void record_trace(std::uint32_t queue_id, OpOutcome op, std::uint64_t index,
                                    std::uint32_t retries) noexcept {
#if EVQ_TELEMETRY
  if (EVQ_UNLIKELY(tracing_enabled())) {
    detail::write_trace_record(queue_id, op, index, retries);
  }
#else
  (void)queue_id;
  (void)op;
  (void)index;
  (void)retries;
#endif
}

/// Snapshot of one ring's most recent record — the torture watchdog's
/// per-thread "last known op" line.
struct LastOpState {
  std::uint32_t thread_ord = 0;
  bool thread_live = false;
  std::uint64_t total_records = 0;
  /// Current owner's monotone op count (health-layer progress signal; resets
  /// when a pooled ring is handed to a new thread).
  std::uint64_t op_seq = 0;
  std::uint64_t tsc = 0;
  std::uint32_t queue_id = 0;
  OpOutcome op = OpOutcome::kPushOk;
  std::uint64_t index = 0;
  std::uint32_t retries = 0;
};

/// One entry per ring that has recorded at least one event, in attach order.
std::vector<LastOpState> last_ops_per_thread();

/// Human-readable dump of the last `last_n` records of every ring (live and
/// exited), plus a per-thread last-op summary. Safe to call while writers
/// are still running (racy-but-atomic reads).
void dump_flight_recorder(std::ostream& os, std::size_t last_n = 32);

/// The same window as dump_flight_recorder, but as Chrome Trace Format JSON
/// (one track per thread ordinal, one instant event per record) so
/// EVQ_FLIGHT_DUMP_PATH artifacts open directly in Perfetto. Timestamps are
/// raw trace_clock() ticks scaled as if 1 tick == 1 ns — exact relative
/// order within a thread, approximate (~cpu-GHz factor) durations between
/// events. Same concurrency contract as dump_flight_recorder.
void dump_flight_recorder_chrome(std::ostream& os,
                                 std::size_t last_n = ThreadTrace::kRecords);

}  // namespace evq::telemetry
