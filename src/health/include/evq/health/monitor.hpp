// Monitor: the stateful half of evq::health — snapshots the telemetry
// registry, the flight recorder and the trace spans on an interval, derives
// QueueRates / ThreadProgress, and runs them through the Diagnoser.
//
// Two pumping modes, same poll() core:
//  * caller-pumped: construct, call poll() whenever convenient (the torture
//    watchdog pumps it from its 1ms wait loop; evq-bench pumps it per cell);
//  * background: start(interval) spawns one thread that polls until stop().
//
// Rate formulas (over the interval delta D of each counter, S = cumulative
// after-snapshot):
//    ops              = D[push_ok]+D[push_full]+D[pop_ok]+D[pop_empty]
//    cas_fail_ratio   = D[slot_sc_fail] / (D[slot_sc_fail]+D[push_ok]+D[pop_ok])
//    slot_skip_per_op = D[slot_skip] / ops
//    faa_waste        = max(0, D[faa_reserve] − 2·(D[push_ok]+D[pop_ok]))
//                         / max(D[faa_reserve], 1)
//    comb_engagement  = D[comb_submit] / ops — except for a combining
//                       facade entry paired with a "<name>/ring" sibling,
//                       where the denominator is the PAIR's op flow (the
//                       facade's own op counters are always zero; every
//                       push/pop lands on the inner ring's entry)
//    comb_mean_batch  = D[comb_combine] > 0 ? D[comb_batch_n]/D[comb_combine] : 0
//    seg_in_flight    = S[seg_alloc] − S[seg_retire]          (cumulative!)
//    push/pop p50/p99 = percentiles of t_end − t_start over the surviving
//                       sampled kOp spans of the queue (trace::
//                       snapshot_spans(); push_ok/push_full are push,
//                       pop_ok/pop_empty are pop); < 0 = no samples
//
// Thread progress: a ring is "stalled now" when its owner is live, tracing
// is enabled, the owner has recorded at least one op SINCE THE MONITOR'S
// BASELINE (rings of long-idle threads — a gtest main thread, a parked
// helper — never count), its op_seq did not advance this interval, and the
// system as a whole completed >= min_ops (so a globally idle process is
// quiet, not "everyone stalled").
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "evq/health/health.hpp"
#include "evq/perf/perf.hpp"
#include "evq/telemetry/prometheus.hpp"
#include "evq/telemetry/registry.hpp"

namespace evq::health {

struct MonitorOptions {
  /// Registry to watch; nullptr = telemetry::Registry::global().
  telemetry::Registry* registry = nullptr;
  Thresholds thresholds;
  /// If trace sampling is off, the Monitor switches it on at this 1-in-N
  /// period for its lifetime and switches it off again on destruction; a
  /// period that was already set (e.g. --trace-sample N) is left untouched.
  /// The latency percentiles come from the sampled op spans, so with
  /// sampling off, or with probes compiled out (EVQ_TRACE=0), they are
  /// absent. 0 = leave the sampling setting untouched.
  std::uint32_t latency_sample_every = 64;
  /// Optional layer-4 source: when set, each poll also deltas this perf
  /// attribution table and joins the per-queue cycles/op, IPC and LLC
  /// misses/op into QueueRates by queue name (perf keys with no telemetry
  /// entry get a rates-only entry), arming the cache_thrash detector.
  /// Typically &perf::AttributionTable::global(); nullptr = layer 4 off.
  perf::AttributionTable* perf = nullptr;
};

class Monitor {
 public:
  explicit Monitor(MonitorOptions options = {});
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Runs one interval: registry delta + flight-recorder progress +
  /// latency percentiles -> Diagnoser -> snapshot (also retained for
  /// last()). Thread-safe; concurrent polls serialize.
  HealthSnapshot poll();

  /// Spawns the background poller (no-op if already running).
  void start(std::chrono::milliseconds interval);
  /// Joins the background poller (no-op if not running). Idempotent.
  void stop();

  /// The most recent snapshot (empty, poll == 0, if never polled).
  [[nodiscard]] HealthSnapshot last() const;

 private:
  struct ThreadState {
    std::uint64_t baseline_seq = 0;  // op_seq when first seen by this Monitor
    std::uint64_t prev_seq = 0;
    bool ever_advanced = false;
    std::uint32_t stalled_polls = 0;
  };

  HealthSnapshot poll_locked();

  MonitorOptions options_;
  telemetry::Registry* registry_;
  bool enabled_sampling_ = false;  // this Monitor switched trace sampling on

  mutable std::mutex mu_;
  telemetry::RegistrySnapshot prev_;
  perf::AttributionSnapshot prev_perf_;
  std::unordered_map<std::uint32_t, ThreadState> thread_states_;  // by ordinal
  Diagnoser diagnoser_;
  std::uint64_t polls_ = 0;
  HealthSnapshot last_;

  std::mutex run_mu_;
  std::condition_variable run_cv_;
  bool running_ = false;
  std::thread poller_;
};

}  // namespace evq::health
