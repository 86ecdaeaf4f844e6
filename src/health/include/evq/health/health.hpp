// evq::health — the interpretation layer of the observability stack
// (DESIGN.md §15). Layer one (evq::telemetry) counts raw events; layer two
// (evq::trace) samples op phases; this third layer turns both into verdicts:
// derived per-queue rates, per-thread progress, and typed findings with
// hysteresis. Everything here is cold-path — the only hot-path cost of
// running a Monitor is the trace layer's 1-in-N op sampling it enables,
// whose op spans give the latency percentiles (gated at <= 5% total by the
// layer-overhead --health A/B in CI).
//
// The split between the pieces is deliberate:
//  * rate derivation (Monitor, monitor.hpp) owns the registry/flight-
//    recorder snapshots and the interval bookkeeping;
//  * the Diagnoser here is PURE over its inputs — rates in, findings out —
//    so detector rules and hysteresis are unit-testable without queues,
//    threads, or time;
//  * the sinks (render_prometheus_health, health_json) are pure formatting
//    over a HealthSnapshot.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace evq::health {

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// The typed verdicts the rule engine can reach. Each maps to a concrete
/// queue pathology with a deterministic injection-driven repro in
/// tests/health_injection_test.cpp:
enum class FindingType : std::uint8_t {
  /// SCQ livelock-avoidance threshold burn: `slot_skip`/op stays above
  /// threshold — dequeuers spend their threshold budget skipping unsafe or
  /// empty slots (the wCQ motivation: a preempted/parked ticket holder
  /// taxes every ring revolution).
  kThresholdBurn = 0,
  /// Combining collapse: ops keep electing the announce path
  /// (`comb_submit` rises) but no combiner completes passes — the combiner
  /// is stuck or batches degenerate, so announcers burn their spin window
  /// and withdraw to the direct path every time.
  kCombinerCollapse,
  /// Segmented-queue drift: `seg_alloc` − `seg_retire` keeps growing — a
  /// consumer pinned a segment (or retirement is wedged) while producers
  /// keep allocating.
  kSegmentLeak,
  /// A live thread's flight-recorder op sequence froze while the rest of
  /// the system made progress — it is stuck INSIDE an operation; the
  /// finding carries the stalled op phase from its ring.
  kThreadStalled,
  /// Cache thrash (layer 4, evq::perf): the queue's whole-queue perf scopes
  /// report sustained LLC misses per op above threshold — its hot words
  /// ping-pong between cores (false sharing / layout regression) instead of
  /// staying resident. Repro: two queues' index words pinned to one
  /// cacheline vs. a CachePadded quiet twin (tests/perf_test.cpp).
  kCacheThrash,
};

inline constexpr std::size_t kFindingTypeCount = 5;

/// Stable lowercase identifier ("threshold_burn", ...) used in Prometheus
/// labels, JSON, and evq-top.
const char* finding_type_name(FindingType t) noexcept;

struct Finding {
  FindingType type = FindingType::kThresholdBurn;
  /// What the finding is about: a registry queue name, or "thread <ord>".
  std::string subject;
  /// The rate that tripped the rule (units depend on type) — lets sinks
  /// sort by how far past the threshold the subject is.
  double severity = 0.0;
  /// Human-readable one-liner with the numbers behind the verdict.
  std::string detail;
  /// Poll index at which the finding became active (after hysteresis).
  std::uint64_t since_poll = 0;
};

// ---------------------------------------------------------------------------
// Derived inputs
// ---------------------------------------------------------------------------

/// One queue's interval rates, derived from telemetry counter deltas by the
/// Monitor (monitor.hpp documents the formulas).
struct QueueRates {
  std::string queue;
  std::uint32_t queue_id = 0;
  /// Completed op attempts this interval: push_ok+push_full+pop_ok+pop_empty.
  std::uint64_t ops = 0;
  double cas_fail_ratio = 0.0;    // slot SC/CAS failures per slot attempt
  double slot_skip_per_op = 0.0;  // SCQ unsafe/empty skips per op
  double faa_waste = 0.0;         // fraction of FAA tickets not matched by a success
  double comb_engagement = 0.0;   // announce-path ops per op
  double comb_mean_batch = 0.0;   // ops applied per combine pass (0 = no passes)
  std::uint64_t comb_submits = 0;
  std::uint64_t comb_combines = 0;
  /// CUMULATIVE seg_alloc − seg_retire (not an interval delta): live
  /// segments in flight. The facade invariant is ≤ 1 + segments holding
  /// data; sustained growth is a leak.
  std::int64_t seg_in_flight = 0;
  bool has_depth = false;
  std::uint64_t depth = 0;
  /// Percentiles of the sampled op spans' durations in nanoseconds; < 0 =
  /// no samples (always so with EVQ_TRACE=0).
  double push_p50_ns = -1.0;
  double push_p99_ns = -1.0;
  double pop_p50_ns = -1.0;
  double pop_p99_ns = -1.0;
  /// Layer-4 rates, joined from the perf attribution table by queue name
  /// when the Monitor has one (MonitorOptions::perf). perf_live gates the
  /// whole block; per-op values are -1 when that event is unavailable.
  bool perf_live = false;
  std::uint64_t perf_ops = 0;  // ops attributed by perf scopes this interval
  double cycles_per_op = -1.0;
  double ipc = -1.0;
  double llc_miss_per_op = -1.0;
};

/// One flight-recorder ring's progress view for this interval.
struct ThreadProgress {
  std::uint32_t thread_ord = 0;
  bool live = false;
  /// Monotone per-owner op count (ThreadTrace::op_seq).
  std::uint64_t op_seq = 0;
  /// True when the Monitor judged this thread stalled THIS interval (live,
  /// previously active, sequence frozen while the system made progress).
  /// The Diagnoser applies hysteresis on top.
  bool stalled_now = false;
  /// Consecutive stalled intervals (Monitor bookkeeping, informational).
  std::uint32_t stalled_polls = 0;
  /// Last op from the ring — the "stalled op phase" shown in the finding.
  std::string last_op;
  std::string last_queue;
  std::uint64_t last_index = 0;
  std::uint32_t last_retries = 0;
};

// ---------------------------------------------------------------------------
// Rules + hysteresis
// ---------------------------------------------------------------------------

struct Thresholds {
  /// Rules that divide by ops stay quiet below this interval volume — rates
  /// over a handful of ops are noise, not signal.
  std::uint64_t min_ops = 64;
  /// kThresholdBurn: slot_skip / op above this.
  double slot_skip_per_op = 0.25;
  /// kCombinerCollapse: announce-path engagement above this while combine
  /// passes are absent or degenerate...
  double comb_engagement = 0.5;
  /// ...where "degenerate" is a mean batch below this (a healthy combiner
  /// under load batches > 1 op per pass).
  double comb_batch_floor = 1.05;
  /// kSegmentLeak: cumulative alloc − retire above this.
  std::int64_t seg_in_flight = 4;
  /// kCacheThrash: LLC misses per op above this while perf rates are live.
  /// A resident uncontended queue op misses ~0–1 lines; sustained > 2 means
  /// its hot lines bounce between cores every operation.
  double llc_miss_per_op = 2.0;
  /// Hysteresis: a rule must breach this many CONSECUTIVE polls to raise a
  /// finding...
  std::uint32_t trip_polls = 2;
  /// ...and pass this many consecutive polls to clear it. Transient spikes
  /// (one bursty interval) never flap a finding.
  std::uint32_t clear_polls = 2;
};

/// The full output of one Monitor poll.
struct HealthSnapshot {
  std::uint64_t poll = 0;  // 1-based poll index (0 = never polled)
  std::vector<QueueRates> queues;
  std::vector<ThreadProgress> threads;
  std::vector<Finding> findings;  // active after hysteresis, stable order
};

/// Pure rule engine: feeds interval rates through the five detectors and a
/// per-(rule, subject) trip/clear streak machine. Deterministic — same input
/// sequence, same findings — which is what the unit tests pin.
class Diagnoser {
 public:
  explicit Diagnoser(Thresholds thresholds = {}) : thresholds_(thresholds) {}

  /// Evaluates one interval and returns the findings active AFTER it.
  std::vector<Finding> evaluate(std::uint64_t poll, const std::vector<QueueRates>& queues,
                                const std::vector<ThreadProgress>& threads);

  [[nodiscard]] const Thresholds& thresholds() const noexcept { return thresholds_; }

 private:
  struct RuleState {
    FindingType type = FindingType::kThresholdBurn;
    std::string subject;
    std::uint32_t breach_streak = 0;
    std::uint32_t clear_streak = 0;
    bool active = false;
    std::uint64_t since_poll = 0;
    double severity = 0.0;
    std::string detail;
  };

  void observe(std::uint64_t poll, FindingType type, const std::string& subject, bool breached,
               double severity, std::string detail);

  Thresholds thresholds_;
  /// Keyed "<type>:<subject>"; ordered map so finding order is stable.
  std::map<std::string, RuleState> states_;
};

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Prometheus text-format rendering of a snapshot: evq_health_rate gauges
/// (one per derived rate per queue), evq_health_latency_ns quantile gauges
/// (queues with sampled op spans only), and evq_health_finding_active 1
/// gauges for the snapshot's active findings (absent series = quiet).
/// Labels go through telemetry::escape_label_value. Deterministic output,
/// pinned by a golden-style unit test.
void render_prometheus_health(std::ostream& os, const HealthSnapshot& snap);

inline constexpr int kHealthSchemaVersion = 1;

/// Versioned JSON document of a snapshot ("health_schema_version": 1).
/// Consumers (scripts/health_report.py, bench_diff.py, evq-top piping) may
/// rely on existing keys; new keys are additive, removals bump the version —
/// the same convention as the bench document.
void health_json(std::ostream& os, const HealthSnapshot& snap);

}  // namespace evq::health
