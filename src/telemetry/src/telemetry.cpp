// Out-of-line telemetry state: stripe-ordinal assignment, the global
// registry, the flight recorder's dumps, the tick calibration, and the
// exporter. This TU is part
// of every build (including the fault-injected torture binary) and must stay
// free of injectable headers — it includes only telemetry/ and common/.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <sstream>

#include "evq/telemetry/flight_recorder.hpp"
#include "evq/telemetry/metrics.hpp"
#include "evq/telemetry/prometheus.hpp"
#include "evq/telemetry/registry.hpp"

namespace evq::telemetry {

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kPushOk:
      return "push_ok";
    case Counter::kPushFull:
      return "push_full";
    case Counter::kPopOk:
      return "pop_ok";
    case Counter::kPopEmpty:
      return "pop_empty";
    case Counter::kSlotScFail:
      return "slot_sc_fail";
    case Counter::kHelpAdvance:
      return "help_advance";
    case Counter::kBackoffRound:
      return "backoff_round";
    case Counter::kHpScan:
      return "hp_scan";
    case Counter::kHpRetired:
      return "hp_retired";
    case Counter::kHpFreed:
      return "hp_freed";
    case Counter::kPoolHit:
      return "pool_hit";
    case Counter::kPoolMiss:
      return "pool_miss";
    case Counter::kEpochRetired:
      return "epoch_retired";
    case Counter::kEpochAdvance:
      return "epoch_advance";
    case Counter::kFaaReserve:
      return "faa_reserve";
    case Counter::kSlotSkip:
      return "slot_skip";
    case Counter::kSegSeal:
      return "seg_seal";
    case Counter::kSegAlloc:
      return "seg_alloc";
    case Counter::kSegRetire:
      return "seg_retire";
    case Counter::kCombSubmit:
      return "comb_submit";
    case Counter::kCombCombine:
      return "comb_combine";
    case Counter::kCombBatchN:
      return "comb_batch_n";
  }
  return "unknown";
}

CounterSnapshot counter_delta(const CounterSnapshot& before,
                              const CounterSnapshot& after) noexcept {
  CounterSnapshot d;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    // Counters are monotone per queue entry; guard anyway so a mismatched
    // pair of snapshots degrades to zero instead of wrapping.
    d.counts[i] = after.counts[i] >= before.counts[i] ? after.counts[i] - before.counts[i] : 0;
  }
  return d;
}

namespace detail {

std::uint32_t assign_stripe() noexcept {
  static std::atomic<std::uint32_t> next{0};
  const std::uint32_t s = next.fetch_add(1, std::memory_order_relaxed);
  evq::detail::t_block.stripe = s;
  return s;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry::Entry* Registry::acquire(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Entry>& e : entries_) {
    if (e->name == name) {
      ++e->live;
      return e.get();
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name.assign(name);
  entry->id = static_cast<std::uint32_t>(entries_.size());
  entry->live = 1;
  entries_.push_back(std::move(entry));
  return entries_.back().get();
}

void Registry::release(Entry* entry) noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  if (entry != nullptr && entry->live > 0) {
    --entry->live;
  }
}

void Registry::set_gauge(Entry* entry, const void* owner, Gauge fn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, gauge] : entry->gauges) {
    if (key == owner) {
      gauge = std::move(fn);
      return;
    }
  }
  entry->gauges.emplace_back(owner, std::move(fn));
}

void Registry::clear_gauge(Entry* entry, const void* owner) noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  auto& gauges = entry->gauges;
  gauges.erase(std::remove_if(gauges.begin(), gauges.end(),
                              [owner](const auto& kv) { return kv.first == owner; }),
               gauges.end());
}

void Registry::for_each(
    const std::function<void(const Entry&, std::size_t gauge_count, std::uint64_t depth)>& fn)
    const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Entry>& e : entries_) {
    std::uint64_t depth = 0;
    for (const auto& [owner, gauge] : e->gauges) {
      depth += gauge();
    }
    fn(*e, e->gauges.size(), depth);
  }
}

const Registry::Entry* Registry::find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Entry>& e : entries_) {
    if (e->name == name) {
      return e.get();
    }
  }
  return nullptr;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Registry& Registry::global() {
  // Leaked on purpose: queues registered in static-storage objects may run
  // their destructors (gauge clearing) after main() returns.
  static Registry* g = new Registry();
  return *g;
}

ScopedQueueMetrics::ScopedQueueMetrics(std::string_view name, Registry* registry)
    : registry_(registry != nullptr ? registry : &Registry::global()),
      entry_(registry_->acquire(name)) {}

ScopedQueueMetrics::~ScopedQueueMetrics() {
  registry_->clear_gauge(entry_, this);
  registry_->release(entry_);
}

void ScopedQueueMetrics::set_depth_gauge(Registry::Gauge fn) {
  registry_->set_gauge(entry_, this, std::move(fn));
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

namespace detail {

std::atomic<bool> g_tracing{false};

void write_trace_record(std::uint32_t queue_id, OpOutcome op, std::uint64_t index,
                        std::uint32_t retries) noexcept {
  ThreadTrace* t = evq::detail::t_block.flight_ring;
  if (t == nullptr) {
    t = &FlightRingPool::attach();
  }
  t->record(queue_id, op, index, retries);
}

}  // namespace detail

void set_tracing(bool on) noexcept {
  static std::mutex setting_mutex;  // keeps the gate bit in step with the flag
  std::lock_guard<std::mutex> lock(setting_mutex);
  detail::g_tracing.store(on, std::memory_order_relaxed);
  evq::detail::set_sampled_hook(evq::detail::kFlightRecorderHook, on);
}

namespace {

LastOpState read_last_op(const ThreadTrace& trace) {
  LastOpState s;
  s.thread_ord = trace.owner_ordinal();
  s.thread_live = trace.live();
  s.total_records = trace.total_records();
  s.op_seq = trace.op_seq();
  if (s.total_records > 0) {
    const ThreadTrace::Record& r = trace.record_at(s.total_records - 1);
    s.tsc = r.tsc.load(std::memory_order_relaxed);
    s.queue_id = r.queue_id.load(std::memory_order_relaxed);
    s.op = static_cast<OpOutcome>(r.op.load(std::memory_order_relaxed));
    s.index = r.index.load(std::memory_order_relaxed);
    s.retries = r.retries.load(std::memory_order_relaxed);
  }
  return s;
}

std::string queue_label(std::uint32_t id) {
  std::string name;
  Registry::global().for_each([&](const Registry::Entry& e, std::size_t, std::uint64_t) {
    if (e.id == id) {
      name = e.name;
    }
  });
  std::ostringstream os;
  os << id;
  if (!name.empty()) {
    os << "(" << name << ")";
  }
  return os.str();
}

}  // namespace

std::vector<LastOpState> last_ops_per_thread() {
  const std::vector<ThreadTrace*> traces = detail::FlightRingPool::rings();
  std::vector<LastOpState> out;
  for (const ThreadTrace* t : traces) {
    LastOpState s = read_last_op(*t);
    if (s.total_records > 0) {
      out.push_back(s);
    }
  }
  return out;
}

void dump_flight_recorder(std::ostream& os, std::size_t last_n) {
  const std::vector<ThreadTrace*> traces = detail::FlightRingPool::rings();
  os << "=== evq flight recorder: " << traces.size() << " thread ring(s) ===\n";
  for (const ThreadTrace* t : traces) {
    const LastOpState last = read_last_op(*t);
    os << "--- thread ord " << last.thread_ord << (last.thread_live ? " (live)" : " (exited)")
       << ": " << last.total_records << " record(s) total ---\n";
    if (last.total_records == 0) {
      continue;
    }
    const std::uint64_t total = last.total_records;
    const std::uint64_t window =
        std::min<std::uint64_t>({total, ThreadTrace::kRecords, last_n});
    for (std::uint64_t i = total - window; i < total; ++i) {
      const ThreadTrace::Record& r = t->record_at(i);
      os << "  [" << i << "] tsc=" << r.tsc.load(std::memory_order_relaxed)
         << " queue=" << queue_label(r.queue_id.load(std::memory_order_relaxed))
         << " op=" << op_outcome_name(static_cast<OpOutcome>(r.op.load(std::memory_order_relaxed)))
         << " index=" << r.index.load(std::memory_order_relaxed)
         << " retries=" << r.retries.load(std::memory_order_relaxed)
         << " ord=" << r.thread_ord.load(std::memory_order_relaxed) << "\n";
    }
  }
  os << "=== last op per thread ===\n";
  for (const LastOpState& s : last_ops_per_thread()) {
    os << "  thread ord " << s.thread_ord << (s.thread_live ? " (live)" : " (exited)")
       << ": " << op_outcome_name(s.op) << " queue=" << queue_label(s.queue_id)
       << " index=" << s.index << " retries=" << s.retries << " seq=" << s.op_seq
       << " tsc=" << s.tsc << "\n";
  }
}

void dump_flight_recorder_chrome(std::ostream& os, std::size_t last_n) {
  const std::vector<ThreadTrace*> traces = detail::FlightRingPool::rings();

  // Origin = oldest surviving tsc, so the timeline starts near zero.
  std::uint64_t origin = 0;
  bool seen = false;
  for (const ThreadTrace* t : traces) {
    const std::uint64_t total = t->total_records();
    const std::uint64_t window =
        std::min<std::uint64_t>({total, ThreadTrace::kRecords, last_n});
    for (std::uint64_t i = total - window; i < total; ++i) {
      const std::uint64_t tsc = t->record_at(i).tsc.load(std::memory_order_relaxed);
      if (!seen || tsc < origin) {
        origin = tsc;
        seen = true;
      }
    }
  }

  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  auto begin_event = [&] {
    if (!first) {
      os << ",\n";
    }
    first = false;
  };
  for (const ThreadTrace* t : traces) {
    begin_event();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" << t->owner_ordinal()
       << ",\"args\":{\"name\":\"evq worker " << t->owner_ordinal()
       << (t->live() ? " (live)" : " (exited)") << "\"}}";
  }
  for (const ThreadTrace* t : traces) {
    const std::uint64_t total = t->total_records();
    const std::uint64_t window =
        std::min<std::uint64_t>({total, ThreadTrace::kRecords, last_n});
    for (std::uint64_t i = total - window; i < total; ++i) {
      const ThreadTrace::Record& r = t->record_at(i);
      const std::uint64_t tsc = r.tsc.load(std::memory_order_relaxed);
      const std::uint64_t rel = tsc >= origin ? tsc - origin : 0;
      char ts[48];
      std::snprintf(ts, sizeof ts, "%.3f", static_cast<double>(rel) / 1000.0);
      begin_event();
      os << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\""
         << op_outcome_name(static_cast<OpOutcome>(r.op.load(std::memory_order_relaxed)))
         << "\",\"cat\":\"flight\",\"pid\":0,\"tid\":"
         << r.thread_ord.load(std::memory_order_relaxed) << ",\"ts\":" << ts
         << ",\"args\":{\"queue\":\""
         << queue_label(r.queue_id.load(std::memory_order_relaxed)) << "\",\"index\":"
         << r.index.load(std::memory_order_relaxed) << ",\"retries\":"
         << r.retries.load(std::memory_order_relaxed) << "}}";
    }
  }
  os << (first ? "" : "\n") << "]}\n";
}

// ---------------------------------------------------------------------------
// Tick calibration
// ---------------------------------------------------------------------------

double ns_per_tick() noexcept {
#if defined(__x86_64__)
  // rdtsc frequency != steady_clock frequency: calibrate once by spinning a
  // short wall-clock window. ~2ms keeps the relative error well under the
  // percentile noise floor, and the result is cached for the process.
  static const double cached = [] {
    const auto wall_start = std::chrono::steady_clock::now();
    const std::uint64_t tsc_start = trace_clock();
    for (;;) {
      const auto wall_now = std::chrono::steady_clock::now();
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::nanoseconds>(wall_now - wall_start);
      if (elapsed >= std::chrono::milliseconds(2)) {
        const std::uint64_t tsc_now = trace_clock();
        if (tsc_now <= tsc_start) {
          return 1.0;  // non-monotone TSC; fall back to 1 tick == 1 ns
        }
        return static_cast<double>(elapsed.count()) /
               static_cast<double>(tsc_now - tsc_start);
      }
    }
  }();
  return cached;
#else
  return 1.0;  // trace_clock() is already steady_clock nanoseconds
#endif
}

// ---------------------------------------------------------------------------
// Exporter
// ---------------------------------------------------------------------------

RegistrySnapshot snapshot_registry(const Registry& reg) {
  RegistrySnapshot snap;
  reg.for_each([&](const Registry::Entry& e, std::size_t gauge_count, std::uint64_t depth) {
    QueueCounters q;
    q.queue = e.name;
    q.id = e.id;
    q.counters = e.metrics.snapshot();
    q.has_depth = gauge_count > 0;
    q.depth = depth;
    snap.queues.push_back(std::move(q));
  });
  return snap;
}

RegistrySnapshot snapshot_delta(const RegistrySnapshot& before, const RegistrySnapshot& after) {
  RegistrySnapshot d;
  for (const QueueCounters& now : after.queues) {
    QueueCounters q;
    q.queue = now.queue;
    q.id = now.id;
    q.has_depth = now.has_depth;
    q.depth = now.depth;
    if (const QueueCounters* was = before.find(now.queue)) {
      q.counters = counter_delta(was->counters, now.counters);
    } else {
      q.counters = now.counters;
    }
    d.queues.push_back(std::move(q));
  }
  return d;
}

std::string escape_label_value(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void render_prometheus(std::ostream& os, const Registry& reg) {
  const RegistrySnapshot snap = snapshot_registry(reg);
  os << "# HELP evq_queue_ops_total Queue operation and reclamation events by queue and op.\n";
  os << "# TYPE evq_queue_ops_total counter\n";
  for (const QueueCounters& q : snap.queues) {
    const std::string label = escape_label_value(q.queue);
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      os << "evq_queue_ops_total{queue=\"" << label << "\",op=\""
         << counter_name(static_cast<Counter>(i)) << "\"} " << q.counters.counts[i] << "\n";
    }
  }
  os << "# HELP evq_queue_depth Approximate queue occupancy (sum of live instance gauges).\n";
  os << "# TYPE evq_queue_depth gauge\n";
  for (const QueueCounters& q : snap.queues) {
    if (q.has_depth) {
      os << "evq_queue_depth{queue=\"" << escape_label_value(q.queue) << "\"} " << q.depth
         << "\n";
    }
  }
}

}  // namespace evq::telemetry
