// evq::health implementation: Diagnoser rule engine + hysteresis, Monitor
// polling core, and the Prometheus/JSON sinks. Cold path throughout — this
// TU includes no injectable headers (telemetry, trace + std only), so
// evq_health is safe to link into the EVQ_INJECT_ENABLED torture binary.
#include <algorithm>
#include <cstdio>
#include <ostream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "evq/health/health.hpp"
#include "evq/health/monitor.hpp"
#include "evq/telemetry/flight_recorder.hpp"
#include "evq/telemetry/metrics.hpp"
#include "evq/telemetry/prometheus.hpp"
#include "evq/trace/trace.hpp"

namespace evq::health {

namespace {

/// Deterministic double formatting for both sinks (no locale, fixed
/// precision) — the unit tests pin rendered output.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

const char* finding_type_name(FindingType t) noexcept {
  switch (t) {
    case FindingType::kThresholdBurn:
      return "threshold_burn";
    case FindingType::kCombinerCollapse:
      return "combiner_collapse";
    case FindingType::kSegmentLeak:
      return "segment_leak";
    case FindingType::kThreadStalled:
      return "thread_stalled";
    case FindingType::kCacheThrash:
      return "cache_thrash";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Diagnoser
// ---------------------------------------------------------------------------

void Diagnoser::observe(std::uint64_t poll, FindingType type, const std::string& subject,
                        bool breached, double severity, std::string detail) {
  const std::string key = std::string(finding_type_name(type)) + ":" + subject;
  auto it = states_.find(key);
  if (it == states_.end()) {
    if (!breached) {
      return;  // never breached: no state to carry, keep the map bounded
    }
    it = states_.emplace(key, RuleState{}).first;
    it->second.type = type;
    it->second.subject = subject;
  }
  RuleState& s = it->second;
  if (breached) {
    s.clear_streak = 0;
    ++s.breach_streak;
    s.severity = severity;
    s.detail = std::move(detail);
    if (!s.active && s.breach_streak >= thresholds_.trip_polls) {
      s.active = true;
      s.since_poll = poll;
    }
  } else {
    s.breach_streak = 0;
    ++s.clear_streak;
    if (s.active && s.clear_streak >= thresholds_.clear_polls) {
      s.active = false;
    }
  }
}

std::vector<Finding> Diagnoser::evaluate(std::uint64_t poll,
                                         const std::vector<QueueRates>& queues,
                                         const std::vector<ThreadProgress>& threads) {
  for (const QueueRates& q : queues) {
    const bool enough = q.ops >= thresholds_.min_ops;

    const bool burn = enough && q.slot_skip_per_op > thresholds_.slot_skip_per_op;
    observe(poll, FindingType::kThresholdBurn, q.queue, burn, q.slot_skip_per_op,
            "slot_skip/op " + fmt(q.slot_skip_per_op) + " over " + std::to_string(q.ops) +
                " ops (threshold " + fmt(thresholds_.slot_skip_per_op) + ")");

    // The combining facade's registry entry carries only comb_* counters
    // (every push/pop, direct or combined, lands on its "<name>/ring"
    // sibling), so the collapse rule accepts submit volume as its gate.
    const bool collapse = (enough || q.comb_submits >= thresholds_.min_ops) &&
                          q.comb_submits > 0 &&
                          q.comb_engagement > thresholds_.comb_engagement &&
                          (q.comb_combines == 0 ||
                           q.comb_mean_batch < thresholds_.comb_batch_floor);
    observe(poll, FindingType::kCombinerCollapse, q.queue, collapse, q.comb_engagement,
            "engagement " + fmt(q.comb_engagement) + " with " +
                std::to_string(q.comb_combines) + " combine pass(es), mean batch " +
                fmt(q.comb_mean_batch) + " (floor " + fmt(thresholds_.comb_batch_floor) + ")");

    const bool leak = q.seg_in_flight > thresholds_.seg_in_flight;
    observe(poll, FindingType::kSegmentLeak, q.queue, leak,
            static_cast<double>(q.seg_in_flight),
            std::to_string(q.seg_in_flight) + " segment(s) in flight (alloc - retire, limit " +
                std::to_string(thresholds_.seg_in_flight) + ")");

    // Layer-4 rule: gated on the perf scopes' own op count, not telemetry
    // ops, so it works for queues attributed only through QueuePerfScope.
    const bool thrash = q.perf_live && q.perf_ops >= thresholds_.min_ops &&
                        q.llc_miss_per_op > thresholds_.llc_miss_per_op;
    observe(poll, FindingType::kCacheThrash, q.queue, thrash, q.llc_miss_per_op,
            "llc_miss/op " + fmt(q.llc_miss_per_op) + " over " + std::to_string(q.perf_ops) +
                " ops, cycles/op " + fmt(q.cycles_per_op) + ", ipc " + fmt(q.ipc) +
                " (threshold " + fmt(thresholds_.llc_miss_per_op) + ")");
  }

  for (const ThreadProgress& t : threads) {
    observe(poll, FindingType::kThreadStalled, "thread " + std::to_string(t.thread_ord),
            t.stalled_now, static_cast<double>(t.stalled_polls),
            "op_seq frozen at " + std::to_string(t.op_seq) + " for " +
                std::to_string(t.stalled_polls) + " poll(s); last op " + t.last_op +
                " queue=" + t.last_queue + " index=" + std::to_string(t.last_index) +
                " retries=" + std::to_string(t.last_retries));
  }

  std::vector<Finding> active;
  for (const auto& [key, s] : states_) {
    if (s.active) {
      Finding f;
      f.type = s.type;
      f.subject = s.subject;
      f.severity = s.severity;
      f.detail = s.detail;
      f.since_poll = s.since_poll;
      active.push_back(std::move(f));
    }
  }
  return active;
}

// ---------------------------------------------------------------------------
// Monitor
// ---------------------------------------------------------------------------

Monitor::Monitor(MonitorOptions options)
    : options_(options),
      registry_(options.registry != nullptr ? options.registry : &telemetry::Registry::global()),
      diagnoser_(options.thresholds) {
  // With probes compiled out (EVQ_TRACE=0) sampling would only switch every
  // ring op to its sampled body for nothing, so the latency gauges are absent.
  if (EVQ_TRACE && options_.latency_sample_every > 0 && trace::sampling_period() == 0) {
    trace::set_sampling(options_.latency_sample_every);
    enabled_sampling_ = true;
  }
}

Monitor::~Monitor() {
  stop();
  if (enabled_sampling_ && trace::sampling_period() == options_.latency_sample_every) {
    trace::set_sampling(0);
  }
}

HealthSnapshot Monitor::poll() {
  std::lock_guard<std::mutex> lock(mu_);
  return poll_locked();
}

HealthSnapshot Monitor::last() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_;
}

namespace {

using Ctr = telemetry::Counter;

std::uint64_t ctr(const telemetry::CounterSnapshot& s, Ctr c) {
  return s.counts[static_cast<std::size_t>(c)];
}

/// Durations (raw ticks) of one queue's sampled ops, by direction.
struct OpTicks {
  std::vector<std::uint64_t> push;
  std::vector<std::uint64_t> pop;
};

/// Every surviving sampled kOp span, grouped by queue id.
std::unordered_map<std::uint32_t, OpTicks> op_ticks_by_queue() {
  std::unordered_map<std::uint32_t, OpTicks> out;
  for (const trace::SpanSnapshot& s : trace::snapshot_spans()) {
    if (s.kind != trace::EventKind::kOp || s.t_end < s.t_start) {
      continue;
    }
    const auto code = static_cast<OpOutcome>(s.code);
    const bool push = code == OpOutcome::kPushOk || code == OpOutcome::kPushFull;
    OpTicks& t = out[s.queue_id];
    (push ? t.push : t.pop).push_back(s.t_end - s.t_start);
  }
  return out;
}

/// p in [0, 1] over a sorted-in-place tick vector; < 0 when empty.
double percentile_ns(std::vector<std::uint64_t>& ticks, double p) {
  if (ticks.empty()) {
    return -1.0;
  }
  std::sort(ticks.begin(), ticks.end());
  const auto idx = static_cast<std::size_t>(
      static_cast<double>(ticks.size() - 1) * p + 0.5);
  return static_cast<double>(ticks[idx]) * telemetry::ns_per_tick();
}

}  // namespace

HealthSnapshot Monitor::poll_locked() {
  const telemetry::RegistrySnapshot after = telemetry::snapshot_registry(*registry_);
  const telemetry::RegistrySnapshot delta = telemetry::snapshot_delta(prev_, after);

  HealthSnapshot snap;
  snap.poll = ++polls_;

  // --- Per-queue rates -----------------------------------------------------
  std::unordered_map<std::uint32_t, OpTicks> ticks_of = op_ticks_by_queue();

  std::unordered_map<std::uint32_t, std::string> name_of_id;
  std::uint64_t total_ops = 0;
  for (std::size_t i = 0; i < delta.queues.size(); ++i) {
    const telemetry::QueueCounters& d = delta.queues[i];
    const telemetry::QueueCounters& cum = after.queues[i];  // delta preserves order
    name_of_id.emplace(cum.id, cum.queue);

    QueueRates r;
    r.queue = d.queue;
    r.queue_id = cum.id;
    const std::uint64_t push_ok = ctr(d.counters, Ctr::kPushOk);
    const std::uint64_t pop_ok = ctr(d.counters, Ctr::kPopOk);
    r.ops = push_ok + ctr(d.counters, Ctr::kPushFull) + pop_ok +
            ctr(d.counters, Ctr::kPopEmpty);
    total_ops += r.ops;

    const std::uint64_t sc_fail = ctr(d.counters, Ctr::kSlotScFail);
    if (sc_fail + push_ok + pop_ok > 0) {
      r.cas_fail_ratio =
          static_cast<double>(sc_fail) / static_cast<double>(sc_fail + push_ok + pop_ok);
    }
    if (r.ops > 0) {
      r.slot_skip_per_op =
          static_cast<double>(ctr(d.counters, Ctr::kSlotSkip)) / static_cast<double>(r.ops);
    }
    const std::uint64_t faa = ctr(d.counters, Ctr::kFaaReserve);
    if (faa > 0) {
      // A matched SCQ op consumes two FAA tickets (fq + aq side); the rest
      // is wasted reservation work.
      const std::uint64_t matched = 2 * (push_ok + pop_ok);
      r.faa_waste = faa > matched ? static_cast<double>(faa - matched) /
                                        static_cast<double>(faa)
                                  : 0.0;
    }
    r.comb_submits = ctr(d.counters, Ctr::kCombSubmit);
    r.comb_combines = ctr(d.counters, Ctr::kCombCombine);
    if (r.ops > 0) {
      r.comb_engagement =
          static_cast<double>(r.comb_submits) / static_cast<double>(r.ops);
    }
    if (r.comb_combines > 0) {
      r.comb_mean_batch = static_cast<double>(ctr(d.counters, Ctr::kCombBatchN)) /
                          static_cast<double>(r.comb_combines);
    }
    // Cumulative on purpose: a leak is segments alive NOW, not this interval.
    r.seg_in_flight =
        static_cast<std::int64_t>(ctr(cum.counters, Ctr::kSegAlloc)) -
        static_cast<std::int64_t>(ctr(cum.counters, Ctr::kSegRetire));
    r.has_depth = d.has_depth;
    r.depth = d.depth;

    if (const auto tit = ticks_of.find(r.queue_id); tit != ticks_of.end()) {
      OpTicks& t = tit->second;
      r.push_p50_ns = percentile_ns(t.push, 0.50);
      r.push_p99_ns = percentile_ns(t.push, 0.99);
      r.pop_p50_ns = percentile_ns(t.pop, 0.50);
      r.pop_p99_ns = percentile_ns(t.pop, 0.99);
    }
    snap.queues.push_back(std::move(r));
  }

  // A combining facade registers two entries: "<name>" holds the comb_*
  // counters, while every ring op — direct-path, withdrawn, or applied by a
  // combiner batch — lands on "<name>/ring". Pair them so the facade's
  // comb_engagement is announce-path ops per actual op, not per the facade
  // entry's (always-zero) op count.
  std::unordered_map<std::string, std::size_t> index_of_name;
  for (std::size_t i = 0; i < snap.queues.size(); ++i) {
    index_of_name.emplace(snap.queues[i].queue, i);
  }
  for (QueueRates& r : snap.queues) {
    if (r.comb_submits == 0) {
      continue;
    }
    const auto rit = index_of_name.find(r.queue + "/ring");
    if (rit == index_of_name.end()) {
      continue;
    }
    const std::uint64_t flow = r.ops + snap.queues[rit->second].ops;
    if (flow > 0) {
      r.comb_engagement = static_cast<double>(r.comb_submits) / static_cast<double>(flow);
    }
  }

  // --- Layer-4 perf join ---------------------------------------------------
  // Whole-queue attribution deltas merged into QueueRates by registry name.
  // The attribution table is append-only (like the registry), so a
  // before/after snapshot pair is an exact interval delta.
  if (options_.perf != nullptr) {
    const perf::AttributionSnapshot pafter = options_.perf->snapshot();
    std::unordered_map<std::string, std::size_t> rate_index;
    for (std::size_t i = 0; i < snap.queues.size(); ++i) {
      rate_index.emplace(snap.queues[i].queue, i);
    }
    for (const auto& [name, agg] : pafter.queues) {
      const perf::PerfAgg* before = prev_perf_.find(name);
      const perf::PerfAgg delta =
          before != nullptr ? perf::agg_delta(agg, *before) : agg;
      if (delta.scopes == 0 && delta.ops == 0) {
        continue;  // no deposits this interval
      }
      QueueRates* r;
      if (const auto it = rate_index.find(name); it != rate_index.end()) {
        r = &snap.queues[it->second];
      } else {
        QueueRates fresh;
        fresh.queue = name;
        snap.queues.push_back(std::move(fresh));
        r = &snap.queues.back();
      }
      r->perf_live = true;
      r->perf_ops = delta.ops;
      r->cycles_per_op = delta.per_op(perf::Event::kCycles);
      r->ipc = delta.ipc();
      r->llc_miss_per_op = delta.per_op(perf::Event::kLlcMisses);
    }
    prev_perf_ = pafter;
  }

  // --- Per-thread progress -------------------------------------------------
  const bool system_progressing = total_ops >= options_.thresholds.min_ops;
  const bool tracing = telemetry::tracing_enabled();
  for (const telemetry::LastOpState& s : telemetry::last_ops_per_thread()) {
    auto [it, fresh] = thread_states_.try_emplace(s.thread_ord);
    ThreadState& st = it->second;
    if (fresh) {
      // First sight of this ring: baseline only. A ring that never advances
      // past its baseline is idle-from-our-perspective, never stalled.
      st.baseline_seq = s.op_seq;
      st.prev_seq = s.op_seq;
    }
    ThreadProgress p;
    p.thread_ord = s.thread_ord;
    p.live = s.thread_live;
    p.op_seq = s.op_seq;
    if (s.op_seq != st.prev_seq) {
      st.ever_advanced = true;
    }
    const bool frozen = !fresh && s.op_seq == st.prev_seq;
    p.stalled_now = tracing && s.thread_live && st.ever_advanced && frozen &&
                    system_progressing;
    st.stalled_polls = p.stalled_now ? st.stalled_polls + 1 : 0;
    p.stalled_polls = st.stalled_polls;
    st.prev_seq = s.op_seq;

    p.last_op = op_outcome_name(s.op);
    const auto nit = name_of_id.find(s.queue_id);
    p.last_queue = nit != name_of_id.end() ? nit->second : std::to_string(s.queue_id);
    p.last_index = s.index;
    p.last_retries = s.retries;
    snap.threads.push_back(std::move(p));
  }

  snap.findings = diagnoser_.evaluate(snap.poll, snap.queues, snap.threads);

  prev_ = after;
  last_ = snap;
  return snap;
}

void Monitor::start(std::chrono::milliseconds interval) {
  std::lock_guard<std::mutex> lock(run_mu_);
  if (running_) {
    return;
  }
  if (poller_.joinable()) {
    poller_.join();  // a previous start/stop cycle finished; reap it
  }
  running_ = true;
  poller_ = std::thread([this, interval] {
    std::unique_lock<std::mutex> lk(run_mu_);
    while (running_) {
      if (run_cv_.wait_for(lk, interval, [this] { return !running_; })) {
        break;
      }
      lk.unlock();
      poll();
      lk.lock();
    }
  });
}

void Monitor::stop() {
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    running_ = false;
  }
  run_cv_.notify_all();
  if (poller_.joinable()) {
    poller_.join();
  }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

void render_prometheus_health(std::ostream& os, const HealthSnapshot& snap) {
  os << "# HELP evq_health_rate Derived per-queue health rates over the last poll interval.\n";
  os << "# TYPE evq_health_rate gauge\n";
  for (const QueueRates& q : snap.queues) {
    const std::string label = telemetry::escape_label_value(q.queue);
    auto rate = [&](const char* name, const std::string& value) {
      os << "evq_health_rate{queue=\"" << label << "\",rate=\"" << name << "\"} " << value
         << "\n";
    };
    rate("ops", std::to_string(q.ops));
    rate("cas_fail_ratio", fmt(q.cas_fail_ratio));
    rate("slot_skip_per_op", fmt(q.slot_skip_per_op));
    rate("faa_waste", fmt(q.faa_waste));
    rate("comb_engagement", fmt(q.comb_engagement));
    rate("comb_mean_batch", fmt(q.comb_mean_batch));
    rate("seg_in_flight", std::to_string(q.seg_in_flight));
    if (q.has_depth) {
      rate("depth", std::to_string(q.depth));
    }
    if (q.perf_live) {
      rate("perf_ops", std::to_string(q.perf_ops));
      if (q.cycles_per_op >= 0.0) {
        rate("cycles_per_op", fmt(q.cycles_per_op));
      }
      if (q.ipc >= 0.0) {
        rate("ipc", fmt(q.ipc));
      }
      if (q.llc_miss_per_op >= 0.0) {
        rate("llc_miss_per_op", fmt(q.llc_miss_per_op));
      }
    }
  }
  os << "# HELP evq_health_latency_ns Sampled operation latency quantiles (SLO reservoir).\n";
  os << "# TYPE evq_health_latency_ns gauge\n";
  for (const QueueRates& q : snap.queues) {
    const std::string label = telemetry::escape_label_value(q.queue);
    auto quantile = [&](const char* op, const char* qn, double v) {
      if (v >= 0.0) {
        os << "evq_health_latency_ns{queue=\"" << label << "\",op=\"" << op
           << "\",quantile=\"" << qn << "\"} " << fmt(v) << "\n";
      }
    };
    quantile("push", "p50", q.push_p50_ns);
    quantile("push", "p99", q.push_p99_ns);
    quantile("pop", "p50", q.pop_p50_ns);
    quantile("pop", "p99", q.pop_p99_ns);
  }
  os << "# HELP evq_health_finding_active Health findings currently firing (after hysteresis).\n";
  os << "# TYPE evq_health_finding_active gauge\n";
  for (const Finding& f : snap.findings) {
    os << "evq_health_finding_active{type=\"" << finding_type_name(f.type) << "\",subject=\""
       << telemetry::escape_label_value(f.subject) << "\"} 1\n";
  }
}

void health_json(std::ostream& os, const HealthSnapshot& snap) {
  os << "{\"health_schema_version\":" << kHealthSchemaVersion << ",\"poll\":" << snap.poll
     << ",\"queues\":[";
  bool first = true;
  for (const QueueRates& q : snap.queues) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "{\"queue\":\"" << json_escape(q.queue) << "\",\"id\":" << q.queue_id
       << ",\"ops\":" << q.ops << ",\"rates\":{\"cas_fail_ratio\":" << fmt(q.cas_fail_ratio)
       << ",\"slot_skip_per_op\":" << fmt(q.slot_skip_per_op)
       << ",\"faa_waste\":" << fmt(q.faa_waste)
       << ",\"comb_engagement\":" << fmt(q.comb_engagement)
       << ",\"comb_mean_batch\":" << fmt(q.comb_mean_batch)
       << ",\"seg_in_flight\":" << q.seg_in_flight << "}";
    if (q.has_depth) {
      os << ",\"depth\":" << q.depth;
    }
    if (q.push_p50_ns >= 0.0 || q.pop_p50_ns >= 0.0) {
      os << ",\"latency_ns\":{";
      bool lfirst = true;
      auto emit = [&](const char* key, double v) {
        if (v >= 0.0) {
          os << (lfirst ? "" : ",") << "\"" << key << "\":" << fmt(v);
          lfirst = false;
        }
      };
      emit("push_p50", q.push_p50_ns);
      emit("push_p99", q.push_p99_ns);
      emit("pop_p50", q.pop_p50_ns);
      emit("pop_p99", q.pop_p99_ns);
      os << "}";
    }
    if (q.perf_live) {
      os << ",\"perf\":{\"ops\":" << q.perf_ops;
      auto pemit = [&](const char* key, double v) {
        if (v >= 0.0) {
          os << ",\"" << key << "\":" << fmt(v);
        }
      };
      pemit("cycles_per_op", q.cycles_per_op);
      pemit("ipc", q.ipc);
      pemit("llc_miss_per_op", q.llc_miss_per_op);
      os << "}";
    }
    os << "}";
  }
  os << "],\"threads\":[";
  first = true;
  for (const ThreadProgress& t : snap.threads) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "{\"ord\":" << t.thread_ord << ",\"live\":" << (t.live ? "true" : "false")
       << ",\"op_seq\":" << t.op_seq
       << ",\"stalled_now\":" << (t.stalled_now ? "true" : "false")
       << ",\"stalled_polls\":" << t.stalled_polls << ",\"last_op\":\""
       << json_escape(t.last_op) << "\",\"last_queue\":\"" << json_escape(t.last_queue)
       << "\",\"last_index\":" << t.last_index << ",\"last_retries\":" << t.last_retries
       << "}";
  }
  os << "],\"findings\":[";
  first = true;
  for (const Finding& f : snap.findings) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "{\"type\":\"" << finding_type_name(f.type) << "\",\"subject\":\""
       << json_escape(f.subject) << "\",\"severity\":" << fmt(f.severity)
       << ",\"since_poll\":" << f.since_poll << ",\"detail\":\"" << json_escape(f.detail)
       << "\"}";
  }
  os << "]}\n";
}

}  // namespace evq::health
