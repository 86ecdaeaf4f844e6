// Out-of-line evq::trace state: the sampling globals, the span snapshot and
// the Chrome Trace Format exporter. Like telemetry.cpp, this TU is linked into
// every binary including the fault-injected torture build, so it must stay
// free of injectable headers — it includes only trace/, telemetry/ and
// common/ (the probes that DO sit in injectable headers are header-only and
// compile inside each binary's own TUs).
#include "evq/trace/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "evq/telemetry/registry.hpp"
#include "evq/trace/chrome_trace.hpp"

namespace evq::trace {

const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::kIndexLoad:
      return "index_load";
    case Phase::kSlotAttempt:
      return "slot_attempt";
    case Phase::kBackoff:
      return "backoff";
    case Phase::kHelpAdvance:
      return "help_advance";
    case Phase::kFaaReserve:
      return "faa_reserve";
    case Phase::kSlotSkip:
      return "slot_skip";
    case Phase::kSegAppend:
      return "seg_append";
    case Phase::kSegRetire:
      return "seg_retire";
  }
  return "unknown";
}

const char* help_target_name(HelpTarget t) noexcept {
  switch (t) {
    case HelpTarget::kTail:
      return "tail";
    case HelpTarget::kHead:
      return "head";
    case HelpTarget::kCombiner:
      return "combiner";
  }
  return "unknown";
}

const char* reclaim_kind_name(ReclaimKind k) noexcept {
  switch (k) {
    case ReclaimKind::kHpScan:
      return "hp_scan";
    case ReclaimKind::kEpochAdvance:
      return "epoch_advance";
    case ReclaimKind::kPoolTake:
      return "pool_take";
  }
  return "unknown";
}

namespace detail {

std::atomic<std::uint32_t> g_sample_every{0};

void reset_for_test() {
  SpanRingPool::reset();
  evq::detail::t_block.trace_countdown = 0;
}

SpanRing& make_ring_for_test() { return SpanRingPool::make_unattached(); }

}  // namespace detail

void set_sampling(std::uint32_t every) noexcept {
  static std::mutex setting_mutex;  // keeps the gate bit in step with the period
  std::lock_guard<std::mutex> lock(setting_mutex);
  detail::g_sample_every.store(every, std::memory_order_relaxed);
  evq::detail::set_sampled_hook(evq::detail::kTraceSamplingHook, every != 0);
  evq::detail::t_block.trace_countdown = 0;  // this thread's next probe arms immediately
}

std::uint32_t sampling_period() noexcept {
  return detail::g_sample_every.load(std::memory_order_relaxed);
}

std::vector<SpanSnapshot> snapshot_spans() {
  const std::vector<SpanRing*> rings = detail::SpanRingPool::rings();
  std::vector<SpanSnapshot> out;
  auto copy_record = [&out](const SpanRing::Record& r) {
    SpanSnapshot s;
    s.thread_ord = r.thread_ord.load(std::memory_order_relaxed);
    s.kind = static_cast<EventKind>(r.kind.load(std::memory_order_relaxed));
    s.code = r.code.load(std::memory_order_relaxed);
    s.queue_id = r.queue_id.load(std::memory_order_relaxed);
    s.extra = r.extra.load(std::memory_order_relaxed);
    s.index = r.index.load(std::memory_order_relaxed);
    s.t_start = r.t_start.load(std::memory_order_relaxed);
    s.t_end = r.t_end.load(std::memory_order_relaxed);
    out.push_back(s);
  };
  for (const SpanRing* ring : rings) {
    const std::uint64_t total = ring->total_records();
    const std::uint64_t window = total < SpanRing::kSpans ? total : SpanRing::kSpans;
    for (std::uint64_t i = total - window; i < total; ++i) {
      copy_record(ring->record_at(i));
    }
    const std::uint64_t helps = ring->total_help_records();
    const std::uint64_t help_window =
        helps < SpanRing::kHelpSpans ? helps : SpanRing::kHelpSpans;
    for (std::uint64_t i = helps - help_window; i < helps; ++i) {
      copy_record(ring->help_record_at(i));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Chrome Trace Format export
// ---------------------------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

/// queue_id -> registered queue name, via the global telemetry registry.
std::unordered_map<std::uint32_t, std::string> queue_names() {
  std::unordered_map<std::uint32_t, std::string> names;
  telemetry::Registry::global().for_each(
      [&](const telemetry::Registry::Entry& e, std::size_t, std::uint64_t) {
        names.emplace(e.id, e.name);
      });
  return names;
}

/// Track id for caller annotations — far above any real thread ordinal so
/// the health track sorts last and never collides with a worker track.
constexpr std::uint32_t kAnnotationTid = 1'000'000;

struct Emitter {
  std::ostream& os;
  double us_per_tick;
  std::uint64_t origin;
  bool first = true;

  void open() { os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"; }
  void close() { os << (first ? "" : "\n") << "]}\n"; }

  void begin_event() {
    if (!first) {
      os << ",\n";
    }
    first = false;
  }

  [[nodiscard]] std::string ts(std::uint64_t ticks) const {
    const std::uint64_t rel = ticks >= origin ? ticks - origin : 0;
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(rel) * us_per_tick);
    return buf;
  }
};

}  // namespace

void export_chrome_trace(std::ostream& os, const ExportOptions& options) {
  const std::vector<SpanSnapshot> spans = snapshot_spans();

  const double ns_per_tick =
      options.ns_per_tick > 0.0 ? options.ns_per_tick : telemetry::ns_per_tick();
  std::uint64_t origin = options.origin;
  if (origin == ExportOptions::kAutoOrigin) {
    origin = 0;
    bool seen = false;
    for (const SpanSnapshot& s : spans) {
      if (!seen || s.t_start < origin) {
        origin = s.t_start;
        seen = true;
      }
    }
  }

  const std::unordered_map<std::uint32_t, std::string> names = queue_names();
  auto queue_label = [&](std::uint32_t id) -> std::string {
    if (id == kNoQueue) {
      return "(unattributed)";
    }
    auto it = names.find(id);
    return it != names.end() ? json_escape(it->second) : std::to_string(id);
  };

  Emitter e{os, ns_per_tick / 1000.0, origin};
  e.open();

  // Track names, in ordinal order.
  std::vector<std::uint32_t> ords;
  for (const SpanSnapshot& s : spans) {
    bool known = false;
    for (std::uint32_t o : ords) {
      known = known || o == s.thread_ord;
    }
    if (!known) {
      ords.push_back(s.thread_ord);
    }
  }
  for (std::uint32_t o : ords) {
    e.begin_event();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" << o
       << ",\"args\":{\"name\":\"evq worker " << o << "\"}}";
  }

  // Flow-finish anchors for helper events, by (queue, index, side). Two
  // sources, in preference order: the helped thread's always-on marker
  // (OpProbe::helped — exact, exists regardless of sampling) and, as a
  // fallback, a sampled committed-op record at the same index. Several
  // same-name queue instances share a telemetry id, so a key can recur
  // across runs — keeping the first occurrence is a best-effort pairing,
  // which is all a sampled diagnostic promises.
  struct OpRef {
    std::uint32_t tid;
    std::uint64_t t_end;
  };
  // Key suffix disambiguates the index space: ":e"/":d" are ring tail/head
  // indices, ":c" is the combiner's own serial space (combiner helps join on
  // the serial the combiner stamped into the announce record, never on a
  // ring index).
  auto op_key = [](std::uint32_t queue_id, std::uint64_t index, HelpTarget target) {
    const char* side = target == HelpTarget::kTail ? ":e"
                       : target == HelpTarget::kHead ? ":d"
                                                     : ":c";
    return std::to_string(queue_id) + ":" + std::to_string(index) + side;
  };
  std::unordered_map<std::string, OpRef> committed;
  for (const SpanSnapshot& s : spans) {
    if (s.kind == EventKind::kHelp && s.extra == OpProbe::kHelpedSide) {
      committed.emplace(op_key(s.queue_id, s.index, static_cast<HelpTarget>(s.code)),
                        OpRef{s.thread_ord, s.t_end});
    }
  }
  for (const SpanSnapshot& s : spans) {
    if (s.kind != EventKind::kOp) {
      continue;
    }
    const OpOutcome code = static_cast<OpOutcome>(s.code);
    if (code == OpOutcome::kPushOk || code == OpOutcome::kPopOk) {
      committed.emplace(op_key(s.queue_id, s.index,
                               code == OpOutcome::kPushOk ? HelpTarget::kTail : HelpTarget::kHead),
                        OpRef{s.thread_ord, s.t_end});
    }
  }

  std::uint64_t next_flow_id = 1;
  for (const SpanSnapshot& s : spans) {
    const std::string dur = [&] {
      const std::uint64_t d = s.t_end >= s.t_start ? s.t_end - s.t_start : 0;
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(d) * e.us_per_tick);
      return std::string(buf);
    }();
    switch (s.kind) {
      case EventKind::kOp:
        e.begin_event();
        os << "{\"ph\":\"X\",\"name\":\"" << op_outcome_name(static_cast<OpOutcome>(s.code))
           << "\",\"cat\":\"op\",\"pid\":0,\"tid\":" << s.thread_ord << ",\"ts\":"
           << e.ts(s.t_start) << ",\"dur\":" << dur << ",\"args\":{\"queue\":\""
           << queue_label(s.queue_id) << "\",\"index\":" << s.index
           << ",\"retries\":" << s.extra << "}}";
        break;
      case EventKind::kPhase:
        e.begin_event();
        os << "{\"ph\":\"X\",\"name\":\"" << phase_name(static_cast<Phase>(s.code))
           << "\",\"cat\":\"phase\",\"pid\":0,\"tid\":" << s.thread_ord << ",\"ts\":"
           << e.ts(s.t_start) << ",\"dur\":" << dur << ",\"args\":{\"queue\":\""
           << queue_label(s.queue_id) << "\"}}";
        break;
      case EventKind::kHelp: {
        const HelpTarget target = static_cast<HelpTarget>(s.code);
        const bool helper = s.extra == OpProbe::kHelperSide;
        e.begin_event();
        os << "{\"ph\":\"X\",\"name\":\"" << (helper ? "help_advance" : "helped")
           << "\",\"cat\":\"help\",\"pid\":0,\"tid\":"
           << s.thread_ord << ",\"ts\":" << e.ts(s.t_start) << ",\"dur\":" << dur
           << ",\"args\":{\"queue\":\"" << queue_label(s.queue_id) << "\",\"index\":"
           << s.index << ",\"target\":\"" << help_target_name(target) << "\"}}";
        if (!helper) {
          break;  // flow arrows start at the helper only
        }
        const auto it = committed.find(op_key(s.queue_id, s.index, target));
        if (it != committed.end() && it->second.tid != s.thread_ord) {
          const std::uint64_t id = next_flow_id++;
          e.begin_event();
          os << "{\"ph\":\"s\",\"name\":\"help\",\"cat\":\"help\",\"id\":" << id
             << ",\"pid\":0,\"tid\":" << s.thread_ord << ",\"ts\":" << e.ts(s.t_start)
             << "}";
          e.begin_event();
          os << "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"help\",\"cat\":\"help\",\"id\":"
             << id << ",\"pid\":0,\"tid\":" << it->second.tid << ",\"ts\":"
             << e.ts(it->second.t_end) << "}";
        }
        break;
      }
      case EventKind::kReclaim:
        e.begin_event();
        os << "{\"ph\":\"X\",\"name\":\"" << reclaim_kind_name(static_cast<ReclaimKind>(s.code))
           << "\",\"cat\":\"reclaim\",\"pid\":0,\"tid\":" << s.thread_ord << ",\"ts\":"
           << e.ts(s.t_start) << ",\"dur\":" << dur << ",\"args\":{\"queue\":\""
           << queue_label(s.queue_id) << "\"}}";
        break;
    }
  }
  // Caller annotations (health findings on a wedge dump): global instants at
  // the timeline origin, on their own named track so Perfetto groups them.
  if (!options.annotations.empty()) {
    e.begin_event();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" << kAnnotationTid
       << ",\"args\":{\"name\":\"evq health\"}}";
    for (const std::string& a : options.annotations) {
      e.begin_event();
      os << "{\"ph\":\"i\",\"s\":\"g\",\"name\":\"" << json_escape(a)
         << "\",\"cat\":\"health\",\"pid\":0,\"tid\":" << kAnnotationTid << ",\"ts\":0}";
    }
  }
  e.close();
}

}  // namespace evq::trace
