// Exporter surface: Prometheus text rendering and a snapshot/delta API.
//
// render_prometheus() writes the classic text exposition format. Output is
// deterministic — entries in registration order, counters in enum order —
// so the format is pinned by a golden test. snapshot_registry()/delta()
// back `evq-bench --telemetry` (per-scenario counter deltas merged into the
// JSON document) and the evq-stats example.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "evq/telemetry/metrics.hpp"
#include "evq/telemetry/registry.hpp"

namespace evq::telemetry {

struct QueueCounters {
  std::string queue;
  std::uint32_t id = 0;  // registry entry id (stable; trace spans and flight records carry it)
  CounterSnapshot counters;
  bool has_depth = false;  // true when the entry had >= 1 depth gauge
  std::uint64_t depth = 0;
};

struct RegistrySnapshot {
  std::vector<QueueCounters> queues;  // registration order

  [[nodiscard]] const QueueCounters* find(const std::string& queue) const noexcept {
    for (const QueueCounters& q : queues) {
      if (q.queue == queue) {
        return &q;
      }
    }
    return nullptr;
  }
};

RegistrySnapshot snapshot_registry(const Registry& reg = Registry::global());

/// Escapes a string for use inside a Prometheus label VALUE: backslash,
/// double-quote, and newline get backslash-escaped per the text exposition
/// format. Registry entry names are free-form (sharded queues register
/// `<name>/<i>`, segmented inner rings `<name>/ring`) — a label VALUE may
/// carry any UTF-8 as long as these three are escaped, so names never need
/// to be mangled, only escaped.
std::string escape_label_value(std::string_view raw);

/// Per-queue counter deltas `after - before`, keyed by name. Queues absent
/// from `before` (registered mid-interval) contribute their full counts;
/// depth is carried from `after` (a gauge has no meaningful delta).
RegistrySnapshot snapshot_delta(const RegistrySnapshot& before, const RegistrySnapshot& after);

/// evq_queue_ops_total{queue=...,op=...} counters (all 14 per queue) and
/// evq_queue_depth{queue=...} gauges (only queues with a registered gauge).
void render_prometheus(std::ostream& os, const Registry& reg = Registry::global());

}  // namespace evq::telemetry
