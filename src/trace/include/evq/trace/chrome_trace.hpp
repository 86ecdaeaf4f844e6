// Chrome Trace Format export of the evq::trace span rings.
//
// Emits the JSON object form ({"traceEvents": [...]}) of the Trace Event
// Format that chrome://tracing and Perfetto load directly:
//
//  * one track per recorded thread ordinal (pid 0, tid = ordinal, named via
//    an "M" thread_name metadata event);
//  * each sampled operation is a "ph":"X" duration event (cat "op", name
//    push_ok/push_full/pop_ok/pop_empty) whose phase sub-slices (cat
//    "phase": index_load, slot_attempt, backoff) nest inside it by time
//    containment;
//  * help-advance spans are duration events (cat "help") that additionally
//    open a flow ("ph":"s") closed ("ph":"f", bp "e") on the op that
//    committed at the helped index — Perfetto draws the helper→helped
//    arrow. Pairing happens here at export time by (queue, index, op kind):
//    no runtime coordination between helper and helped is needed;
//  * reclamation spans are duration events (cat "reclaim").
//
// Timestamps: ring records hold raw trace_clock() ticks; export converts to
// the format's microseconds using telemetry::ns_per_tick() (or the caller
// override in ExportOptions, which the golden test uses for byte-stable
// output).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace evq::trace {

struct ExportOptions {
  /// Nanoseconds per trace_clock() tick; 0 = telemetry::ns_per_tick().
  double ns_per_tick = 0.0;
  /// Tick value mapped to ts=0; kAutoOrigin = the earliest recorded tick.
  static constexpr std::uint64_t kAutoOrigin = ~std::uint64_t{0};
  std::uint64_t origin = kAutoOrigin;
  /// Free-form caller annotations, emitted as global instant events on a
  /// dedicated "health" track at ts=0. The torture watchdog routes the
  /// health layer's active findings here so a wedge trace opens in Perfetto
  /// with the diagnosis pinned alongside the spans.
  std::vector<std::string> annotations;
};

/// Writes every surviving ring record as Chrome Trace Format JSON. Safe to
/// call while writer threads are live (racy-but-atomic ring reads); with
/// -DEVQ_TRACE=OFF (or tracing never enabled) the document is valid and
/// empty.
void export_chrome_trace(std::ostream& os, const ExportOptions& options = {});

}  // namespace evq::trace
