// Declarative experiment scenarios for the unified evq-bench driver.
//
// Each reproduced figure, in-text table, ablation and extension experiment
// is a ScenarioSpec registered the same way queue_registry registers queues:
// a name, the sweep grid (rows), the algorithm series (columns), and
// presentation callbacks — a human table with the paper-claim commentary and
// a CSV printer byte-compatible with the pre-refactor per-figure binaries.
// One driver (bench/evq_bench.cpp) runs any subset and can additionally emit
// the versioned JSON document (bench_json.hpp) with throughput, latency
// percentiles and op_stats counters per cell.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "evq/common/op_stats.hpp"
#include "evq/harness/cli.hpp"
#include "evq/harness/queue_registry.hpp"
#include "evq/harness/stats.hpp"
#include "evq/harness/workload.hpp"
#include "evq/health/health.hpp"
#include "evq/telemetry/prometheus.hpp"

namespace evq::harness {

/// Measurements for one (series, row) cell.
struct CellStats {
  Summary time;                 // seconds per run (paper metric)
  double throughput = 0.0;      // completed ops / wall second, aggregate
  std::uint64_t total_ops = 0;  // completed ops across all runs
  LogHistogram latency;         // sampled per-op latency (ns); empty when off
  stats::OpCounters ops{};      // aggregate counters (op_stats mode / op-profile)
  bool has_ops = false;
  perf::PerfAgg perf{};         // hardware-counter totals (--perf)
  bool has_perf = false;        // true only when at least one event counted
};

/// One column: an algorithm (or configuration) across every row.
struct ScenarioSeries {
  std::string name;
  std::string label;
  std::vector<CellStats> cells;  // parallel to ScenarioResult::rows
};

/// One row of the sweep grid, with the fully-resolved workload parameters
/// that produced it (recorded into the JSON document).
struct ScenarioRow {
  std::string label;      // e.g. "4" (threads axis) or "25,4" (bias,threads)
  WorkloadParams params;
};

/// Health-monitor digest of a scenario run (--health): the Monitor is
/// pumped once per (series, row) cell plus a final poll, and the digest
/// keeps the final rates, the findings still active at the end, and how
/// many polls each finding type spent active — the number the CI overhead
/// gate and bench_diff.py compare across runs.
struct ScenarioHealth {
  bool enabled = false;
  std::uint64_t polls = 0;
  std::vector<health::QueueRates> queues;  // final poll, nonzero-ops entries
  std::vector<health::Finding> findings;   // active at scenario end
  std::array<std::uint64_t, health::kFindingTypeCount> finding_polls{};
};

/// Backend record of a --perf run. Always present when perf was requested —
/// a degraded host reports backend "null" with the denial reason instead of
/// silently omitting the section (the degradation tests pin this).
struct ScenarioPerf {
  bool enabled = false;
  std::string backend;  // "perf_event", "mock" or "null"
  bool available = false;
  std::string reason;   // why counting is off; empty when available
};

struct ScenarioResult {
  std::string name;
  std::string title;
  std::string axis;  // row-label column header ("threads", "capacity", ...)
  std::vector<ScenarioRow> rows;
  std::vector<ScenarioSeries> series;
  /// Per-queue telemetry counter deltas accumulated over the whole scenario
  /// (only entries with at least one nonzero counter; populated when the
  /// scenario runs with --telemetry).
  std::vector<telemetry::QueueCounters> telemetry;
  /// Populated when the scenario runs with --health.
  ScenarioHealth health;
  /// Populated when the scenario runs with --perf.
  ScenarioPerf perf;

  [[nodiscard]] const ScenarioSeries* series_named(const std::string& name) const;
};

struct ScenarioSpec {
  std::string name;     // registry key (also CLI token)
  std::string title;    // heading printed above the table
  std::string summary;  // one-liner for `evq-bench list`
  std::string axis = "threads";

  // CI-scale defaults (the pre-refactor binaries' argument-free behavior).
  std::vector<unsigned> default_threads;
  std::uint64_t default_iters = 5000;
  unsigned default_runs = 3;

  /// Builds the fully-resolved sweep grid from the scenario's options.
  std::function<std::vector<ScenarioRow>(const CliOptions&)> rows;
  /// The algorithm series. Usually registry lookups; ablations build
  /// non-registry specs (weak LL/SC, HP threshold sweeps) here.
  std::function<std::vector<QueueSpec>()> series;
  /// Optional custom runner for scenarios that do not fit the rows x series
  /// workload sweep (the op-profile instruction-count tables). When set, it
  /// fully replaces the default sweep.
  std::function<ScenarioResult(const ScenarioSpec&, const CliOptions&)> run;
  /// Human-readable output: table plus paper-claim postprocessing.
  std::function<void(const ScenarioResult&, const CliOptions&)> print_table;
  /// Legacy CSV output, byte-compatible with the pre-refactor binary.
  std::function<void(const ScenarioResult&, const CliOptions&)> print_csv;
};

/// All registered scenarios, in presentation order.
const std::vector<ScenarioSpec>& all_scenarios();

/// Lookup by name; aborts with a message listing valid names if unknown.
const ScenarioSpec& find_scenario(const std::string& name);

/// Scenario defaults + user overrides = the options the scenario runs with.
CliOptions scenario_options(const ScenarioSpec& spec, const CliOverrides& overrides);

/// Runs the scenario (default sweep or its custom runner). Progress notes go
/// to stderr so stdout stays a clean table/CSV.
ScenarioResult run_scenario(const ScenarioSpec& spec, const CliOptions& opts);

/// Dispatches to print_csv or print_table according to opts.csv.
void print_scenario(const ScenarioSpec& spec, const ScenarioResult& result,
                    const CliOptions& opts);

// ---------------------------------------------------------------------------
// Shared helpers for scenario definitions (also used by tests).
// ---------------------------------------------------------------------------

/// One row per opts.thread_counts entry — the standard Fig. 6 sweep.
std::vector<ScenarioRow> thread_rows(const CliOptions& opts);

/// A series() callback resolving registry names.
std::function<std::vector<QueueSpec>()> registry_series(std::vector<std::string> names);

/// Prints absolute times (seconds), one row per sweep point — Fig. 6a/6b
/// shape; byte-compatible with the pre-refactor print_absolute.
void print_absolute(const ScenarioResult& result, const CliOptions& opts,
                    const std::string& title);

/// Prints times normalized to `baseline_name` — Fig. 6c/6d shape ("The basis
/// of normalization was chosen to be our CAS-based implementation").
void print_normalized(const ScenarioResult& result, const CliOptions& opts,
                      const std::string& title, const std::string& baseline_name);

/// One column of print_speedup: `bare` mean time over `composed` mean time.
struct SpeedupColumn {
  std::string label;
  std::string bare;
  std::string composed;
};

/// Prints `heading`, one row per sweep point of bare / composed mean-time
/// ratios (one column each), then `footnote`. Prints nothing when a named
/// series is missing from the result.
void print_speedup(const ScenarioResult& result, const std::string& heading,
                   const std::vector<SpeedupColumn>& columns, const std::string& footnote);

}  // namespace evq::harness
