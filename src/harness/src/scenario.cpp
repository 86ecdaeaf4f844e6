#include "evq/harness/scenario.hpp"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "evq/common/config.hpp"
#include "evq/health/monitor.hpp"
#include "evq/perf/backend.hpp"

namespace evq::harness {

const ScenarioSeries* ScenarioResult::series_named(const std::string& name) const {
  for (const ScenarioSeries& s : series) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

CliOptions scenario_options(const ScenarioSpec& spec, const CliOverrides& overrides) {
  CliOptions opts;
  opts.thread_counts = spec.default_threads;
  opts.workload.iterations = spec.default_iters;
  opts.workload.runs = spec.default_runs;
  overrides.apply(opts);
  return opts;
}

ScenarioResult run_scenario(const ScenarioSpec& spec, const CliOptions& opts) {
  if (spec.run) {
    return spec.run(spec, opts);
  }
  // With --telemetry, the scenario's counter contribution is the registry
  // delta across the whole sweep: entries are never deleted, so a
  // before/after snapshot pair is exact even though queue instances come and
  // go per run.
  telemetry::RegistrySnapshot before;
  if (opts.telemetry) {
    before = telemetry::snapshot_registry();
  }
  // With --health, a caller-pumped Monitor runs across the sweep (one poll
  // per cell + a final one). Constructing it switches 1-in-64 trace
  // sampling on (unless --trace-sample already set a period); its latency
  // percentiles come from those op spans. The A/B overhead gate in CI runs
  // the same scenario with and without this flag.
  std::optional<health::Monitor> monitor;
  ScenarioHealth health_digest;
  auto pump_health = [&] {
    if (!monitor) {
      return;
    }
    const health::HealthSnapshot s = monitor->poll();
    health_digest.polls = s.poll;
    bool seen[health::kFindingTypeCount] = {};
    for (const health::Finding& f : s.findings) {
      seen[static_cast<std::size_t>(f.type)] = true;
    }
    for (std::size_t i = 0; i < health::kFindingTypeCount; ++i) {
      if (seen[i]) {
        ++health_digest.finding_polls[i];
      }
    }
  };
  if (opts.health) {
    monitor.emplace();
    health_digest.enabled = true;
    monitor->poll();  // baseline: exclude pre-scenario counter history
  }
  ScenarioResult result;
  if (opts.perf) {
    perf::Backend& backend = perf::default_backend();
    result.perf.enabled = true;
    result.perf.backend = backend.name();
    result.perf.available = backend.available();
    result.perf.reason = backend.unavailable_reason();
    if (!backend.available()) {
      std::fprintf(stderr, "# perf: unavailable (%s)\n", result.perf.reason.c_str());
    }
  }
  result.name = spec.name;
  result.title = spec.title;
  result.axis = spec.axis;
  result.rows = spec.rows(opts);
  for (const QueueSpec& queue : spec.series()) {
    ScenarioSeries series{queue.name, queue.paper_label, {}};
    for (const ScenarioRow& row : result.rows) {
      std::fprintf(stderr, "# %-18s %s=%-6s iters=%llu runs=%u ...\n", queue.name.c_str(),
                   spec.axis.c_str(), row.label.c_str(),
                   static_cast<unsigned long long>(row.params.iterations), row.params.runs);
      const WorkloadResult w = run_workload_ex(queue, row.params);
      CellStats cell;
      cell.time = summarize(w.times());
      cell.throughput = w.throughput_ops_per_sec();
      cell.total_ops = w.total_ops();
      cell.latency = w.latency;
      cell.ops = w.ops;
      cell.has_ops = row.params.record_op_stats;
      cell.perf = w.perf;
      // A dead backend harvests ops but no events: the cell stays perf-less
      // and the scenario-level ScenarioPerf record explains why.
      cell.has_perf = row.params.record_perf && w.perf.any_available();
      series.cells.push_back(std::move(cell));
      pump_health();
    }
    result.series.push_back(std::move(series));
  }
  if (monitor) {
    const health::HealthSnapshot final_snap = monitor->last();
    for (const health::QueueRates& q : final_snap.queues) {
      if (q.ops > 0) {
        health_digest.queues.push_back(q);
      }
    }
    health_digest.findings = final_snap.findings;
    result.health = std::move(health_digest);
  }
  if (opts.telemetry) {
    const telemetry::RegistrySnapshot delta =
        telemetry::snapshot_delta(before, telemetry::snapshot_registry());
    for (const telemetry::QueueCounters& q : delta.queues) {
      if (q.counters.any()) {
        result.telemetry.push_back(q);
      }
    }
  }
  return result;
}

void print_scenario(const ScenarioSpec& spec, const ScenarioResult& result,
                    const CliOptions& opts) {
  if (opts.csv && spec.print_csv) {
    spec.print_csv(result, opts);
  } else if (!opts.csv && spec.print_table) {
    spec.print_table(result, opts);
  } else {
    print_absolute(result, opts, result.title);
  }
}

std::vector<ScenarioRow> thread_rows(const CliOptions& opts) {
  std::vector<ScenarioRow> rows;
  rows.reserve(opts.thread_counts.size());
  for (unsigned threads : opts.thread_counts) {
    WorkloadParams p = opts.workload;
    p.threads = threads;
    rows.push_back({std::to_string(threads), p});
  }
  return rows;
}

std::function<std::vector<QueueSpec>()> registry_series(std::vector<std::string> names) {
  return [names = std::move(names)]() {
    std::vector<QueueSpec> specs;
    specs.reserve(names.size());
    for (const std::string& name : names) {
      specs.push_back(find_queue(name));
    }
    return specs;
  };
}

namespace {

void print_header(const ScenarioResult& result, const std::string& axis, bool csv) {
  std::printf(csv ? "%s" : "%-8s", axis.c_str());
  for (const ScenarioSeries& s : result.series) {
    if (csv) {
      std::printf(",%s", s.name.c_str());
    } else {
      std::printf("  %-18s", s.name.c_str());
    }
  }
  std::printf("\n");
}

}  // namespace

void print_absolute(const ScenarioResult& result, const CliOptions& opts,
                    const std::string& title) {
  if (!opts.csv) {
    std::printf("== %s ==\n", title.c_str());
    std::printf("(seconds per run: mean per-thread completion time; mean of %u runs)\n",
                opts.workload.runs);
  }
  print_header(result, result.axis, opts.csv);
  for (std::size_t row = 0; row < result.rows.size(); ++row) {
    std::printf(opts.csv ? "%s" : "%-8s", result.rows[row].label.c_str());
    for (const ScenarioSeries& s : result.series) {
      if (opts.csv) {
        std::printf(",%.6f", s.cells[row].time.mean);
      } else {
        std::printf("  %10.4f s       ", s.cells[row].time.mean);
      }
    }
    std::printf("\n");
  }
}

void print_normalized(const ScenarioResult& result, const CliOptions& opts,
                      const std::string& title, const std::string& baseline_name) {
  const ScenarioSeries* baseline = result.series_named(baseline_name);
  EVQ_CHECK(baseline != nullptr, "normalization baseline missing from figure");
  if (!opts.csv) {
    std::printf("== %s ==\n", title.c_str());
    std::printf("(running time normalized to %s, as in the paper's Fig. 6c/6d)\n",
                baseline_name.c_str());
  }
  print_header(result, result.axis, opts.csv);
  for (std::size_t row = 0; row < result.rows.size(); ++row) {
    std::printf(opts.csv ? "%s" : "%-8s", result.rows[row].label.c_str());
    const double base = baseline->cells[row].time.mean;
    for (const ScenarioSeries& s : result.series) {
      const double norm = base > 0.0 ? s.cells[row].time.mean / base : 0.0;
      if (opts.csv) {
        std::printf(",%.4f", norm);
      } else {
        std::printf("  %10.3fx        ", norm);
      }
    }
    std::printf("\n");
  }
}

void print_speedup(const ScenarioResult& result, const std::string& heading,
                   const std::vector<SpeedupColumn>& columns, const std::string& footnote) {
  std::vector<std::pair<const ScenarioSeries*, const ScenarioSeries*>> pairs;
  for (const SpeedupColumn& c : columns) {
    pairs.emplace_back(result.series_named(c.bare), result.series_named(c.composed));
    if (pairs.back().first == nullptr || pairs.back().second == nullptr) {
      return;
    }
  }
  std::printf("\n%s:\n%8s", heading.c_str(), "threads");
  for (const SpeedupColumn& c : columns) {
    std::printf(" %14s", c.label.c_str());
  }
  std::printf("\n");
  for (std::size_t row = 0; row < result.rows.size(); ++row) {
    std::printf("%8s", result.rows[row].label.c_str());
    for (const auto& [bare, composed] : pairs) {
      std::printf(" %13.2fx", bare->cells[row].time.mean / composed->cells[row].time.mean);
    }
    std::printf("\n");
  }
  std::printf("(%s)\n", footnote.c_str());
}

const ScenarioSpec& find_scenario(const std::string& name) {
  for (const ScenarioSpec& spec : all_scenarios()) {
    if (spec.name == name) {
      return spec;
    }
  }
  std::fprintf(stderr, "unknown scenario '%s'; known scenarios:\n", name.c_str());
  for (const ScenarioSpec& spec : all_scenarios()) {
    std::fprintf(stderr, "  %-20s %s\n", spec.name.c_str(), spec.summary.c_str());
  }
  std::exit(2);
}

}  // namespace evq::harness
