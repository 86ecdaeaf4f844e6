// Tests for the scenario layer of evq-bench: registry completeness, the
// default sweep runner, CLI override semantics, latency sampling and
// adaptive repetition plumbed through run_workload_ex, and the versioned
// JSON document — including a golden-file test that pins schema_version 2
// byte-for-byte (changing ANY key or shape requires bumping
// kBenchJsonSchemaVersion and regenerating tests/golden/bench_schema_v2.json).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "evq/harness/bench_json.hpp"
#include "evq/harness/scenario.hpp"
#include "evq/perf/backend.hpp"
#include "evq/perf/perf.hpp"

namespace {

using namespace evq::harness;

TEST(ScenarioRegistry, EveryRetiredBinaryHasAScenario) {
  // The 13 harness-based bench mains this driver replaced, plus the
  // observability scenarios (the E6/E7/E11/E12 layer-overhead A/B, the E7
  // pairwise trace workload, the E10 combining-overhead A/B), the E8
  // cross-generation SCQ head-to-head, the E9 segmented-queue burst
  // comparison, and the E10 combining ladder. A scenario disappearing from
  // the registry silently drops an experiment.
  const std::set<std::string> expected = {
      "fig6a",         "fig6b",       "fig6c",     "fig6d",             "overhead",
      "op-profile",    "ablation-llsc", "ablation-hp", "ablation-capacity", "ext-mixed",
      "ext-reclaim",   "sharded",     "scq",       "backoff",   "layer-overhead",
      "pairwise",      "burst",       "combining", "combining-overhead"};
  std::set<std::string> got;
  for (const ScenarioSpec& spec : all_scenarios()) {
    EXPECT_TRUE(got.insert(spec.name).second) << "duplicate scenario " << spec.name;
  }
  EXPECT_EQ(got, expected);
}

TEST(ScenarioRegistry, LayerOverheadCoversEveryLayerGateSeries) {
  // One scenario serves the telemetry, trace, health and perf A/B gates, so
  // its series must stay the union of what each gate prices: dropping one
  // would silently narrow a gate.
  std::vector<std::string> names;
  for (const QueueSpec& q : find_scenario("layer-overhead").series()) {
    names.push_back(q.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"fifo-llsc", "fifo-simcas", "scq", "ms-hp",
                                             "comb-cas"}));
}

TEST(ScenarioRegistry, SpecsAreWellFormed) {
  for (const ScenarioSpec& spec : all_scenarios()) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_FALSE(spec.title.empty()) << spec.name;
    EXPECT_FALSE(spec.summary.empty()) << spec.name;
    EXPECT_FALSE(spec.default_threads.empty()) << spec.name;
    if (!spec.run) {
      EXPECT_TRUE(static_cast<bool>(spec.rows)) << spec.name;
      EXPECT_TRUE(static_cast<bool>(spec.series)) << spec.name;
    }
    EXPECT_NO_FATAL_FAILURE(find_scenario(spec.name));
  }
}

TEST(ScenarioOptions, DefaultsComeFromSpecAndOverridesWin) {
  const ScenarioSpec& fig6a = find_scenario("fig6a");
  CliOverrides none;
  const CliOptions defaults = scenario_options(fig6a, none);
  EXPECT_EQ(defaults.thread_counts, fig6a.default_threads);
  EXPECT_EQ(defaults.workload.iterations, fig6a.default_iters);
  EXPECT_EQ(defaults.workload.runs, fig6a.default_runs);

  CliOverrides ov;
  ov.thread_counts = std::vector<unsigned>{1, 2};
  ov.iterations = 123;
  ov.latency_sample_every = 7;
  ov.stable_cv = 0.10;
  ov.max_runs = 9;
  const CliOptions tuned = scenario_options(fig6a, ov);
  EXPECT_EQ(tuned.thread_counts, (std::vector<unsigned>{1, 2}));
  EXPECT_EQ(tuned.workload.iterations, 123u);
  EXPECT_EQ(tuned.workload.runs, fig6a.default_runs) << "unset override must not apply";
  EXPECT_EQ(tuned.workload.latency_sample_every, 7u);
  EXPECT_DOUBLE_EQ(tuned.workload.stable_cv, 0.10);
  EXPECT_EQ(tuned.workload.max_runs, 9u);
}

CliOptions tiny_options(const ScenarioSpec& spec) {
  CliOverrides ov;
  ov.thread_counts = std::vector<unsigned>{1, 2};
  ov.iterations = 50;
  ov.runs = 2;
  return scenario_options(spec, ov);
}

TEST(ScenarioRun, Fig6aShapeAndMeasurements) {
  const ScenarioSpec& spec = find_scenario("fig6a");
  const CliOptions opts = tiny_options(spec);
  const ScenarioResult result = run_scenario(spec, opts);

  EXPECT_EQ(result.name, "fig6a");
  EXPECT_EQ(result.axis, "threads");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].label, "1");
  EXPECT_EQ(result.rows[1].label, "2");
  EXPECT_EQ(result.rows[1].params.threads, 2u);
  ASSERT_EQ(result.series.size(), 5u);
  EXPECT_NE(result.series_named("fifo-llsc"), nullptr);
  EXPECT_NE(result.series_named("fifo-simcas"), nullptr);
  EXPECT_EQ(result.series_named("no-such-algo"), nullptr);
  for (const ScenarioSeries& s : result.series) {
    ASSERT_EQ(s.cells.size(), 2u) << s.name;
    for (const CellStats& cell : s.cells) {
      EXPECT_GT(cell.time.mean, 0.0) << s.name;
      EXPECT_EQ(cell.time.n, 2u) << s.name;
      EXPECT_GT(cell.throughput, 0.0) << s.name;
      // 2 runs x threads x iterations x burst x 2 (each push has its pop).
      EXPECT_GT(cell.total_ops, 0u) << s.name;
      EXPECT_EQ(cell.latency.count(), 0u) << "latency sampling must default off";
      EXPECT_FALSE(cell.has_ops);
    }
  }
}

TEST(ScenarioRun, LatencySamplingFillsHistograms) {
  const ScenarioSpec& spec = find_scenario("fig6a");
  CliOverrides ov;
  ov.thread_counts = std::vector<unsigned>{2};
  ov.iterations = 100;
  ov.runs = 1;
  ov.latency_sample_every = 4;
  ov.op_stats = true;
  const CliOptions opts = scenario_options(spec, ov);
  const ScenarioResult result = run_scenario(spec, opts);
  for (const ScenarioSeries& s : result.series) {
    const CellStats& cell = s.cells[0];
    // 2 threads x 100 iters x 10 ops / sample period 4 = 500 samples/run.
    EXPECT_GT(cell.latency.count(), 0u) << s.name;
    EXPECT_GT(cell.latency.p99(), 0u) << s.name;
    EXPECT_GE(cell.latency.max(), cell.latency.p50()) << s.name;
    EXPECT_TRUE(cell.has_ops) << s.name;
  }
  const ScenarioSeries* simcas = result.series_named("fifo-simcas");
  ASSERT_NE(simcas, nullptr);
  EXPECT_GT(simcas->cells[0].ops.cas_attempts, 0u)
      << "simulated-CAS queue must report CAS attempts under --op-stats";
}

TEST(ScenarioRun, TelemetryDeltaCapturesQueueCounters) {
  const ScenarioSpec& spec = find_scenario("layer-overhead");
  CliOverrides ov;
  ov.thread_counts = std::vector<unsigned>{1};
  ov.iterations = 50;
  ov.runs = 1;
  ov.telemetry = true;
  const CliOptions opts = scenario_options(spec, ov);
  ASSERT_TRUE(opts.telemetry);
  const ScenarioResult result = run_scenario(spec, opts);
#if EVQ_TELEMETRY
  ASSERT_FALSE(result.telemetry.empty());
  const evq::telemetry::QueueCounters* llsc = nullptr;
  for (const evq::telemetry::QueueCounters& q : result.telemetry) {
    if (q.queue == "fifo-llsc") {
      llsc = &q;
    }
  }
  ASSERT_NE(llsc, nullptr) << "fifo-llsc missing from the scenario's telemetry delta";
  // 1 run x 1 thread x 50 iterations x burst 5: every push eventually
  // succeeds, so the delta is exact despite the shared global registry.
  EXPECT_EQ(llsc->counters[evq::telemetry::Counter::kPushOk], 250u);
  EXPECT_EQ(llsc->counters[evq::telemetry::Counter::kPopOk], 250u);
#else
  EXPECT_TRUE(result.telemetry.empty()) << "EVQ_TELEMETRY=0 must yield no counter deltas";
#endif
}

TEST(ScenarioRun, PerfNullBackendDegradesToExplicitRecord) {
  // The E12 degradation contract end to end: with the null backend forced
  // (as auto-selected on perf-denied hosts), a --perf run still completes,
  // cells carry no perf section, and the scenario-level record names the
  // backend and the reason instead of going silent.
  evq::perf::NullBackend null_backend("forced by test");
  evq::perf::set_default_backend_for_testing(&null_backend);
  const ScenarioSpec& spec = find_scenario("layer-overhead");
  CliOverrides ov;
  ov.thread_counts = std::vector<unsigned>{1};
  ov.iterations = 20;
  ov.runs = 1;
  ov.perf = true;
  const CliOptions opts = scenario_options(spec, ov);
  ASSERT_TRUE(opts.perf);
  ASSERT_TRUE(opts.workload.record_perf);
  const ScenarioResult result = run_scenario(spec, opts);
  evq::perf::set_default_backend_for_testing(nullptr);

  EXPECT_TRUE(result.perf.enabled);
  EXPECT_EQ(result.perf.backend, "null");
  EXPECT_FALSE(result.perf.available);
  EXPECT_EQ(result.perf.reason, "forced by test");
  for (const ScenarioSeries& s : result.series) {
    for (const CellStats& cell : s.cells) {
      EXPECT_FALSE(cell.has_perf) << s.name;
      EXPECT_GT(cell.total_ops, 0u) << s.name << ": the workload itself must be unaffected";
    }
  }
  const std::string doc = bench_results_to_json(BenchHostInfo{}, {result}, {opts});
  EXPECT_NE(doc.find("\"perf\":{\"backend\":\"null\",\"available\":false,"
                     "\"reason\":\"forced by test\"}"),
            std::string::npos);
  EXPECT_EQ(doc.find("cycles_per_op"), std::string::npos);
}

TEST(ScenarioRun, PerfMockBackendFillsCells) {
#if !EVQ_PERF
  GTEST_SKIP() << "EVQ_PERF=0: scopes are compiled out";
#else
  // With a live (mock) backend the same run attributes counters to every
  // cell. The mock clock never advances, so the values are zero — what this
  // pins is the plumbing: worker scopes open, harvest and mark events
  // available all the way into the JSON cell.
  evq::perf::MockBackend mock;
  evq::perf::set_default_backend_for_testing(&mock);
  const ScenarioSpec& spec = find_scenario("layer-overhead");
  CliOverrides ov;
  ov.thread_counts = std::vector<unsigned>{1};
  ov.iterations = 20;
  ov.runs = 1;
  ov.perf = true;
  const ScenarioResult result = run_scenario(spec, scenario_options(spec, ov));
  evq::perf::set_default_backend_for_testing(nullptr);

  EXPECT_TRUE(result.perf.enabled);
  EXPECT_EQ(result.perf.backend, "mock");
  EXPECT_TRUE(result.perf.available);
  for (const ScenarioSeries& s : result.series) {
    for (const CellStats& cell : s.cells) {
      EXPECT_TRUE(cell.has_perf) << s.name;
      EXPECT_EQ(cell.perf.ops, cell.total_ops) << s.name;
      EXPECT_TRUE(cell.perf.has(evq::perf::Event::kCycles)) << s.name;
    }
  }
#endif
}

TEST(ScenarioRun, AdaptiveRepetitionRespectsBounds) {
  // An impossible CV target with a low cap: every cell runs exactly max_runs.
  const ScenarioSpec& spec = find_scenario("overhead");
  CliOverrides ov;
  ov.iterations = 30;
  ov.runs = 2;
  ov.stable_cv = 1e-9;
  ov.max_runs = 3;
  const CliOptions opts = scenario_options(spec, ov);
  const ScenarioResult result = run_scenario(spec, opts);
  for (const ScenarioSeries& s : result.series) {
    EXPECT_EQ(s.cells[0].time.n, 3u) << s.name;
  }
}

// ---------------------------------------------------------------------------
// JSON document
// ---------------------------------------------------------------------------

/// A fully deterministic synthetic result exercising every schema branch
/// (latency present/absent, op counters present/absent, multiple series).
ScenarioResult synthetic_result() {
  ScenarioResult r;
  r.name = "synthetic";
  r.title = "Synthetic scenario for the schema golden file";
  r.axis = "threads";
  WorkloadParams p1;
  p1.threads = 1;
  p1.iterations = 100;
  p1.runs = 2;
  r.rows.push_back({"1", p1});
  WorkloadParams p2 = p1;
  p2.threads = 2;
  p2.latency_sample_every = 4;
  p2.stable_cv = 0.05;
  p2.max_runs = 8;
  p2.record_op_stats = true;
  r.rows.push_back({"2", p2});

  ScenarioSeries plain{"algo-a", "Algorithm A", {}};
  CellStats c1;
  c1.time = summarize({0.5, 1.5});
  c1.throughput = 2000.0;
  c1.total_ops = 4000;
  plain.cells.push_back(c1);
  CellStats c2;
  c2.time = summarize({0.25, 0.75});
  c2.throughput = 8000.0;
  c2.total_ops = 4000;
  c2.latency.record_n(100, 98);
  c2.latency.record_n(1000, 2);
  c2.has_ops = true;
  c2.ops.cas_attempts = 10;
  c2.ops.cas_success = 8;
  c2.ops.faa = 4;
  // Hardware-counter cell: every per-op key except branch misses (left
  // unavailable to pin the only-available-events rule) plus a multiplexed
  // scale factor.
  c2.has_perf = true;
  c2.perf.ops = 4000;
  c2.perf.scopes = 2;
  using evq::perf::Event;
  auto set_event = [&](Event e, std::uint64_t total) {
    c2.perf.value[static_cast<std::size_t>(e)] = total;
    c2.perf.available[static_cast<std::size_t>(e)] = true;
  };
  set_event(Event::kCycles, 12000000);
  set_event(Event::kInstructions, 8000000);
  set_event(Event::kL1dMisses, 40000);
  set_event(Event::kLlcMisses, 8000);
  set_event(Event::kContextSwitches, 4);
  c2.perf.worst_mux_scale = 0.8;
  plain.cells.push_back(c2);
  r.series.push_back(plain);

  r.perf.enabled = true;
  r.perf.backend = "mock";
  r.perf.available = true;
  r.perf.reason = "";

  evq::telemetry::QueueCounters tq;
  tq.queue = "algo-a";
  tq.counters[evq::telemetry::Counter::kPushOk] = 4000;
  tq.counters[evq::telemetry::Counter::kPopOk] = 4000;
  tq.counters[evq::telemetry::Counter::kSlotScFail] = 12;
  tq.has_depth = true;
  tq.depth = 3;
  r.telemetry.push_back(tq);
  return r;
}

TEST(BenchJson, GoldenFilePinsSchemaV2) {
  BenchHostInfo host;
  host.hardware_concurrency = 8;
  host.compiler = "test-compiler 1.0";
  host.build = "Test";
  host.timestamp = "";  // omitted: keeps the document deterministic

  const ScenarioResult result = synthetic_result();
  CliOptions opts;
  const std::string doc = bench_results_to_json(host, {result}, {opts});

  const std::string golden_path = std::string(EVQ_TEST_GOLDEN_DIR) + "/bench_schema_v2.json";
  if (std::getenv("EVQ_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << golden_path;
    out << doc << "\n";
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream golden(golden_path);
  ASSERT_TRUE(golden.good()) << "missing golden file; see this test's header comment";
  std::stringstream want;
  want << golden.rdbuf();
  // The golden file ends with a trailing newline (politeness to editors);
  // the serializer's string does not.
  std::string expected = want.str();
  if (!expected.empty() && expected.back() == '\n') {
    expected.pop_back();
  }
  EXPECT_EQ(doc, expected)
      << "JSON schema drifted. If intentional: bump kBenchJsonSchemaVersion, "
         "regenerate tests/golden/bench_schema_v2.json, and update "
         "scripts/bench_diff.py.";
  EXPECT_EQ(kBenchJsonSchemaVersion, 2);
}

TEST(BenchJson, GoldenPinsPerfSections) {
  // Belt and braces on top of the byte-for-byte golden: the perf keys the
  // python consumers join on must exist under their exact names, and the
  // deliberately-unavailable event (branch misses) must NOT appear.
  BenchHostInfo host;
  const std::string doc = bench_results_to_json(host, {synthetic_result()}, {CliOptions{}});
  EXPECT_NE(doc.find("\"perf\":{\"ops\":4000"), std::string::npos);
  EXPECT_NE(doc.find("\"cycles_per_op\":3000"), std::string::npos);
  EXPECT_NE(doc.find("\"ipc\":"), std::string::npos);
  EXPECT_NE(doc.find("\"llc_miss_per_op\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"mux_scale\":0.8"), std::string::npos);
  EXPECT_EQ(doc.find("branch_miss_per_op"), std::string::npos);
  EXPECT_NE(doc.find("\"perf\":{\"backend\":\"mock\",\"available\":true,\"reason\":\"\"}"),
            std::string::npos);
}

TEST(BenchJson, TimestampAppearsWhenSet) {
  BenchHostInfo host = current_host_info();
  EXPECT_GT(host.hardware_concurrency, 0u);
  EXPECT_FALSE(host.timestamp.empty());
  const std::string doc = bench_results_to_json(host, {}, {});
  EXPECT_NE(doc.find("\"timestamp\":"), std::string::npos);
  EXPECT_NE(doc.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"scenarios\":[]"), std::string::npos);
}

TEST(BenchJson, EscapesControlAndQuoteCharacters) {
  BenchHostInfo host;
  host.compiler = "a\"b\\c\nd";
  host.build = "x";
  const std::string doc = bench_results_to_json(host, {}, {});
  EXPECT_NE(doc.find("a\\\"b\\\\c\\nd"), std::string::npos);
}

}  // namespace
