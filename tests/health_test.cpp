// Unit tests for evq::health (DESIGN.md §15): the Diagnoser's rule engine
// and hysteresis over synthetic inputs, the deterministic sink formats, and
// the Monitor's rate derivation over a private registry with hand-rolled
// counter deltas. The injection-driven end-to-end repros for each finding
// type live in tests/health_injection_test.cpp (torture binary).
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "evq/core/cas_array_queue.hpp"
#include "evq/health/health.hpp"
#include "evq/health/monitor.hpp"
#include "evq/telemetry/metrics.hpp"
#include "evq/telemetry/registry.hpp"
#include "evq/trace/trace.hpp"

namespace {

using namespace evq;
using health::Diagnoser;
using health::Finding;
using health::FindingType;
using health::HealthSnapshot;
using health::QueueRates;
using health::ThreadProgress;
using health::Thresholds;

QueueRates burn_rates(double skip_per_op, std::uint64_t ops = 100) {
  QueueRates q;
  q.queue = "q";
  q.ops = ops;
  q.slot_skip_per_op = skip_per_op;
  return q;
}

const Finding* find_finding(const std::vector<Finding>& findings, FindingType type) {
  for (const Finding& f : findings) {
    if (f.type == type) {
      return &f;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Diagnoser: rules + hysteresis
// ---------------------------------------------------------------------------

TEST(Diagnoser, TripsOnlyAfterConsecutiveBreaches) {
  Diagnoser d;  // default thresholds: trip_polls = 2
  auto f1 = d.evaluate(1, {burn_rates(0.5)}, {});
  EXPECT_EQ(find_finding(f1, FindingType::kThresholdBurn), nullptr)
      << "one breaching poll must not trip";
  auto f2 = d.evaluate(2, {burn_rates(0.5)}, {});
  const Finding* f = find_finding(f2, FindingType::kThresholdBurn);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->subject, "q");
  EXPECT_EQ(f->since_poll, 2u);
  EXPECT_DOUBLE_EQ(f->severity, 0.5);
}

TEST(Diagnoser, TransientSpikesNeverFlap) {
  Diagnoser d;
  for (std::uint64_t poll = 1; poll <= 8; ++poll) {
    // Alternate breach / clean: the streak never reaches trip_polls.
    const double skip = (poll % 2 == 1) ? 0.9 : 0.0;
    auto findings = d.evaluate(poll, {burn_rates(skip)}, {});
    EXPECT_TRUE(findings.empty()) << "poll " << poll;
  }
}

TEST(Diagnoser, ClearsOnlyAfterClearPolls) {
  Diagnoser d;  // clear_polls = 2
  d.evaluate(1, {burn_rates(0.5)}, {});
  d.evaluate(2, {burn_rates(0.5)}, {});  // active
  auto f3 = d.evaluate(3, {burn_rates(0.0)}, {});
  EXPECT_NE(find_finding(f3, FindingType::kThresholdBurn), nullptr)
      << "one clean poll must not clear";
  auto f4 = d.evaluate(4, {burn_rates(0.0)}, {});
  EXPECT_EQ(find_finding(f4, FindingType::kThresholdBurn), nullptr)
      << "clear_polls clean polls must clear";
  // A breach mid-clearing resets the clear streak.
  d.evaluate(5, {burn_rates(0.5)}, {});
  auto f6 = d.evaluate(6, {burn_rates(0.5)}, {});
  EXPECT_NE(find_finding(f6, FindingType::kThresholdBurn), nullptr);
}

TEST(Diagnoser, QuietRatesBelowMinOpsAreIgnored) {
  Diagnoser d;  // min_ops = 64
  for (std::uint64_t poll = 1; poll <= 4; ++poll) {
    auto findings = d.evaluate(poll, {burn_rates(0.9, /*ops=*/10)}, {});
    EXPECT_TRUE(findings.empty()) << "rates over a handful of ops are noise";
  }
}

TEST(Diagnoser, CombinerCollapseAcceptsSubmitVolumeGate) {
  // The combining facade's registry entry has ops == 0 (its op flow lands on
  // the "/ring" sibling); submit volume alone must open the gate.
  Diagnoser d;
  QueueRates q;
  q.queue = "comb";
  q.ops = 0;
  q.comb_submits = 500;
  q.comb_engagement = 0.95;
  q.comb_combines = 0;
  d.evaluate(1, {q}, {});
  auto findings = d.evaluate(2, {q}, {});
  const Finding* f = find_finding(findings, FindingType::kCombinerCollapse);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->subject, "comb");

  // A healthy combiner (passes complete, batches form) never collapses.
  Diagnoser healthy;
  q.comb_combines = 100;
  q.comb_mean_batch = 3.0;
  healthy.evaluate(1, {q}, {});
  auto none = healthy.evaluate(2, {q}, {});
  EXPECT_EQ(find_finding(none, FindingType::kCombinerCollapse), nullptr);
}

TEST(Diagnoser, SegmentLeakHasNoOpsGate) {
  Diagnoser d;  // seg_in_flight limit = 4
  QueueRates q;
  q.queue = "seg";
  q.ops = 0;  // a wedged consumer means NO ops — the leak must still trip
  q.seg_in_flight = 9;
  d.evaluate(1, {q}, {});
  auto findings = d.evaluate(2, {q}, {});
  const Finding* f = find_finding(findings, FindingType::kSegmentLeak);
  ASSERT_NE(f, nullptr);
  EXPECT_DOUBLE_EQ(f->severity, 9.0);
}

TEST(Diagnoser, ThreadStallSubjectsAreOrdinalScoped) {
  Diagnoser d;
  ThreadProgress stalled;
  stalled.thread_ord = 7;
  stalled.live = true;
  stalled.op_seq = 42;
  stalled.stalled_now = true;
  stalled.last_op = "push_ok";
  stalled.last_queue = "q";
  ThreadProgress fine;
  fine.thread_ord = 8;
  fine.live = true;
  d.evaluate(1, {}, {stalled, fine});
  auto findings = d.evaluate(2, {}, {stalled, fine});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].type, FindingType::kThreadStalled);
  EXPECT_EQ(findings[0].subject, "thread 7");
  EXPECT_NE(findings[0].detail.find("op_seq frozen at 42"), std::string::npos);
  EXPECT_NE(findings[0].detail.find("push_ok"), std::string::npos);
}

QueueRates thrash_rates(double llc_per_op, std::uint64_t perf_ops = 1000,
                        bool perf_live = true) {
  QueueRates q;
  q.queue = "hot";
  q.ops = perf_ops;
  q.perf_live = perf_live;
  q.perf_ops = perf_ops;
  q.llc_miss_per_op = llc_per_op;
  q.cycles_per_op = 500.0;
  q.ipc = 0.8;
  return q;
}

TEST(Diagnoser, CacheThrashTripsOnSustainedLlcMisses) {
  Diagnoser d;  // llc_miss_per_op threshold = 2.0, trip_polls = 2
  auto f1 = d.evaluate(1, {thrash_rates(5.0)}, {});
  EXPECT_EQ(find_finding(f1, FindingType::kCacheThrash), nullptr);
  auto f2 = d.evaluate(2, {thrash_rates(5.0)}, {});
  const Finding* f = find_finding(f2, FindingType::kCacheThrash);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->subject, "hot");
  EXPECT_DOUBLE_EQ(f->severity, 5.0);
  EXPECT_NE(f->detail.find("llc_miss/op 5"), std::string::npos);
  EXPECT_NE(f->detail.find("cycles/op 500"), std::string::npos);

  // clear_polls = 2 resident intervals clear it.
  d.evaluate(3, {thrash_rates(0.1)}, {});
  auto f4 = d.evaluate(4, {thrash_rates(0.1)}, {});
  EXPECT_EQ(find_finding(f4, FindingType::kCacheThrash), nullptr);
}

TEST(Diagnoser, CacheThrashRequiresLivePerfAndVolume) {
  // Without live perf rates (the degraded-host case) the detector must stay
  // silent no matter what the stale -1/default fields say...
  Diagnoser no_perf;
  for (std::uint64_t poll = 1; poll <= 4; ++poll) {
    auto findings = no_perf.evaluate(poll, {thrash_rates(9.0, 1000, /*perf_live=*/false)}, {});
    EXPECT_EQ(find_finding(findings, FindingType::kCacheThrash), nullptr) << poll;
  }
  // ...and a handful of attributed ops is noise, not thrash (min_ops = 64).
  Diagnoser low_volume;
  for (std::uint64_t poll = 1; poll <= 4; ++poll) {
    auto findings = low_volume.evaluate(poll, {thrash_rates(9.0, /*perf_ops=*/10)}, {});
    EXPECT_EQ(find_finding(findings, FindingType::kCacheThrash), nullptr) << poll;
  }
  // A resident queue under volume never trips.
  Diagnoser resident;
  for (std::uint64_t poll = 1; poll <= 4; ++poll) {
    auto findings = resident.evaluate(poll, {thrash_rates(0.5)}, {});
    EXPECT_EQ(find_finding(findings, FindingType::kCacheThrash), nullptr) << poll;
  }
}

TEST(Diagnoser, FindingTypeNamesAreStable) {
  EXPECT_STREQ(health::finding_type_name(FindingType::kThresholdBurn), "threshold_burn");
  EXPECT_STREQ(health::finding_type_name(FindingType::kCombinerCollapse),
               "combiner_collapse");
  EXPECT_STREQ(health::finding_type_name(FindingType::kSegmentLeak), "segment_leak");
  EXPECT_STREQ(health::finding_type_name(FindingType::kThreadStalled), "thread_stalled");
  EXPECT_STREQ(health::finding_type_name(FindingType::kCacheThrash), "cache_thrash");
}

// ---------------------------------------------------------------------------
// Sinks: deterministic formats
// ---------------------------------------------------------------------------

HealthSnapshot sink_snapshot() {
  HealthSnapshot snap;
  snap.poll = 4;
  QueueRates q;
  q.queue = "burn\"q";  // exercises label escaping end to end
  q.queue_id = 7;
  q.ops = 10;
  q.cas_fail_ratio = 0.5;
  q.slot_skip_per_op = 0.25;
  q.faa_waste = 0.1;
  q.comb_engagement = 0.75;
  q.comb_mean_batch = 1.5;
  q.seg_in_flight = 2;
  q.has_depth = true;
  q.depth = 3;
  q.push_p50_ns = 100.5;
  q.push_p99_ns = 200.0;
  snap.queues.push_back(q);
  ThreadProgress t;
  t.thread_ord = 3;
  t.live = true;
  t.op_seq = 42;
  t.last_op = "push";
  t.last_queue = "burn\"q";
  t.last_index = 5;
  t.last_retries = 1;
  snap.threads.push_back(t);
  Finding f;
  f.type = FindingType::kThresholdBurn;
  f.subject = "burn\"q";
  f.severity = 5.0;
  f.detail = "d";
  f.since_poll = 2;
  snap.findings.push_back(f);
  return snap;
}

TEST(HealthSinks, PrometheusRenderingIsPinned) {
  std::ostringstream os;
  health::render_prometheus_health(os, sink_snapshot());
  const std::string expected =
      "# HELP evq_health_rate Derived per-queue health rates over the last poll interval.\n"
      "# TYPE evq_health_rate gauge\n"
      "evq_health_rate{queue=\"burn\\\"q\",rate=\"ops\"} 10\n"
      "evq_health_rate{queue=\"burn\\\"q\",rate=\"cas_fail_ratio\"} 0.5\n"
      "evq_health_rate{queue=\"burn\\\"q\",rate=\"slot_skip_per_op\"} 0.25\n"
      "evq_health_rate{queue=\"burn\\\"q\",rate=\"faa_waste\"} 0.1\n"
      "evq_health_rate{queue=\"burn\\\"q\",rate=\"comb_engagement\"} 0.75\n"
      "evq_health_rate{queue=\"burn\\\"q\",rate=\"comb_mean_batch\"} 1.5\n"
      "evq_health_rate{queue=\"burn\\\"q\",rate=\"seg_in_flight\"} 2\n"
      "evq_health_rate{queue=\"burn\\\"q\",rate=\"depth\"} 3\n"
      "# HELP evq_health_latency_ns Sampled operation latency quantiles (SLO reservoir).\n"
      "# TYPE evq_health_latency_ns gauge\n"
      "evq_health_latency_ns{queue=\"burn\\\"q\",op=\"push\",quantile=\"p50\"} 100.5\n"
      "evq_health_latency_ns{queue=\"burn\\\"q\",op=\"push\",quantile=\"p99\"} 200\n"
      "# HELP evq_health_finding_active Health findings currently firing (after hysteresis).\n"
      "# TYPE evq_health_finding_active gauge\n"
      "evq_health_finding_active{type=\"threshold_burn\",subject=\"burn\\\"q\"} 1\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(HealthSinks, HealthJsonIsPinnedAndVersioned) {
  std::ostringstream os;
  health::health_json(os, sink_snapshot());
  const std::string expected =
      "{\"health_schema_version\":1,\"poll\":4,\"queues\":["
      "{\"queue\":\"burn\\\"q\",\"id\":7,\"ops\":10,\"rates\":{"
      "\"cas_fail_ratio\":0.5,\"slot_skip_per_op\":0.25,\"faa_waste\":0.1,"
      "\"comb_engagement\":0.75,\"comb_mean_batch\":1.5,\"seg_in_flight\":2},"
      "\"depth\":3,\"latency_ns\":{\"push_p50\":100.5,\"push_p99\":200}}],"
      "\"threads\":[{\"ord\":3,\"live\":true,\"op_seq\":42,\"stalled_now\":false,"
      "\"stalled_polls\":0,\"last_op\":\"push\",\"last_queue\":\"burn\\\"q\","
      "\"last_index\":5,\"last_retries\":1}],"
      "\"findings\":[{\"type\":\"threshold_burn\",\"subject\":\"burn\\\"q\","
      "\"severity\":5,\"since_poll\":2,\"detail\":\"d\"}]}\n";
  EXPECT_EQ(os.str(), expected);
}

// ---------------------------------------------------------------------------
// Monitor: rate derivation over a private registry
// ---------------------------------------------------------------------------

TEST(Monitor, DerivesRatesFromCounterDeltas) {
  telemetry::Registry reg;
  telemetry::ScopedQueueMetrics qm("unit-q", &reg);

  health::MonitorOptions o;
  o.registry = &reg;
  o.latency_sample_every = 0;
  health::Monitor m(o);
  m.poll();  // baseline

  auto bump = [&] {
    qm.inc(telemetry::Counter::kPushOk, 60);
    qm.inc(telemetry::Counter::kPopOk, 40);
    qm.inc(telemetry::Counter::kSlotSkip, 30);
    qm.inc(telemetry::Counter::kSlotScFail, 25);
    qm.inc(telemetry::Counter::kFaaReserve, 250);
    qm.inc(telemetry::Counter::kCombSubmit, 80);
    qm.inc(telemetry::Counter::kCombCombine, 4);
    qm.inc(telemetry::Counter::kCombBatchN, 10);
    qm.inc(telemetry::Counter::kSegAlloc, 3);
    qm.inc(telemetry::Counter::kSegRetire, 1);
  };
  bump();
  HealthSnapshot snap = m.poll();
  ASSERT_EQ(snap.queues.size(), 1u);
  const QueueRates& r = snap.queues[0];
  EXPECT_EQ(r.queue, "unit-q");
  EXPECT_EQ(r.ops, 100u);
  EXPECT_DOUBLE_EQ(r.slot_skip_per_op, 0.3);
  EXPECT_DOUBLE_EQ(r.cas_fail_ratio, 0.2);  // 25 / (25 + 60 + 40)
  EXPECT_DOUBLE_EQ(r.faa_waste, 0.2);       // (250 − 2·100) / 250
  EXPECT_DOUBLE_EQ(r.comb_engagement, 0.8);
  EXPECT_DOUBLE_EQ(r.comb_mean_batch, 2.5);
  EXPECT_EQ(r.seg_in_flight, 2);

  // Burn trips on the second consecutive breaching interval.
  bump();
  snap = m.poll();
  EXPECT_NE(find_finding(snap.findings, FindingType::kThresholdBurn), nullptr);
  EXPECT_EQ(find_finding(snap.findings, FindingType::kCombinerCollapse), nullptr)
      << "healthy batches (mean 2.5) must not read as collapse";

  // An idle interval: rates are deltas (zero), but seg_in_flight stays
  // cumulative.
  snap = m.poll();
  ASSERT_EQ(snap.queues.size(), 1u);
  EXPECT_EQ(snap.queues[0].ops, 0u);
  EXPECT_DOUBLE_EQ(snap.queues[0].slot_skip_per_op, 0.0);
  EXPECT_EQ(snap.queues[0].seg_in_flight, 4);  // 6 allocs − 2 retires, all time
}

TEST(Monitor, PairsCombiningFacadeWithItsRingEntry) {
  telemetry::Registry reg;
  telemetry::ScopedQueueMetrics facade("fc", &reg);
  telemetry::ScopedQueueMetrics ring("fc/ring", &reg);

  health::MonitorOptions o;
  o.registry = &reg;
  o.latency_sample_every = 0;
  health::Monitor m(o);
  m.poll();  // baseline

  // 100 facade submits, 100 ring ops, zero facade ops: engagement must be
  // computed over the pair's flow (1.0), not the facade's op count (∞/0).
  facade.inc(telemetry::Counter::kCombSubmit, 100);
  ring.inc(telemetry::Counter::kPushOk, 60);
  ring.inc(telemetry::Counter::kPopOk, 40);
  HealthSnapshot snap = m.poll();
  const QueueRates* fc = nullptr;
  for (const QueueRates& q : snap.queues) {
    if (q.queue == "fc") {
      fc = &q;
    }
  }
  ASSERT_NE(fc, nullptr);
  EXPECT_EQ(fc->ops, 0u);
  EXPECT_DOUBLE_EQ(fc->comb_engagement, 1.0);
}

const QueueRates* rates_of(const HealthSnapshot& snap, const std::string& name) {
  for (const QueueRates& q : snap.queues) {
    if (q.queue == name) {
      return &q;
    }
  }
  return nullptr;
}

TEST(Monitor, SampledOpSpansFeedPercentiles) {
#if !EVQ_TRACE
  GTEST_SKIP() << "op spans are compiled out with EVQ_TRACE=0";
#else
  health::MonitorOptions o;
  o.latency_sample_every = 1;  // sample every op for the test
  health::Monitor m(o);
  m.poll();  // baseline

  CasArrayQueue<int> q(8, "health-lat-q");
  auto h = q.handle();
  int v = 0;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(q.try_push(h, &v));
    ASSERT_NE(q.try_pop(h), nullptr);
  }
  HealthSnapshot snap = m.poll();
  const QueueRates* r = rates_of(snap, "health-lat-q");
  ASSERT_NE(r, nullptr);
  EXPECT_GE(r->push_p50_ns, 0.0) << "spans must hold push samples";
  EXPECT_GE(r->pop_p50_ns, 0.0) << "spans must hold pop samples";
  EXPECT_GE(r->push_p99_ns, r->push_p50_ns);
  EXPECT_GE(r->pop_p99_ns, r->pop_p50_ns);
#endif
}

TEST(Monitor, SplitsOneThreadsSpansByQueueAndDirection) {
#if !EVQ_TRACE
  GTEST_SKIP() << "op spans are compiled out with EVQ_TRACE=0";
#else
  ASSERT_EQ(trace::sampling_period(), 0u);
  health::MonitorOptions o;
  o.latency_sample_every = 1;
  {
    health::Monitor m(o);
    EXPECT_EQ(trace::sampling_period(), 1u) << "the Monitor switches sampling on";

    // One thread, one span ring: the pushes of one queue (8 ok, then full)
    // interleave with the empty pops of the other.
    CasArrayQueue<int> pushed(8, "health-lat-push-only");
    CasArrayQueue<int> popped(8, "health-lat-pop-only");
    auto hp = pushed.handle();
    auto hq = popped.handle();
    int v = 0;
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(pushed.try_push(hp, &v), i < 8);
      EXPECT_EQ(popped.try_pop(hq), nullptr);
    }
    const HealthSnapshot snap = m.poll();
    const QueueRates* a = rates_of(snap, "health-lat-push-only");
    const QueueRates* b = rates_of(snap, "health-lat-pop-only");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_GE(a->push_p50_ns, 0.0) << "push_ok and push_full are push samples";
    EXPECT_GE(a->push_p99_ns, a->push_p50_ns);
    EXPECT_LT(a->pop_p50_ns, 0.0) << "no pop ran on this queue";
    EXPECT_LT(a->pop_p99_ns, 0.0);
    EXPECT_GE(b->pop_p50_ns, 0.0) << "pop_empty is a pop sample";
    EXPECT_GE(b->pop_p99_ns, b->pop_p50_ns);
    EXPECT_LT(b->push_p50_ns, 0.0) << "no push ran on this queue";
    EXPECT_LT(b->push_p99_ns, 0.0);
  }
  EXPECT_EQ(trace::sampling_period(), 0u) << "the Monitor restores what it changed";

  trace::set_sampling(5);
  {
    const health::Monitor m(o);
    EXPECT_EQ(trace::sampling_period(), 5u) << "a period already set wins";
  }
  EXPECT_EQ(trace::sampling_period(), 5u) << "a period the Monitor did not set stays";
  trace::set_sampling(0);
#endif
}

TEST(Monitor, BackgroundPollerStartsAndStops) {
  health::MonitorOptions o;
  o.latency_sample_every = 0;
  health::Monitor m(o);
  m.start(std::chrono::milliseconds(1));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (m.last().poll == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  m.stop();
  EXPECT_GE(m.last().poll, 1u);
  const std::uint64_t settled = m.last().poll;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(m.last().poll, settled) << "stop() must join the poller";
  m.stop();  // idempotent
}

}  // namespace
