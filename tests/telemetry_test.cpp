// Tests for the evq::telemetry subsystem: counter taxonomy and snapshot
// arithmetic, the cacheline-striped QueueMetrics under concurrent writers
// (exact totals, race-free under TSan), registry acquire/release sharing and
// per-instance depth gauges, the Prometheus exporter (text format pinned by
// tests/golden/telemetry_prometheus_v1.txt — regenerate with
// EVQ_REGEN_GOLDEN=1), the flight recorder, and end-to-end instrumentation
// of the ring engine and the sharded facade. finish_op(), the one call by
// which every queue op reports its outcome, is pinned on its own (counter,
// op_stats view, flight record, probe) and through the ring, SCQ and
// segmented op bodies that return through it.
//
// Counter-value assertions are guarded by EVQ_TELEMETRY: a -DEVQ_TELEMETRY=0
// build compiles every API but inc() is a no-op, so those builds assert
// zeros/emptiness instead.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "evq/core/cas_array_queue.hpp"
#include "evq/core/llsc_array_queue.hpp"
#include "evq/core/scq_queue.hpp"
#include "evq/core/segmented_queue.hpp"
#include "evq/core/sharded_queue.hpp"
#include "evq/llsc/packed_llsc.hpp"
#include "evq/telemetry/flight_recorder.hpp"
#include "evq/common/op_stats.hpp"
#include "evq/telemetry/metrics.hpp"
#include "evq/telemetry/op_event.hpp"
#include "evq/telemetry/prometheus.hpp"
#include "evq/telemetry/registry.hpp"

namespace {

using namespace evq::telemetry;
using evq::OpOutcome;

constexpr OpOutcome kAllOutcomes[] = {OpOutcome::kPushOk, OpOutcome::kPushFull,
                                      OpOutcome::kPopOk, OpOutcome::kPopEmpty};

// ---------------------------------------------------------------------------
// Counters and snapshots
// ---------------------------------------------------------------------------

TEST(TelemetryCounters, NamesAreStableAndDistinct) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    names.emplace_back(counter_name(static_cast<Counter>(i)));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    EXPECT_NE(names[i], "unknown");
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
  EXPECT_EQ(names[0], "push_ok");  // exporter `op` labels are API
  EXPECT_EQ(names[kCounterCount - 1], "comb_batch_n");
  // The SCQ-generation pair, the segmented-lifecycle triple, and the
  // combining triple sit at the tail of the taxonomy; these labels are
  // exporter API just like the op labels above.
  EXPECT_EQ(names[static_cast<std::size_t>(Counter::kFaaReserve)], "faa_reserve");
  EXPECT_EQ(names[static_cast<std::size_t>(Counter::kSlotSkip)], "slot_skip");
  EXPECT_EQ(names[static_cast<std::size_t>(Counter::kSegSeal)], "seg_seal");
  EXPECT_EQ(names[static_cast<std::size_t>(Counter::kSegAlloc)], "seg_alloc");
  EXPECT_EQ(names[static_cast<std::size_t>(Counter::kSegRetire)], "seg_retire");
  EXPECT_EQ(names[static_cast<std::size_t>(Counter::kCombSubmit)], "comb_submit");
  EXPECT_EQ(names[static_cast<std::size_t>(Counter::kCombCombine)], "comb_combine");
  EXPECT_EQ(names[static_cast<std::size_t>(Counter::kCombBatchN)], "comb_batch_n");
}

TEST(TelemetryCounters, SnapshotArithmetic) {
  CounterSnapshot a;
  EXPECT_FALSE(a.any());
  a[Counter::kPushOk] = 10;
  a[Counter::kPopEmpty] = 3;
  EXPECT_TRUE(a.any());
  EXPECT_EQ(a[Counter::kPushOk], 10u);

  CounterSnapshot b;
  b[Counter::kPushOk] = 5;
  b[Counter::kHpScan] = 2;
  a += b;
  EXPECT_EQ(a[Counter::kPushOk], 15u);
  EXPECT_EQ(a[Counter::kHpScan], 2u);
  EXPECT_EQ(a[Counter::kPopEmpty], 3u);
}

TEST(TelemetryCounters, DeltaIsMonotoneAndUnderflowSafe) {
  CounterSnapshot before;
  before[Counter::kPushOk] = 100;
  before[Counter::kPopOk] = 50;
  CounterSnapshot after;
  after[Counter::kPushOk] = 160;
  after[Counter::kPopOk] = 20;  // mismatched pair: must clamp, not wrap

  const CounterSnapshot d = counter_delta(before, after);
  EXPECT_EQ(d[Counter::kPushOk], 60u);
  EXPECT_EQ(d[Counter::kPopOk], 0u);
  EXPECT_EQ(d[Counter::kPushFull], 0u);
}

// ---------------------------------------------------------------------------
// QueueMetrics under concurrency
// ---------------------------------------------------------------------------

TEST(QueueMetrics, ConcurrentIncrementsSumExactly) {
  QueueMetrics m;
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;

  std::atomic<bool> stop{false};
  // A racing reader: snapshots must be race-free against live writers (TSan
  // proves it); exactness is only asserted after the join below.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)m.snapshot();
    }
  });
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kThreads; ++t) {
    writers.emplace_back([&m] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        m.inc(Counter::kPushOk);
      }
      m.inc(Counter::kHpFreed, 7);
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

#if EVQ_TELEMETRY
  EXPECT_EQ(m.value(Counter::kPushOk), kThreads * kPerThread);
  EXPECT_EQ(m.value(Counter::kHpFreed), kThreads * 7u);
  const CounterSnapshot snap = m.snapshot();
  EXPECT_EQ(snap[Counter::kPushOk], kThreads * kPerThread);
#else
  EXPECT_EQ(m.value(Counter::kPushOk), 0u) << "EVQ_TELEMETRY=0 must compile inc() out";
#endif
  EXPECT_EQ(m.value(Counter::kEpochAdvance), 0u);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(TelemetryRegistry, SameNameSharesEntryAndIdsFollowRegistrationOrder) {
  Registry reg;
  Registry::Entry* a1 = reg.acquire("queue-a");
  Registry::Entry* b = reg.acquire("queue-b");
  Registry::Entry* a2 = reg.acquire("queue-a");
  EXPECT_EQ(a1, a2) << "same-name live instances must share one entry";
  EXPECT_NE(a1, b);
  EXPECT_EQ(a1->id, 0u);
  EXPECT_EQ(b->id, 1u);
  EXPECT_EQ(a1->live, 2u);
  EXPECT_EQ(reg.size(), 2u);

  reg.release(a2);
  EXPECT_EQ(a1->live, 1u);
  reg.release(a1);
  reg.release(b);
  // Entries are never deleted (Prometheus monotonicity): still findable.
  EXPECT_NE(reg.find("queue-a"), nullptr);
  EXPECT_EQ(reg.find("queue-a")->live, 0u);
  EXPECT_EQ(reg.find("no-such"), nullptr);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(TelemetryRegistry, DepthGaugesArePerInstanceAndClearedOnDestruction) {
  Registry reg;
  {
    ScopedQueueMetrics q1("gauged", &reg);
    q1.set_depth_gauge([] { return std::uint64_t{7}; });
    {
      ScopedQueueMetrics q2("gauged", &reg);
      q2.set_depth_gauge([] { return std::uint64_t{5}; });
      reg.for_each([](const Registry::Entry& e, std::size_t gauges, std::uint64_t depth) {
        EXPECT_EQ(e.name, "gauged");
        EXPECT_EQ(gauges, 2u);
        EXPECT_EQ(depth, 12u) << "depth must sum the live instances' gauges";
      });
    }
    reg.for_each([](const Registry::Entry&, std::size_t gauges, std::uint64_t depth) {
      EXPECT_EQ(gauges, 1u) << "destroyed instance must remove its gauge";
      EXPECT_EQ(depth, 7u);
    });
  }
  reg.for_each([](const Registry::Entry& e, std::size_t gauges, std::uint64_t) {
    EXPECT_EQ(gauges, 0u);
    EXPECT_EQ(e.live, 0u);
  });
}

// ---------------------------------------------------------------------------
// Exporter: snapshots, deltas, Prometheus text format
// ---------------------------------------------------------------------------

TEST(TelemetryExporter, SnapshotDeltaHandlesNewQueues) {
  RegistrySnapshot before;
  QueueCounters old_q;
  old_q.queue = "seen";
  old_q.counters[Counter::kPushOk] = 10;
  before.queues.push_back(old_q);

  RegistrySnapshot after;
  QueueCounters now_q;
  now_q.queue = "seen";
  now_q.counters[Counter::kPushOk] = 25;
  now_q.has_depth = true;
  now_q.depth = 4;
  after.queues.push_back(now_q);
  QueueCounters fresh;
  fresh.queue = "fresh";
  fresh.counters[Counter::kPopOk] = 9;
  after.queues.push_back(fresh);

  const RegistrySnapshot d = snapshot_delta(before, after);
  ASSERT_EQ(d.queues.size(), 2u);
  const QueueCounters* seen = d.find("seen");
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen->counters[Counter::kPushOk], 15u);
  EXPECT_TRUE(seen->has_depth);
  EXPECT_EQ(seen->depth, 4u) << "depth carries from `after` (gauges have no delta)";
  const QueueCounters* f = d.find("fresh");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->counters[Counter::kPopOk], 9u) << "mid-interval queues contribute full counts";
}

TEST(TelemetryExporter, EscapeLabelValueHandlesAllThreeSpecials) {
  // Prometheus text format requires exactly three escapes inside a label
  // value: backslash, double quote, newline. Everything else passes through.
  EXPECT_EQ(escape_label_value("plain/name-0"), "plain/name-0");
  EXPECT_EQ(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  EXPECT_EQ(escape_label_value(""), "");
  EXPECT_EQ(escape_label_value("\\\\"), "\\\\\\\\");
}

TEST(TelemetryExporter, GoldenFilePinsPrometheusTextFormat) {
#if !EVQ_TELEMETRY
  GTEST_SKIP() << "counter values compiled out with EVQ_TELEMETRY=0";
#else
  // A private registry keeps the rendering independent of every other test
  // in this binary (the global registry accumulates across the process).
  Registry reg;
  ScopedQueueMetrics alpha("alpha", &reg);
  ScopedQueueMetrics beta("beta", &reg);
  alpha.inc(Counter::kPushOk, 3);
  alpha.inc(Counter::kPopOk, 2);
  alpha.inc(Counter::kSlotScFail);
  alpha.set_depth_gauge([] { return std::uint64_t{1}; });
  beta.inc(Counter::kPushFull, 4);
  // A hostile name: every character class the escaper must handle ends up
  // byte-exact in the golden file.
  ScopedQueueMetrics weird("weird\"\\\nq", &reg);
  weird.inc(Counter::kPopEmpty, 1);

  std::ostringstream os;
  render_prometheus(os, reg);
  const std::string doc = os.str();

  const std::string golden_path =
      std::string(EVQ_TEST_GOLDEN_DIR) + "/telemetry_prometheus_v1.txt";
  if (std::getenv("EVQ_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << golden_path;
    out << doc;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream golden(golden_path);
  ASSERT_TRUE(golden.good()) << "missing golden file; see this test's header comment";
  std::stringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(doc, want.str())
      << "Prometheus text format drifted. If intentional, regenerate with "
         "EVQ_REGEN_GOLDEN=1 and mention the change in DESIGN.md Observability.";
#endif
}

TEST(TelemetryRegistry, EntryChurnRacesWithSnapshotsSafely) {
  // TSan teeth for registration/teardown: two threads create and destroy
  // same-named ScopedQueueMetrics handles (shared entry refcount churn, gauge
  // attach/detach) while the main thread snapshots and renders the global
  // registry. No assertions beyond well-formed output — the point is that
  // snapshotting never races entry lifetime.
  std::atomic<bool> stop{false};
  std::thread churn_a([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ScopedQueueMetrics m("tmtest-churn-a");
      m.inc(Counter::kPushOk);
    }
  });
  std::thread churn_b([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ScopedQueueMetrics m("tmtest-churn-b");
      m.set_depth_gauge([] { return std::uint64_t{1}; });
      m.inc(Counter::kPopEmpty);
    }
  });
  for (int i = 0; i < 200; ++i) {
    const RegistrySnapshot snap = snapshot_registry();
    EXPECT_LE(snap.queues.size(), 4096u);  // sanity: bounded, well-formed
    std::ostringstream os;
    render_prometheus(os);
    EXPECT_NE(os.str().find("# TYPE"), std::string::npos);
  }
  stop.store(true, std::memory_order_relaxed);
  churn_a.join();
  churn_b.join();
}

TEST(TelemetryExporter, RenderRacesWithWritersSafely) {
  // TSan teeth: scrape the GLOBAL registry while a named queue hammers its
  // counters. No assertion beyond well-formed output — the point is the race.
  evq::LlscArrayQueue<int, evq::llsc::PackedLlsc> q(8, "tmtest-render-race");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    auto h = q.handle();
    int v = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      if (q.try_push(h, &v)) {
        (void)q.try_pop(h);
      }
    }
  });
  for (int i = 0; i < 50; ++i) {
    std::ostringstream os;
    render_prometheus(os);
    EXPECT_NE(os.str().find("evq_queue_ops_total"), std::string::npos);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RecordsLastOpsAndDumps) {
  set_tracing(true);
  record_trace(1, OpOutcome::kPushOk, 5, 0);
  record_trace(1, OpOutcome::kPopEmpty, 6, 2);
  set_tracing(false);

#if EVQ_TELEMETRY
  ASSERT_NE(detail::t_trace, nullptr) << "record_trace must attach a ring";
  const std::uint32_t my_ord = detail::t_trace->owner_ordinal();
  bool found = false;
  for (const LastOpState& s : last_ops_per_thread()) {
    if (s.thread_ord == my_ord) {
      found = true;
      EXPECT_TRUE(s.thread_live);
      EXPECT_GE(s.total_records, 2u);
      EXPECT_EQ(s.op, OpOutcome::kPopEmpty) << "last op wins";
      EXPECT_EQ(s.index, 6u);
      EXPECT_EQ(s.retries, 2u);
    }
  }
  EXPECT_TRUE(found);

  std::ostringstream os;
  dump_flight_recorder(os, 4);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("evq flight recorder"), std::string::npos);
  EXPECT_NE(dump.find("last op per thread"), std::string::npos);
  EXPECT_NE(dump.find("op=pop_empty"), std::string::npos);
#endif
}

TEST(FlightRecorder, DisabledTracingRecordsNothing) {
  set_tracing(false);
  const std::size_t before = last_ops_per_thread().size();
  std::thread t([] {
    record_trace(0, OpOutcome::kPushOk, 0, 0);  // flag off: must not attach
  });
  t.join();
  EXPECT_EQ(last_ops_per_thread().size(), before);
}

TEST(FlightRecorder, RingWrapKeepsMostRecentRecords) {
#if !EVQ_TELEMETRY
  GTEST_SKIP() << "tracing compiled out with EVQ_TELEMETRY=0";
#else
  set_tracing(true);
  for (std::uint64_t i = 0; i < ThreadTrace::kRecords + 17; ++i) {
    record_trace(2, OpOutcome::kPushOk, i, 0);
  }
  set_tracing(false);
  ASSERT_NE(detail::t_trace, nullptr);
  const ThreadTrace& trace = *detail::t_trace;
  const std::uint64_t total = trace.total_records();
  EXPECT_GE(total, ThreadTrace::kRecords + 17);
  // The latest logical record is intact; its slot holds the newest write.
  const ThreadTrace::Record& last = trace.record_at(total - 1);
  EXPECT_EQ(last.index.load(std::memory_order_relaxed), ThreadTrace::kRecords + 16);
#endif
}

TEST(FlightRecorder, OpSeqIsMonotoneAcrossRingWraparound) {
#if !EVQ_TELEMETRY
  GTEST_SKIP() << "tracing compiled out with EVQ_TELEMETRY=0";
#else
  // The health stall detector compares successive op_seq reads, so the
  // counter must keep climbing even while the record ring wraps and
  // overwrites slots.
  set_tracing(true);
  record_trace(3, OpOutcome::kPushOk, 0, 0);
  ASSERT_NE(detail::t_trace, nullptr);
  const ThreadTrace& trace = *detail::t_trace;
  const std::uint64_t seq_before = trace.op_seq();
  constexpr std::uint64_t kOps = ThreadTrace::kRecords * 2 + 5;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    record_trace(3, OpOutcome::kPopOk, i, 0);
  }
  set_tracing(false);
  EXPECT_EQ(trace.op_seq(), seq_before + kOps) << "one tick per recorded op";
  const std::uint64_t total = trace.total_records();
  // Post-wrap slots carry coherent, strictly increasing op_seq stamps.
  const std::uint64_t last_seq =
      trace.record_at(total - 1).op_seq.load(std::memory_order_relaxed);
  const std::uint64_t prev_seq =
      trace.record_at(total - 2).op_seq.load(std::memory_order_relaxed);
  EXPECT_EQ(last_seq, seq_before + kOps);
  EXPECT_EQ(prev_seq + 1, last_seq);
#endif
}

TEST(FlightRecorder, OpSeqResetsWhenRingChangesOwner) {
#if !EVQ_TELEMETRY
  GTEST_SKIP() << "tracing compiled out with EVQ_TELEMETRY=0";
#else
  // Rings are recycled across threads via assign_owner(), which must zero
  // op_seq — otherwise the health monitor would inherit the previous owner's
  // count as the new thread's baseline. Whether the second thread reuses the
  // first thread's ring (free-list hit) or attaches a fresh one, its first
  // record must observe op_seq == 1.
  set_tracing(true);
  std::thread first([] {
    for (int i = 0; i < 7; ++i) {
      record_trace(4, OpOutcome::kPushOk, 0, 0);
    }
    ASSERT_NE(detail::t_trace, nullptr);
    EXPECT_GE(detail::t_trace->op_seq(), 7u);
  });
  first.join();
  std::thread second([] {
    record_trace(4, OpOutcome::kPopOk, 0, 0);
    ASSERT_NE(detail::t_trace, nullptr);
    EXPECT_EQ(detail::t_trace->op_seq(), 1u)
        << "recycled ring must not inherit the dead owner's op count";
  });
  second.join();
  set_tracing(false);
#endif
}

// ---------------------------------------------------------------------------
// Op outcomes: finish_op
// ---------------------------------------------------------------------------

/// Stands in for trace::OpProbe: remembers every finish() it receives.
struct ProbeSpy {
  int finishes = 0;
  OpOutcome op = OpOutcome::kPushOk;
  std::uint64_t index = 0;
  std::uint32_t retries = 0;
  void finish(OpOutcome o, std::uint64_t i, std::uint32_t r) noexcept {
    ++finishes;
    op = o;
    index = i;
    retries = r;
  }
};

/// This thread's entry in the flight recorder, if it has recorded anything.
std::optional<LastOpState> my_last_op() {
  if (detail::t_trace == nullptr) {
    return std::nullopt;
  }
  const std::uint32_t my_ord = detail::t_trace->owner_ordinal();
  for (const LastOpState& s : last_ops_per_thread()) {
    if (s.thread_ord == my_ord && s.thread_live) {
      return s;
    }
  }
  return std::nullopt;
}

/// `c`'s registry count for `queue`; 0 while the name is not registered.
std::uint64_t registry_count(const std::string& queue, Counter c) {
  const RegistrySnapshot snap = snapshot_registry();
  const QueueCounters* qc = snap.find(queue);
  return qc == nullptr ? 0 : qc->counters[c];
}

TEST(OpOutcome, SharesItsNameWithItsCounter) {
  // finish_op counts an outcome as the Counter of the same value; the
  // exporters then label it with counter_name, the flight recorder with
  // op_outcome_name. Both views must call an op the same thing.
  for (const OpOutcome op : kAllOutcomes) {
    EXPECT_STREQ(counter_name(static_cast<Counter>(op)), op_outcome_name(op));
  }
}

TEST(FinishOp, CountsExactlyTheOutcomesCounter) {
  ScopedQueueMetrics m("tmtest-finish-count");
  ProbeSpy probe;
  for (const OpOutcome op : kAllOutcomes) {
    const CounterSnapshot before = m.metrics().snapshot();
    evq::telemetry::finish_op(m, probe, op, 0, 0);
    const CounterSnapshot delta = counter_delta(before, m.metrics().snapshot());
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      const Counter counter = static_cast<Counter>(c);
#if EVQ_TELEMETRY
      const std::uint64_t want = counter == static_cast<Counter>(op) ? 1u : 0u;
#else
      const std::uint64_t want = 0;
#endif
      EXPECT_EQ(delta[counter], want) << op_outcome_name(op) << " -> " << counter_name(counter);
    }
  }
}

TEST(FinishOp, RecordingBodyFinishesTheProbeOnceAndIdleBodyNever) {
  ScopedQueueMetrics m("tmtest-finish-probe");
  ProbeSpy probe;
  evq::telemetry::finish_op(m, probe, OpOutcome::kPopOk, 42, 3);
  EXPECT_EQ(probe.finishes, 1);
  EXPECT_EQ(probe.op, OpOutcome::kPopOk);
  EXPECT_EQ(probe.index, 42u);
  EXPECT_EQ(probe.retries, 3u);

  ProbeSpy idle;
  evq::telemetry::finish_op<false>(m, idle, OpOutcome::kPopOk, 42, 3);
  EXPECT_EQ(idle.finishes, 0) << "the idle body's probe is an empty stand-in";
}

TEST(FinishOp, FeedsOpStatsOneSlotCommitPerCompletedOp) {
  // count_ring_event's op_stats view: an ok push/pop committed its slot
  // once; a FULL/EMPTY return committed nothing. Both bodies agree.
  ScopedQueueMetrics m("tmtest-finish-opstats");
  for (const bool record : {false, true}) {
    evq::stats::OpCounters c;
    {
      evq::stats::ScopedOpRecording rec(c);
      for (const OpOutcome op : kAllOutcomes) {
        ProbeSpy probe;
        if (record) {
          evq::telemetry::finish_op<true>(m, probe, op, 0, 0);
        } else {
          evq::telemetry::finish_op<false>(m, probe, op, 0, 0);
        }
      }
    }
    EXPECT_EQ(c.slot_sc_attempts, 2u) << "record=" << record;
    EXPECT_EQ(c.slot_sc_failures, 0u) << "record=" << record;
    EXPECT_EQ(c.help_advances, 0u) << "record=" << record;
  }
}

TEST(FinishOp, OnlyTheRecordingBodyWritesTheFlightRecord) {
#if !EVQ_TELEMETRY
  GTEST_SKIP() << "tracing compiled out with EVQ_TELEMETRY=0";
#else
  ScopedQueueMetrics m("tmtest-finish-record");
  set_tracing(true);
  // A fresh thread has no ring until its first record, so an attached ring
  // is proof that something was written.
  std::thread t([&] {
    ProbeSpy probe;
    evq::telemetry::finish_op<false>(m, probe, OpOutcome::kPushOk, 1, 0);
    EXPECT_EQ(detail::t_trace, nullptr) << "the idle body must not record";

    evq::telemetry::finish_op(m, probe, OpOutcome::kPushFull, 9, 4);
    const std::optional<LastOpState> last = my_last_op();
    ASSERT_TRUE(last.has_value()) << "the recording body must attach and write a ring";
    EXPECT_EQ(last->op_seq, 1u) << "one recorded op: the recording body's";
    EXPECT_EQ(last->queue_id, m.queue_id());
    EXPECT_EQ(last->op, OpOutcome::kPushFull);
    EXPECT_EQ(last->index, 9u);
    EXPECT_EQ(last->retries, 4u);
  });
  t.join();
  set_tracing(false);
#endif
}

// ---------------------------------------------------------------------------
// End-to-end: instrumented queues feed the registry
// ---------------------------------------------------------------------------

TEST(TelemetryEndToEnd, RingQueueCountsOpsAndExportsDepth) {
  // Registry entries outlive their queues, so every count is read as a
  // delta: the test passes however often it runs in one process.
  const RegistrySnapshot before = snapshot_registry();
  int a = 1;
  int b = 2;
  {
    evq::LlscArrayQueue<int, evq::llsc::PackedLlsc> q(4, "tmtest-ring");
    auto h = q.handle();
    ASSERT_TRUE(q.try_push(h, &a));
    ASSERT_TRUE(q.try_push(h, &b));

    const RegistrySnapshot live = snapshot_delta(before, snapshot_registry());
    const QueueCounters* qc = live.find("tmtest-ring");
    ASSERT_NE(qc, nullptr);
    EXPECT_TRUE(qc->has_depth);
#if EVQ_TELEMETRY
    EXPECT_EQ(qc->counters[Counter::kPushOk], 2u);
    EXPECT_EQ(qc->depth, 2u) << "depth gauge must report the live occupancy";
#endif
    EXPECT_EQ(q.try_pop(h), &a);
    EXPECT_EQ(q.try_pop(h), &b);
    EXPECT_EQ(q.try_pop(h), nullptr);
#if EVQ_TELEMETRY
    const RegistrySnapshot done = snapshot_delta(before, snapshot_registry());
    EXPECT_EQ(done.find("tmtest-ring")->counters[Counter::kPopOk], 2u);
    EXPECT_EQ(done.find("tmtest-ring")->counters[Counter::kPopEmpty], 1u);
#endif
  }
  // Destruction removes the gauge but the entry (a monotone counter series)
  // survives for the process lifetime.
  const RegistrySnapshot after = snapshot_registry();
  const QueueCounters* qc = after.find("tmtest-ring");
  ASSERT_NE(qc, nullptr);
  EXPECT_FALSE(qc->has_depth);
}

TEST(TelemetryEndToEnd, ScqQueueCountsFaaReservesAndSlotSkips) {
  const RegistrySnapshot before = snapshot_registry();
  int a = 1;
  int b = 2;
  {
    evq::ScqQueue<int> q(4, "tmtest-scq");
    auto h = q.handle();
    ASSERT_TRUE(q.try_push(h, &a));
    ASSERT_TRUE(q.try_push(h, &b));

    const RegistrySnapshot live = snapshot_delta(before, snapshot_registry());
    const QueueCounters* qc = live.find("tmtest-scq");
    ASSERT_NE(qc, nullptr);
    EXPECT_TRUE(qc->has_depth);
#if EVQ_TELEMETRY
    EXPECT_EQ(qc->counters[Counter::kPushOk], 2u);
    // Every push claims at least two FAA tickets (one on the free ring, one
    // on the allocated ring): the FAA-generation counter must already show
    // activity where a CAS-generation queue would report index CASes.
    EXPECT_GE(qc->counters[Counter::kFaaReserve], 4u);
    EXPECT_EQ(qc->depth, 2u);
#endif
    EXPECT_EQ(q.try_pop(h), &a);
    EXPECT_EQ(q.try_pop(h), &b);
    // A pop against the drained queue walks the empty-probe path: one more
    // FAA ticket plus a cycle-bump skip CAS on the allocated ring.
    EXPECT_EQ(q.try_pop(h), nullptr);
#if EVQ_TELEMETRY
    const RegistrySnapshot done = snapshot_delta(before, snapshot_registry());
    const CounterSnapshot& c = done.find("tmtest-scq")->counters;
    EXPECT_EQ(c[Counter::kPopOk], 2u);
    EXPECT_EQ(c[Counter::kPopEmpty], 1u);
    EXPECT_GE(c[Counter::kSlotSkip], 1u);
    EXPECT_GE(c[Counter::kFaaReserve], 7u);
#endif
  }
  const RegistrySnapshot after = snapshot_registry();
  const QueueCounters* qc = after.find("tmtest-scq");
  ASSERT_NE(qc, nullptr);
  EXPECT_FALSE(qc->has_depth);
}

TEST(TelemetryEndToEnd, ShardedFacadeAggregatesShardCounters) {
  const RegistrySnapshot before = snapshot_registry();
  constexpr std::size_t kTokens = 64;
  int vals[kTokens];
  evq::ShardedQueue<evq::CasArrayQueue<int>> q(32, 4, "tmtest-sharded");
  ASSERT_EQ(q.shard_count(), 4u);
  auto h = q.handle();
  for (std::size_t i = 0; i < kTokens; ++i) {
    vals[i] = static_cast<int>(i);
    while (!q.try_push(h, &vals[i])) {
      ASSERT_NE(q.try_pop(h), nullptr);  // keep space: facade is capacity 32
    }
  }
  std::size_t popped = 0;
  while (q.try_pop(h) != nullptr) {
    ++popped;
  }
  EXPECT_GT(popped, 0u);

#if EVQ_TELEMETRY
  // Facade push_ok must equal the sum of the shard entries' push_ok: every
  // facade-accepted push landed in exactly one shard.
  const RegistrySnapshot snap = snapshot_delta(before, snapshot_registry());
  const QueueCounters* facade = snap.find("tmtest-sharded");
  ASSERT_NE(facade, nullptr);
  std::uint64_t shard_push_ok = 0;
  std::uint64_t shard_pop_ok = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    const QueueCounters* shard = snap.find("tmtest-sharded/" + std::to_string(s));
    ASSERT_NE(shard, nullptr) << "shard " << s << " must register individually";
    shard_push_ok += shard->counters[Counter::kPushOk];
    shard_pop_ok += shard->counters[Counter::kPopOk];
  }
  EXPECT_EQ(facade->counters[Counter::kPushOk], kTokens);
  EXPECT_EQ(shard_push_ok, kTokens);
  EXPECT_EQ(facade->counters[Counter::kPopOk], shard_pop_ok);
#endif
}

TEST(TelemetryEndToEnd, SegmentedFacadeDepthMatchesSegmentEntrySum) {
  // The segmented facade registers under its own name; every segment ring
  // registers under "<facade>/seg", sharing ONE entry whose depth is the sum
  // of the live per-segment gauges. The facade's own gauge walks the chain —
  // the two must agree at every quiescent point.
  const RegistrySnapshot before = snapshot_registry();
  constexpr std::size_t kTokens = 10;
  int vals[kTokens];
  evq::SegmentedQueue<evq::CasArrayQueue<int>> q(4, "tmtest-seg");
  auto h = q.handle();
  for (std::size_t i = 0; i < kTokens; ++i) {
    vals[i] = static_cast<int>(i);
    ASSERT_TRUE(q.try_push(h, &vals[i]));
  }

  {
    const RegistrySnapshot snap = snapshot_delta(before, snapshot_registry());
    const QueueCounters* facade = snap.find("tmtest-seg");
    const QueueCounters* segs = snap.find("tmtest-seg/seg");
    ASSERT_NE(facade, nullptr);
    ASSERT_NE(segs, nullptr) << "segments must register under <facade>/seg";
    EXPECT_TRUE(facade->has_depth);
    EXPECT_TRUE(segs->has_depth);
#if EVQ_TELEMETRY
    EXPECT_EQ(facade->counters[Counter::kPushOk], kTokens);
    // Single-threaded, so every item (including append seeds) landed in
    // exactly one ring push with no contention retries.
    EXPECT_EQ(segs->counters[Counter::kPushOk], kTokens);
    EXPECT_EQ(facade->depth, kTokens);
    EXPECT_EQ(segs->depth, facade->depth)
        << "facade gauge must equal the sum across live segment gauges";
#endif
  }

  for (std::size_t i = 0; i < kTokens; ++i) {
    ASSERT_NE(q.try_pop(h), nullptr);
  }
  const RegistrySnapshot snap = snapshot_delta(before, snapshot_registry());
  const QueueCounters* facade = snap.find("tmtest-seg");
  const QueueCounters* segs = snap.find("tmtest-seg/seg");
  ASSERT_NE(facade, nullptr);
  ASSERT_NE(segs, nullptr);
#if EVQ_TELEMETRY
  EXPECT_EQ(facade->depth, 0u);
  EXPECT_EQ(segs->depth, facade->depth) << "drained facade and segment sums must both be zero";
#endif
}

TEST(TelemetryEndToEnd, RingPushFullCountsInBothBodiesAndRecordsWhenTracing) {
  // Tracing off runs the ring's idle op body, tracing on its sampled body;
  // a refused push is counted by both and recorded only by the second.
  const std::string name = "tmtest-ring-full";
  evq::CasArrayQueue<int> q(4, name);
  auto h = q.handle();
  std::vector<int> vals(q.capacity());
  for (int& v : vals) {
    ASSERT_TRUE(q.try_push(h, &v));
  }
  int extra = 0;
  const std::uint64_t full_before = registry_count(name, Counter::kPushFull);
  EXPECT_FALSE(q.try_push(h, &extra));
  set_tracing(true);
  EXPECT_FALSE(q.try_push(h, &extra));
  const std::optional<LastOpState> last = my_last_op();
  set_tracing(false);
#if EVQ_TELEMETRY
  EXPECT_EQ(registry_count(name, Counter::kPushFull) - full_before, 2u);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->queue_id, snapshot_registry().find(name)->id);
  EXPECT_EQ(last->op, OpOutcome::kPushFull);
#else
  (void)last;
  (void)full_before;
#endif
}

TEST(TelemetryEndToEnd, ScqEveryOutcomeIsCountedAndRecorded) {
  const std::string name = "tmtest-scq-outcomes";
  evq::ScqQueue<int> q(4, name);
  auto h = q.handle();
  std::vector<int> vals(q.capacity());
  int extra = 0;
  const CounterSnapshot before = snapshot_registry().find(name)->counters;
  set_tracing(true);
  for (int& v : vals) {
    ASSERT_TRUE(q.try_push(h, &v));
  }
  EXPECT_FALSE(q.try_push(h, &extra));
  const std::optional<LastOpState> after_full = my_last_op();
  for (int& v : vals) {
    ASSERT_EQ(q.try_pop(h), &v);
  }
  const std::optional<LastOpState> after_pop = my_last_op();
  EXPECT_EQ(q.try_pop(h), nullptr);
  const std::optional<LastOpState> after_empty = my_last_op();
  set_tracing(false);
#if EVQ_TELEMETRY
  const CounterSnapshot delta = counter_delta(before, snapshot_registry().find(name)->counters);
  EXPECT_EQ(delta[Counter::kPushOk], vals.size());
  EXPECT_EQ(delta[Counter::kPushFull], 1u);
  EXPECT_EQ(delta[Counter::kPopOk], vals.size());
  EXPECT_EQ(delta[Counter::kPopEmpty], 1u);
  ASSERT_TRUE(after_full.has_value() && after_pop.has_value() && after_empty.has_value());
  EXPECT_EQ(after_full->op, OpOutcome::kPushFull);
  EXPECT_EQ(after_pop->op, OpOutcome::kPopOk);
  EXPECT_EQ(after_empty->op, OpOutcome::kPopEmpty);
  EXPECT_EQ(after_empty->queue_id, snapshot_registry().find(name)->id);
#else
  (void)before;
  (void)after_full;
  (void)after_pop;
  (void)after_empty;
#endif
}

TEST(TelemetryEndToEnd, SegmentedFacadeOutcomesAreItsLastRecord) {
  // The facade finishes its op after the segment ring's own op, so the
  // thread's last record is the facade's, under the facade's id.
  const std::string name = "tmtest-seg-outcomes";
  evq::SegmentedQueue<evq::CasArrayQueue<int>> q(4, name);
  auto h = q.handle();
  int v = 7;
  const CounterSnapshot before = snapshot_registry().find(name)->counters;
  set_tracing(true);
  ASSERT_TRUE(q.try_push(h, &v));
  const std::optional<LastOpState> after_push = my_last_op();
  ASSERT_EQ(q.try_pop(h), &v);
  const std::optional<LastOpState> after_pop = my_last_op();
  EXPECT_EQ(q.try_pop(h), nullptr);
  const std::optional<LastOpState> after_empty = my_last_op();
  set_tracing(false);
#if EVQ_TELEMETRY
  const RegistrySnapshot snap = snapshot_registry();
  const CounterSnapshot delta = counter_delta(before, snap.find(name)->counters);
  EXPECT_EQ(delta[Counter::kPushOk], 1u);
  EXPECT_EQ(delta[Counter::kPopOk], 1u);
  EXPECT_EQ(delta[Counter::kPopEmpty], 1u);
  const std::uint32_t facade_id = snap.find(name)->id;
  ASSERT_TRUE(after_push.has_value() && after_pop.has_value() && after_empty.has_value());
  EXPECT_EQ(after_push->op, OpOutcome::kPushOk);
  EXPECT_EQ(after_push->queue_id, facade_id);
  EXPECT_EQ(after_pop->op, OpOutcome::kPopOk);
  EXPECT_EQ(after_pop->queue_id, facade_id);
  EXPECT_EQ(after_empty->op, OpOutcome::kPopEmpty);
  EXPECT_EQ(after_empty->queue_id, facade_id);
#else
  (void)before;
  (void)after_push;
  (void)after_pop;
  (void)after_empty;
#endif
}

}  // namespace
