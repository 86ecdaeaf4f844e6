// Tests for evq::trace: deterministic 1-in-N sampling, span-ring wrap
// behaviour (main and help areas), the always-on help markers that make
// helper→helped flow pairing sampling-independent, and the Chrome Trace
// Format exporter (shape pinned by tests/golden/trace_chrome_v1.json —
// regenerate with EVQ_REGEN_GOLDEN=1). A multi-writer export test gives TSan
// teeth to the racy-but-atomic ring reads.
//
// Probe-value assertions are guarded by EVQ_TRACE: a -DEVQ_TRACE=OFF build
// compiles every probe to nothing, so those builds assert emptiness instead
// (the SpanRing and exporter APIs stay live in both builds).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "evq/core/scq_queue.hpp"
#include "evq/telemetry/registry.hpp"
#include "evq/trace/chrome_trace.hpp"
#include "evq/trace/trace.hpp"

namespace evq::trace {
namespace {

std::size_t count_of(const std::string& doc, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = doc.find(needle); at != std::string::npos;
       at = doc.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_sampling(0);
    detail::reset_for_test();
  }
  void TearDown() override {
    set_sampling(0);
    detail::reset_for_test();
  }
};

TEST_F(TraceTest, EnumNamesArePinned) {
  // trace_report.py groups by these strings; renaming one is a tooling break.
  EXPECT_STREQ(op_outcome_name(OpOutcome::kPushOk), "push_ok");
  EXPECT_STREQ(op_outcome_name(OpOutcome::kPushFull), "push_full");
  EXPECT_STREQ(op_outcome_name(OpOutcome::kPopOk), "pop_ok");
  EXPECT_STREQ(op_outcome_name(OpOutcome::kPopEmpty), "pop_empty");
  EXPECT_STREQ(phase_name(Phase::kIndexLoad), "index_load");
  EXPECT_STREQ(phase_name(Phase::kSlotAttempt), "slot_attempt");
  EXPECT_STREQ(phase_name(Phase::kBackoff), "backoff");
  EXPECT_STREQ(phase_name(Phase::kFaaReserve), "faa_reserve");
  EXPECT_STREQ(phase_name(Phase::kSlotSkip), "slot_skip");
  EXPECT_STREQ(help_target_name(HelpTarget::kTail), "tail");
  EXPECT_STREQ(help_target_name(HelpTarget::kHead), "head");
  EXPECT_STREQ(reclaim_kind_name(ReclaimKind::kHpScan), "hp_scan");
  EXPECT_STREQ(reclaim_kind_name(ReclaimKind::kEpochAdvance), "epoch_advance");
  EXPECT_STREQ(reclaim_kind_name(ReclaimKind::kPoolTake), "pool_take");
}

TEST_F(TraceTest, DisabledProbesRecordNothing) {
  ASSERT_FALSE(enabled());
  for (std::uint64_t i = 0; i < 16; ++i) {
    OpProbe probe(7);
    probe.begin_phase(Phase::kIndexLoad);
    probe.helped(i, HelpTarget::kTail);  // even always-on markers gate on enabled()
    probe.finish(OpOutcome::kPushOk, i, 0);
  }
  EXPECT_TRUE(snapshot_spans().empty());
}

TEST_F(TraceTest, SamplingRatioIsDeterministic) {
  // set_sampling resets this thread's countdown, so the FIRST probe arms and
  // then every 4th: 32 probes -> exactly 8 sampled ops, indices 0,4,8,...
  set_sampling(4);
  for (std::uint64_t i = 0; i < 32; ++i) {
    OpProbe probe(7);
    probe.begin_phase(Phase::kIndexLoad);
    probe.begin_phase(Phase::kSlotAttempt);
    probe.finish(OpOutcome::kPushOk, i, 0);
  }
  std::size_t ops = 0;
  std::size_t phases = 0;
  for (const SpanSnapshot& s : snapshot_spans()) {
    if (s.kind == EventKind::kOp) {
      ++ops;
      EXPECT_EQ(s.index % 4, 0u) << "unsampled op leaked into the ring";
      EXPECT_LE(s.t_start, s.t_end);
    } else if (s.kind == EventKind::kPhase) {
      ++phases;
    }
  }
#if EVQ_TRACE
  EXPECT_EQ(ops, 8u);
  EXPECT_EQ(phases, 16u);  // two sub-slices per sampled op
#else
  EXPECT_EQ(ops, 0u);
  EXPECT_EQ(phases, 0u);
#endif
}

TEST_F(TraceTest, SampledOpThatOpensNoPhaseHasADuration) {
  // A fresh SCQ's allocated ring starts with its threshold spent, so an
  // empty pop returns on the threshold fast path before opening any phase.
  // The probe's constructor stamp still gives that op a real duration.
  ScqQueue<int> q(4, "trace-scq-empty-pop");
  auto h = q.handle();
  set_sampling(1);
  EXPECT_EQ(q.try_pop(h), nullptr);
  std::size_t ops = 0;
  for (const SpanSnapshot& s : snapshot_spans()) {
    if (s.kind == EventKind::kOp) {
      ++ops;
      EXPECT_EQ(static_cast<OpOutcome>(s.code), OpOutcome::kPopEmpty);
      EXPECT_GT(s.t_end, s.t_start);
    } else {
      ADD_FAILURE() << "the threshold fast path opens no phase";
    }
  }
#if EVQ_TRACE
  EXPECT_EQ(ops, 1u);
#else
  EXPECT_EQ(ops, 0u);
#endif
}

TEST_F(TraceTest, ReclaimProbeSharesTheSamplingGate) {
  set_sampling(2);
  for (int i = 0; i < 10; ++i) {
    ReclaimProbe probe(kNoQueue, ReclaimKind::kHpScan);
  }
  std::size_t reclaims = 0;
  for (const SpanSnapshot& s : snapshot_spans()) {
    if (s.kind == EventKind::kReclaim) {
      ++reclaims;
      EXPECT_EQ(s.queue_id, kNoQueue);
      EXPECT_EQ(static_cast<ReclaimKind>(s.code), ReclaimKind::kHpScan);
    }
  }
#if EVQ_TRACE
  EXPECT_EQ(reclaims, 5u);
#else
  EXPECT_EQ(reclaims, 0u);
#endif
}

TEST_F(TraceTest, MainRingWrapKeepsNewestWindow) {
  SpanRing& ring = detail::make_ring_for_test();
  const std::uint64_t total = SpanRing::kSpans + 100;
  for (std::uint64_t i = 0; i < total; ++i) {
    ring.record(EventKind::kOp, static_cast<std::uint8_t>(OpOutcome::kPushOk), 1, i, 0, i, i + 1);
  }
  const std::vector<SpanSnapshot> spans = snapshot_spans();
  ASSERT_EQ(spans.size(), SpanRing::kSpans);
  // The surviving window is the newest kSpans records: 100 .. total-1.
  std::uint64_t min_index = ~std::uint64_t{0};
  for (const SpanSnapshot& s : spans) {
    min_index = s.index < min_index ? s.index : min_index;
  }
  EXPECT_EQ(min_index, 100u);
  EXPECT_EQ(spans.back().index, total - 1);
}

TEST_F(TraceTest, HelpAreaWrapsIndependentlyOfMainRing) {
  SpanRing& ring = detail::make_ring_for_test();
  const std::uint64_t helps = SpanRing::kHelpSpans + 7;
  for (std::uint64_t i = 0; i < helps; ++i) {
    ring.record_help(static_cast<std::uint8_t>(HelpTarget::kTail), 1, i,
                     OpProbe::kHelperSide, i, i + 1);
  }
  // Main-ring churn must not evict help records — that is the reason the
  // help area exists (helps are rare; phase spam is not).
  for (std::uint64_t i = 0; i < 2 * SpanRing::kSpans; ++i) {
    ring.record(EventKind::kPhase, static_cast<std::uint8_t>(Phase::kBackoff), 1, 0, 0, i, i);
  }
  std::size_t help_count = 0;
  std::uint64_t min_index = ~std::uint64_t{0};
  for (const SpanSnapshot& s : snapshot_spans()) {
    if (s.kind == EventKind::kHelp) {
      ++help_count;
      min_index = s.index < min_index ? s.index : min_index;
    }
  }
  EXPECT_EQ(help_count, SpanRing::kHelpSpans);
  EXPECT_EQ(min_index, 7u);
}

TEST_F(TraceTest, HelpMarkersAreAlwaysOnWhileSampled) {
  // At 1-in-1000, probe #2 is unsampled — but both help sides must still
  // record instant markers, or the exporter would almost never find a pair.
  set_sampling(1000);
  {
    OpProbe armed(3);
    armed.finish(OpOutcome::kPushOk, 0, 0);
  }
  {
    OpProbe unsampled(3);
    unsampled.help_advance(41, HelpTarget::kTail);
    unsampled.helped(42, HelpTarget::kTail);
    unsampled.finish(OpOutcome::kPushOk, 1, 0);
  }
  bool saw_helper = false;
  bool saw_helped = false;
  for (const SpanSnapshot& s : snapshot_spans()) {
    if (s.kind != EventKind::kHelp) {
      continue;
    }
    if (s.extra == OpProbe::kHelperSide && s.index == 41) {
      saw_helper = true;
      EXPECT_EQ(s.t_start, s.t_end);  // instant: no span was open
    }
    if (s.extra == OpProbe::kHelpedSide && s.index == 42) {
      saw_helped = true;
    }
  }
#if EVQ_TRACE
  EXPECT_TRUE(saw_helper);
  EXPECT_TRUE(saw_helped);
#else
  EXPECT_FALSE(saw_helper);
  EXPECT_FALSE(saw_helped);
#endif
}

TEST_F(TraceTest, EmptyExportIsValidJson) {
  std::ostringstream os;
  export_chrome_trace(os);
  EXPECT_EQ(os.str(), "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n]}\n");
}

// Fabricates the same two-thread scene the exporter comment describes:
// thread 0 pushes (with phase sub-slices), help-advances index 9 and scans;
// thread 1 left the always-on helped marker for index 9 and pops. Fixed
// ns_per_tick and origin make the output byte-stable.
std::string fabricated_two_thread_trace(std::uint32_t queue_id) {
  SpanRing& a = detail::make_ring_for_test();  // ordinal 0
  SpanRing& b = detail::make_ring_for_test();  // ordinal 1
  a.record(EventKind::kPhase, static_cast<std::uint8_t>(Phase::kIndexLoad), queue_id, 0, 0,
           1000, 1200);
  a.record(EventKind::kPhase, static_cast<std::uint8_t>(Phase::kSlotAttempt), queue_id, 0, 0,
           1200, 1900);
  a.record(EventKind::kOp, static_cast<std::uint8_t>(OpOutcome::kPushOk), queue_id, 7, 1, 1000,
           2000);
  a.record(EventKind::kReclaim, static_cast<std::uint8_t>(ReclaimKind::kHpScan), kNoQueue, 0,
           0, 2100, 2600);
  a.record_help(static_cast<std::uint8_t>(HelpTarget::kTail), queue_id, 9,
                OpProbe::kHelperSide, 2200, 2500);
  b.record(EventKind::kOp, static_cast<std::uint8_t>(OpOutcome::kPopOk), queue_id, 7, 0, 3000,
           3300);
  b.record_help(static_cast<std::uint8_t>(HelpTarget::kTail), queue_id, 9,
                OpProbe::kHelpedSide, 2550, 2550);

  ExportOptions opts;
  opts.ns_per_tick = 1000.0;  // 1 tick == 1 us: human-checkable golden values
  opts.origin = 1000;
  std::ostringstream os;
  export_chrome_trace(os, opts);
  return os.str();
}

TEST_F(TraceTest, GoldenChromeTrace) {
  telemetry::ScopedQueueMetrics tm("fifo-golden");
  const std::string doc = fabricated_two_thread_trace(tm.queue_id());

  const std::string golden_path =
      std::string(EVQ_TEST_GOLDEN_DIR) + "/trace_chrome_v1.json";
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
      << "Chrome Trace Format output drifted. If intentional, regenerate with "
         "EVQ_REGEN_GOLDEN=1 and mention the change in DESIGN.md §11.";
}

// The SCQ-generation scene: an FAA-reserve sub-slice instead of an
// index-load/CAS pair, a slot_skip sub-slice where the dequeuer bumped a
// stale-cycle entry, and a tail catch-up help pair (the cautious dequeue is
// the helper; the always-on helped marker sits on the other thread).
std::string fabricated_scq_trace(std::uint32_t queue_id) {
  SpanRing& a = detail::make_ring_for_test();  // ordinal 0
  SpanRing& b = detail::make_ring_for_test();  // ordinal 1
  a.record(EventKind::kPhase, static_cast<std::uint8_t>(Phase::kFaaReserve), queue_id, 0, 0,
           1000, 1150);
  a.record(EventKind::kPhase, static_cast<std::uint8_t>(Phase::kSlotSkip), queue_id, 0, 0,
           1150, 1400);
  a.record(EventKind::kPhase, static_cast<std::uint8_t>(Phase::kFaaReserve), queue_id, 0, 0,
           1400, 1550);
  a.record(EventKind::kPhase, static_cast<std::uint8_t>(Phase::kSlotAttempt), queue_id, 0, 0,
           1550, 1900);
  a.record(EventKind::kOp, static_cast<std::uint8_t>(OpOutcome::kPopOk), queue_id, 13, 1, 1000,
           2000);
  a.record_help(static_cast<std::uint8_t>(HelpTarget::kTail), queue_id, 14,
                OpProbe::kHelperSide, 1300, 1380);
  b.record(EventKind::kOp, static_cast<std::uint8_t>(OpOutcome::kPushOk), queue_id, 14, 0, 2100,
           2400);
  b.record_help(static_cast<std::uint8_t>(HelpTarget::kTail), queue_id, 14,
                OpProbe::kHelpedSide, 1390, 1390);

  ExportOptions opts;
  opts.ns_per_tick = 1000.0;
  opts.origin = 1000;
  std::ostringstream os;
  export_chrome_trace(os, opts);
  return os.str();
}

TEST_F(TraceTest, GoldenChromeTraceScq) {
  telemetry::ScopedQueueMetrics tm("scq-golden");
  const std::string doc = fabricated_scq_trace(tm.queue_id());

  // The SCQ phases must render as their own named slices, not fall back to
  // "unknown" — this is what trace_report.py and the Perfetto UI key on.
  EXPECT_EQ(count_of(doc, "\"name\":\"faa_reserve\""), 2u);
  EXPECT_EQ(count_of(doc, "\"name\":\"slot_skip\""), 1u);
  EXPECT_EQ(count_of(doc, "\"ph\":\"s\""), 1u) << "catch-up must pair into a flow arrow";

  const std::string golden_path =
      std::string(EVQ_TEST_GOLDEN_DIR) + "/trace_chrome_scq_v1.json";
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
      << "Chrome Trace Format output drifted for SCQ spans. If intentional, "
         "regenerate with EVQ_REGEN_GOLDEN=1 and mention the change in DESIGN.md §12.";
}

TEST_F(TraceTest, HelperHelpedPairBecomesFlowArrow) {
  telemetry::ScopedQueueMetrics tm("fifo-flow");
  const std::string doc = fabricated_two_thread_trace(tm.queue_id());
  // One flow start on the helper's track, one flow finish on the helped's.
  EXPECT_EQ(count_of(doc, "\"ph\":\"s\""), 1u);
  EXPECT_EQ(count_of(doc, "\"ph\":\"f\""), 1u);
  EXPECT_NE(doc.find("\"ph\":\"f\",\"bp\":\"e\",\"name\":\"help\",\"cat\":\"help\","
                     "\"id\":1,\"pid\":0,\"tid\":1"),
            std::string::npos)
      << "flow must finish on the helped thread's track:\n"
      << doc;
  // The helped marker itself renders as its own slice, named distinctly.
  EXPECT_EQ(count_of(doc, "\"name\":\"helped\""), 1u);
  EXPECT_EQ(count_of(doc, "\"name\":\"help_advance\""), 1u);
}

TEST_F(TraceTest, SameThreadHelpPairDrawsNoFlow) {
  // A weak-LLSC spurious SC failure records a helped marker on the SAME
  // thread that later help-advances the same index; a self-arrow would be
  // noise, so the exporter suppresses same-ordinal pairs.
  SpanRing& a = detail::make_ring_for_test();
  a.record_help(static_cast<std::uint8_t>(HelpTarget::kHead), 5, 11, OpProbe::kHelpedSide,
                100, 100);
  a.record_help(static_cast<std::uint8_t>(HelpTarget::kHead), 5, 11, OpProbe::kHelperSide,
                150, 180);
  std::ostringstream os;
  export_chrome_trace(os);
  EXPECT_EQ(count_of(os.str(), "\"ph\":\"s\""), 0u);
  EXPECT_EQ(count_of(os.str(), "\"ph\":\"f\""), 0u);
}

TEST_F(TraceTest, HelpRecordsSurviveMainRingChurn) {
  // End-to-end version of HelpAreaWrapsIndependentlyOfMainRing: even after
  // the main ring wrapped many times, the export still pairs the old help.
  SpanRing& a = detail::make_ring_for_test();
  SpanRing& b = detail::make_ring_for_test();
  a.record_help(static_cast<std::uint8_t>(HelpTarget::kTail), 5, 21, OpProbe::kHelperSide,
                100, 130);
  b.record_help(static_cast<std::uint8_t>(HelpTarget::kTail), 5, 21, OpProbe::kHelpedSide,
                140, 140);
  for (std::uint64_t i = 0; i < 3 * SpanRing::kSpans; ++i) {
    a.record(EventKind::kPhase, static_cast<std::uint8_t>(Phase::kBackoff), 5, 0, 0,
             200 + i, 201 + i);
  }
  std::ostringstream os;
  export_chrome_trace(os);
  EXPECT_EQ(count_of(os.str(), "\"name\":\"help_advance\""), 1u);
  EXPECT_EQ(count_of(os.str(), "\"ph\":\"s\""), 1u);
}

TEST_F(TraceTest, ExportRacesWithWritersSafely) {
  // TSan teeth: four threads hammer probes (including both help sides) while
  // this thread exports repeatedly. No value assertions beyond well-formed
  // output — the point is that racy-but-atomic ring reads stay race-free.
  set_sampling(1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        OpProbe probe(2);
        probe.begin_phase(Phase::kIndexLoad);
        probe.begin_phase(Phase::kSlotAttempt);
        if (i % 17 == 0) {
          probe.begin_phase(Phase::kHelpAdvance);
          probe.help_advance(i, HelpTarget::kTail);
        }
        if (i % 19 == 0) {
          probe.helped(i, HelpTarget::kHead);
        }
        probe.finish(i % 2 == 0 ? OpOutcome::kPushOk : OpOutcome::kPopOk, i, 0);
        ++i;
      }
    });
  }
  std::string last;
  for (int round = 0; round < 10; ++round) {
    std::ostringstream os;
    export_chrome_trace(os);
    last = os.str();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) {
    w.join();
  }
  EXPECT_EQ(last.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0), 0u);
  ASSERT_GE(last.size(), 3u);
  EXPECT_EQ(last.substr(last.size() - 3), "]}\n");
}

}  // namespace
}  // namespace evq::trace
