// Tests for the Wing–Gong-style exhaustive linearizability checker, plus
// end-to-end checks of recorded histories from the real queues.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <thread>
#include <vector>

#include "evq/core/cas_array_queue.hpp"
#include "evq/core/combining_queue.hpp"
#include "evq/core/llsc_array_queue.hpp"
#include "evq/core/scq_queue.hpp"
#include "evq/core/segmented_queue.hpp"
#include "evq/llsc/packed_llsc.hpp"
#include "evq/verify/history.hpp"
#include "evq/verify/lin_check.hpp"

namespace {

using namespace evq;
using namespace evq::verify;

Operation push_op(std::uint64_t v, bool ok, std::uint64_t inv, std::uint64_t resp,
                  std::uint32_t thread = 0) {
  return Operation{OpKind::kPush, v, 0, ok, inv, resp, thread};
}

Operation pop_op(std::uint64_t result, std::uint64_t inv, std::uint64_t resp,
                 std::uint32_t thread = 0) {
  return Operation{OpKind::kPop, 0, result, true, inv, resp, thread};
}

/// Sub-op of a try_push_n batch: shares the call window, ordered by rank.
Operation batch_push_op(std::uint64_t v, bool ok, std::uint64_t inv, std::uint64_t resp,
                        std::uint32_t thread, std::uint64_t batch, std::uint32_t rank) {
  return Operation{OpKind::kPush, v, 0, ok, inv, resp, thread, batch, rank};
}

/// Sub-op of a try_pop_n batch.
Operation batch_pop_op(std::uint64_t result, std::uint64_t inv, std::uint64_t resp,
                       std::uint32_t thread, std::uint64_t batch, std::uint32_t rank) {
  return Operation{OpKind::kPop, 0, result, true, inv, resp, thread, batch, rank};
}

// ---------------------------------------------------------------------------
// Sequential histories (precedence fully ordered)
// ---------------------------------------------------------------------------

TEST(LinCheck, AcceptsSequentialFifo) {
  LinearizabilityChecker chk(0);
  EXPECT_TRUE(chk.check({push_op(1, true, 0, 1), push_op(2, true, 2, 3), pop_op(1, 4, 5),
                         pop_op(2, 6, 7)}));
}

TEST(LinCheck, RejectsLifoOrder) {
  LinearizabilityChecker chk(0);
  EXPECT_FALSE(chk.check({push_op(1, true, 0, 1), push_op(2, true, 2, 3), pop_op(2, 4, 5),
                          pop_op(1, 6, 7)}));
}

TEST(LinCheck, RejectsPopOfNeverPushedValue) {
  LinearizabilityChecker chk(0);
  EXPECT_FALSE(chk.check({push_op(1, true, 0, 1), pop_op(9, 2, 3)}));
}

TEST(LinCheck, AcceptsEmptyPopBeforeAnyPush) {
  LinearizabilityChecker chk(0);
  EXPECT_TRUE(chk.check({pop_op(0, 0, 1), push_op(1, true, 2, 3), pop_op(1, 4, 5)}));
}

TEST(LinCheck, RejectsEmptyPopWhileItemQueued) {
  LinearizabilityChecker chk(0);
  EXPECT_FALSE(chk.check({push_op(1, true, 0, 1), pop_op(0, 2, 3)}));
}

TEST(LinCheck, RejectsDoublePop) {
  LinearizabilityChecker chk(0);
  EXPECT_FALSE(chk.check({push_op(1, true, 0, 1), pop_op(1, 2, 3), pop_op(1, 4, 5)}));
}

// ---------------------------------------------------------------------------
// Bounded-queue semantics
// ---------------------------------------------------------------------------

TEST(LinCheck, AcceptsLegitimateFullReport) {
  LinearizabilityChecker chk(1);
  EXPECT_TRUE(chk.check({push_op(1, true, 0, 1), push_op(2, false, 2, 3), pop_op(1, 4, 5)}));
}

TEST(LinCheck, RejectsBogusFullReport) {
  LinearizabilityChecker chk(2);  // capacity 2, only one item in
  EXPECT_FALSE(chk.check({push_op(1, true, 0, 1), push_op(2, false, 2, 3)}));
}

TEST(LinCheck, RejectsPushBeyondCapacity) {
  LinearizabilityChecker chk(1);
  EXPECT_FALSE(chk.check({push_op(1, true, 0, 1), push_op(2, true, 2, 3)}));
}

// ---------------------------------------------------------------------------
// Concurrent (overlapping) histories
// ---------------------------------------------------------------------------

TEST(LinCheck, OverlappingOpsMayReorder) {
  // push(1) and push(2) overlap; pop sees 2 first — legal, because the
  // pushes may linearize in either order.
  LinearizabilityChecker chk(0);
  EXPECT_TRUE(chk.check({push_op(1, true, 0, 10, 0), push_op(2, true, 1, 9, 1),
                         pop_op(2, 11, 12), pop_op(1, 13, 14)}));
}

TEST(LinCheck, NonOverlappingOpsMayNot) {
  // push(1) completes strictly before push(2) begins; pop order 2,1 is a
  // genuine FIFO violation.
  LinearizabilityChecker chk(0);
  EXPECT_FALSE(chk.check({push_op(1, true, 0, 1, 0), push_op(2, true, 2, 3, 1),
                          pop_op(2, 4, 5), pop_op(1, 6, 7)}));
}

TEST(LinCheck, PopOverlappingPushMaySeeIt) {
  // pop overlaps the only push: both pop()=v and pop()=empty are legal.
  LinearizabilityChecker chk(0);
  EXPECT_TRUE(chk.check({push_op(5, true, 0, 10), pop_op(5, 1, 9, 1)}));
  EXPECT_TRUE(chk.check({push_op(5, true, 0, 10), pop_op(0, 1, 9, 1)}));
}

TEST(LinCheck, EmptyPopAfterCompletedPushIsIllegal) {
  LinearizabilityChecker chk(0);
  EXPECT_FALSE(chk.check({push_op(5, true, 0, 1), pop_op(0, 2, 3, 1)}));
}

TEST(LinCheck, ThreeThreadInterleavingSearchesAllOrders) {
  // pushes of 1,2,3 all overlap; the pops (sequential afterwards) may report
  // any permutation order — every one must be accepted.
  LinearizabilityChecker chk(0);
  for (std::uint64_t a = 1; a <= 3; ++a) {
    for (std::uint64_t b = 1; b <= 3; ++b) {
      for (std::uint64_t c = 1; c <= 3; ++c) {
        if (a == b || b == c || a == c) {
          continue;
        }
        EXPECT_TRUE(chk.check({push_op(1, true, 0, 10, 0), push_op(2, true, 1, 11, 1),
                               push_op(3, true, 2, 12, 2), pop_op(a, 20, 21), pop_op(b, 22, 23),
                               pop_op(c, 24, 25)}))
            << a << b << c;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batch operations (try_push_n / try_pop_n histories)
// ---------------------------------------------------------------------------

TEST(LinCheck, BatchPushSubOpsKeepArgumentOrder) {
  // One try_push_n(1,2): pops must observe 1 before 2 even though the two
  // sub-ops share a window (which, without the batch constraint, would let
  // them linearize in either order).
  LinearizabilityChecker chk(0);
  EXPECT_TRUE(chk.check({batch_push_op(1, true, 0, 1, 0, 7, 0), batch_push_op(2, true, 0, 1, 0, 7, 1),
                         pop_op(1, 2, 3), pop_op(2, 4, 5)}));
  EXPECT_FALSE(chk.check({batch_push_op(1, true, 0, 1, 0, 7, 0),
                          batch_push_op(2, true, 0, 1, 0, 7, 1), pop_op(2, 2, 3),
                          pop_op(1, 4, 5)}));
}

TEST(LinCheck, BatchPopSubOpsKeepReturnOrder) {
  LinearizabilityChecker chk(0);
  EXPECT_TRUE(chk.check({push_op(1, true, 0, 1), push_op(2, true, 2, 3),
                         batch_pop_op(1, 4, 5, 0, 9, 0), batch_pop_op(2, 4, 5, 0, 9, 1)}));
  // A pop_n that CLAIMS it returned (2,1) is a FIFO violation.
  EXPECT_FALSE(chk.check({push_op(1, true, 0, 1), push_op(2, true, 2, 3),
                          batch_pop_op(2, 4, 5, 0, 9, 0), batch_pop_op(1, 4, 5, 0, 9, 1)}));
}

TEST(LinCheck, ConcurrentOpMayInterleaveInsideBatchWindow) {
  // push(3) from another thread overlaps the try_push_n(1,2) window: pops of
  // 1,3,2 are legal (3 linearized between the batch's sub-ops). This is the
  // case the shared-window encoding exists for — carving the window into
  // per-sub-op sub-intervals would wrongly reject it.
  LinearizabilityChecker chk(0);
  EXPECT_TRUE(chk.check({batch_push_op(1, true, 0, 10, 0, 7, 0),
                         batch_push_op(2, true, 0, 10, 0, 7, 1), push_op(3, true, 1, 9, 1),
                         pop_op(1, 11, 12), pop_op(3, 13, 14), pop_op(2, 15, 16)}));
}

TEST(LinCheck, BatchShortPushBoundaryIsOneFullReport) {
  // Capacity 2: try_push_n(1,2,3) lands 2 and reports full on the third —
  // legal. Claiming full after landing only ONE item is not (the queue had
  // room).
  LinearizabilityChecker chk(2);
  EXPECT_TRUE(chk.check({batch_push_op(1, true, 0, 1, 0, 7, 0),
                         batch_push_op(2, true, 0, 1, 0, 7, 1),
                         batch_push_op(3, false, 0, 1, 0, 7, 2)}));
  EXPECT_FALSE(chk.check({batch_push_op(1, true, 0, 1, 0, 7, 0),
                          batch_push_op(3, false, 0, 1, 0, 7, 1)}));
}

TEST(LinCheck, BatchShortPopBoundaryIsOneEmptyReport) {
  // try_pop_n(3) against a single queued item: one pop()=v plus one
  // pop()=empty — legal. An empty report while an item remains queued is not.
  LinearizabilityChecker chk(0);
  EXPECT_TRUE(chk.check({push_op(1, true, 0, 1), batch_pop_op(1, 2, 3, 0, 9, 0),
                         batch_pop_op(0, 2, 3, 0, 9, 1)}));
  EXPECT_FALSE(chk.check({push_op(1, true, 0, 1), push_op(2, true, 10, 11),
                          batch_pop_op(1, 12, 13, 0, 9, 0), batch_pop_op(0, 12, 13, 0, 9, 1)}));
}

TEST(LinCheck, RecorderBatchEndsShareWindowAndBatchId) {
  HistoryRecorder recorder(1, 8);
  const std::uint64_t values[3] = {1, 2, 3};
  const std::uint64_t inv = recorder.begin();
  recorder.end_push_n(0, inv, values, 3, 2);  // attempted 3, landed 2
  History h = recorder.collect();
  ASSERT_EQ(h.size(), 3u);  // two ok pushes + one boundary full
  EXPECT_TRUE(h[0].ok);
  EXPECT_TRUE(h[1].ok);
  EXPECT_FALSE(h[2].ok);
  EXPECT_EQ(h[2].arg, 3u);
  for (const Operation& op : h) {
    EXPECT_EQ(op.invoke, h[0].invoke);
    EXPECT_EQ(op.response, h[0].response);
    EXPECT_EQ(op.batch, h[0].batch);
    EXPECT_NE(op.batch, 0u);
  }
  EXPECT_EQ(h[0].batch_rank, 0u);
  EXPECT_EQ(h[1].batch_rank, 1u);
  EXPECT_EQ(h[2].batch_rank, 2u);
}

// ---------------------------------------------------------------------------
// Recorded histories from the real queues
// ---------------------------------------------------------------------------

/// Twenty rounds of three threads that each push a value and pop once,
/// three times, on a fresh `Q(args...)`; every recorded history must
/// linearize. Each push uses a distinct arena cell, so pointer identity <->
/// value identity and the model applies exactly. An unbounded queue is
/// checked with capacity 0 (a push may never legally report full).
template <typename Q, typename... Args>
void expect_recorded_histories_linearizable(const Args&... args) {
  constexpr std::uint32_t kThreads = 3;
  constexpr int kPushesPerThread = 3;
  for (int round = 0; round < 20; ++round) {
    std::uint64_t arena[kThreads * kPushesPerThread + 1];
    for (std::uint64_t i = 1; i <= kThreads * kPushesPerThread; ++i) {
      arena[i] = i;
    }
    Q queue(args...);
    HistoryRecorder recorder(kThreads, 2 * kPushesPerThread);
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto h = queue.handle();
        for (int i = 0; i < kPushesPerThread; ++i) {
          const std::uint64_t value = t * kPushesPerThread + i + 1;
          const std::uint64_t inv = recorder.begin();
          const bool ok = queue.try_push(h, &arena[value]);
          recorder.end_push(t, inv, value, ok);
          const std::uint64_t inv2 = recorder.begin();
          std::uint64_t* out = queue.try_pop(h);
          recorder.end_pop(t, inv2, out == nullptr ? 0 : *out);
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    std::size_t capacity = 0;
    if constexpr (BoundedPtrQueue<Q>) {
      capacity = queue.capacity();
    }
    LinearizabilityChecker chk(capacity);
    EXPECT_TRUE(chk.check(recorder.collect())) << "round " << round;
  }
}

// Capacity 2: full is reachable in every round.
TEST(LinCheck, RecordedCasQueueHistoriesAreLinearizable) {
  expect_recorded_histories_linearizable<CasArrayQueue<std::uint64_t>>(std::size_t{2});
}

TEST(LinCheck, RecordedLlscQueueHistoriesAreLinearizable) {
  expect_recorded_histories_linearizable<LlscArrayQueue<std::uint64_t>>(std::size_t{2});
}

// The FAA-generation queue: full/empty reports come off the threshold and
// free-index machinery rather than an index comparison, so the recorded
// histories are the direct evidence those reports linearize.
TEST(LinCheck, RecordedScqQueueHistoriesAreLinearizable) {
  expect_recorded_histories_linearizable<ScqQueue<std::uint64_t>>(std::size_t{2});
}

// The segmented composition: segment capacity 2 forces seal/append/retire
// transitions inside nearly every round, so the recorded histories cover the
// cross-segment handoff.
TEST(LinCheck, RecordedSegmentedQueueHistoriesAreLinearizable) {
  expect_recorded_histories_linearizable<SegmentedQueue<ScqQueue<std::uint64_t>>>(
      std::size_t{2}, std::string_view{"lin-seg-scq"});
}

// The combining facade: three threads hammering a capacity-2 inner ring keep
// the combiner lock contended, so the recorded histories exercise announced
// ops completed by PEER combiners — the cross-thread helping whose
// linearizability this checker exists to certify.
TEST(LinCheck, RecordedCombiningQueueHistoriesAreLinearizable) {
  expect_recorded_histories_linearizable<CombiningQueue<CasArrayQueue<std::uint64_t>>>(
      std::size_t{2}, std::string_view{"lin-comb-cas"});
}

// The same helping over Algorithm 1's LL/SC ring: the facade is generic over
// its ring, and peer combiners here apply ops through LL/SC reservations.
TEST(LinCheck, RecordedCombiningLlscQueueHistoriesAreLinearizable) {
  expect_recorded_histories_linearizable<
      CombiningQueue<LlscArrayQueue<std::uint64_t, llsc::PackedLlsc>>>(
      std::size_t{2}, std::string_view{"lin-comb-llsc"});
}

// Batch histories from a real queue: concurrent try_push_n / try_pop_n calls
// recorded through end_push_n/end_pop_n and certified by the batch-aware
// checker — the end-to-end path the combiner's batch application relies on.
TEST(LinCheck, BatchRecordedCombiningQueueHistoriesAreLinearizable) {
  constexpr std::uint32_t kThreads = 3;
  constexpr int kBatchesPerThread = 2;
  constexpr std::size_t kBatch = 2;
  for (int round = 0; round < 20; ++round) {
    CombiningQueue<CasArrayQueue<std::uint64_t>> queue(4, "lin-comb-cas");
    static std::uint64_t arena[kThreads * kBatchesPerThread * kBatch + 1];
    for (std::uint64_t i = 1; i <= kThreads * kBatchesPerThread * kBatch; ++i) {
      arena[i] = i;
    }
    HistoryRecorder recorder(kThreads, 4 * kBatchesPerThread * kBatch);
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto h = queue.handle();
        for (int i = 0; i < kBatchesPerThread; ++i) {
          std::uint64_t values[kBatch];
          std::uint64_t* nodes[kBatch];
          for (std::size_t k = 0; k < kBatch; ++k) {
            values[k] = (t * kBatchesPerThread + i) * kBatch + k + 1;
            nodes[k] = &arena[values[k]];
          }
          const std::uint64_t inv = recorder.begin();
          const std::size_t landed = queue.try_push_n(h, nodes, kBatch);
          recorder.end_push_n(t, inv, values, kBatch, landed);
          std::uint64_t* out[kBatch] = {};
          const std::uint64_t inv2 = recorder.begin();
          const std::size_t got = queue.try_pop_n(h, out, kBatch);
          std::uint64_t results[kBatch] = {};
          for (std::size_t k = 0; k < got; ++k) {
            results[k] = *out[k];
          }
          recorder.end_pop_n(t, inv2, results, got, kBatch);
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    LinearizabilityChecker chk(queue.capacity());
    EXPECT_TRUE(chk.check(recorder.collect())) << "round " << round;
  }
}

}  // namespace
