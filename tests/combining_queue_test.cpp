// Tests for the flat-combining facade (core/combining_queue.hpp,
// DESIGN.md §14): FIFO behaviour through the adaptive direct/announce
// routing, batch maximal-prefix semantics, shared announce-slot fallback,
// the deterministic solo-streak decay back to direct mode, the combining
// telemetry counters, and a concurrent conservation stress that drives the
// announce/combine/withdraw paths for the sanitizer builds.
//
// The adaptive engagement heuristic is performance-only (both routes are
// linearizable — the linearizability and fuzz-differential suites check
// that); what is pinned here is the deterministic part of its contract:
// a fresh queue starts direct, every kProbeEvery-th op probes the announce
// path, and kSoloStreakLimit solo combining passes always return the queue
// to direct mode.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "evq/core/cas_array_queue.hpp"
#include "evq/core/combining_queue.hpp"
#include "evq/telemetry/metrics.hpp"

namespace {

using namespace evq;

using CombCas = CombiningQueue<CasArrayQueue<std::uint64_t>>;

TEST(CombiningQueue, SingleThreadFifoAcrossProbeBoundary) {
  // More ops than kProbeEvery so at least one op per handle takes the
  // announce path (self-combines) — FIFO order must survive the route
  // change invisibly.
  CombCas q(8, "comb-unit-fifo");
  auto h = q.handle();
  std::vector<std::uint64_t> vals(CombCas::kProbeEvery * 3);
  std::size_t next_push = 0, next_pop = 0;
  while (next_pop < vals.size()) {
    for (int i = 0; i < 4 && next_push < vals.size(); ++i) {
      vals[next_push] = next_push;
      ASSERT_TRUE(q.try_push(h, &vals[next_push]));
      ++next_push;
    }
    for (int i = 0; i < 4 && next_pop < next_push; ++i) {
      std::uint64_t* got = q.try_pop(h);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, next_pop) << "FIFO order broken at op " << next_pop;
      ++next_pop;
    }
  }
  EXPECT_EQ(q.try_pop(h), nullptr);
  EXPECT_EQ(q.size_estimate(), 0u);
}

TEST(CombiningQueue, CapacityComesFromTheInnerRing) {
  CombCas q(5, "comb-unit-capacity");  // rounds up to 8 inside the ring
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_EQ(q.capacity(), q.underlying().capacity());
}

TEST(CombiningQueue, BatchOpsKeepMaximalPrefixSemantics) {
  CombCas q(4, "comb-unit-batch");
  auto h = q.handle();
  std::uint64_t vals[6] = {0, 1, 2, 3, 4, 5};
  std::uint64_t* nodes[6];
  for (int i = 0; i < 6; ++i) {
    nodes[i] = &vals[i];
  }
  // Push 6 into a capacity-4 ring: exactly the first 4 land, in order.
  EXPECT_EQ(q.try_push_n(h, nodes, 6), 4u);
  EXPECT_EQ(q.size_estimate(), 4u);
  // Pop 6 from 4 items: exactly 4 come back, FIFO.
  std::uint64_t* out[6] = {};
  EXPECT_EQ(q.try_pop_n(h, out, 6), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(*out[i], i);
  }
  EXPECT_EQ(q.try_pop_n(h, out, 6), 0u);
}

TEST(CombiningQueue, ManyHandlesShareAnnounceRecordsSafely) {
  // More handles than announce records: slots >= kExclusiveRecords share the
  // upper record range round-robin and claim by CAS on their probe ops.
  // Drive each handle across its probe boundary so the shared-claim path
  // actually runs.
  CombCas q(64, "comb-unit-shared");
  std::vector<CombCas::Handle> handles;
  for (std::size_t i = 0; i < CombCas::kRecordCount + 4; ++i) {
    handles.push_back(q.handle());
  }
  std::uint64_t v = 0;
  for (auto& h : handles) {
    for (std::uint32_t i = 0; i < CombCas::kProbeEvery + 4; ++i) {
      v = i;
      ASSERT_TRUE(q.try_push(h, &v));
      std::uint64_t* got = q.try_pop(h);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got, &v) << "single-item queue must round-trip the same node";
    }
  }
  EXPECT_EQ(q.size_estimate(), 0u);
}

TEST(CombiningQueue, ExclusiveAndSharedSlotsNeverShareARecord) {
  // The partition that makes the two claiming disciplines safe: exclusive
  // handles (slot < kExclusiveRecords) publish with a plain store and must
  // never land on a record a CAS-claiming shared handle can touch.
  CombCas q(64, "comb-unit-partition");
  static_assert(CombCas::kExclusiveRecords + CombCas::kSharedRecords ==
                CombCas::kRecordCount);
  static_assert(CombCas::kSharedRecords > 0,
                "handles past the exclusive range need records to share");
  std::vector<CombCas::Handle> handles;
  for (std::size_t i = 0; i < CombCas::kRecordCount * 3; ++i) {
    handles.push_back(q.handle());  // slots 0..47: both disciplines, wrapped
  }
  // Every op must still round-trip regardless of which range its slot maps
  // to (the mapping itself is private; its safety shows up as conservation
  // here and under the concurrent stress below).
  std::uint64_t v = 0;
  for (auto& h : handles) {
    ASSERT_TRUE(q.try_push(h, &v));
    ASSERT_EQ(q.try_pop(h), &v);
  }
  EXPECT_EQ(q.size_estimate(), 0u);
}

TEST(CombiningQueue, ConcurrentStressMoreThreadsThanRecordsConservesEveryItem) {
  // The regression test for the exclusive/shared announce race: more
  // threads than announce records, so exclusive-slot handles (plain-store
  // publish) and shared-slot handles (CAS claim) run concurrently. Before
  // the record-array partition, a sharer could claim the record an
  // exclusive owner was publishing to with a plain store; the combiner then
  // served ONE op and both waiters took the done word as their own result —
  // a lost push or a node returned twice, which the conservation check
  // below catches. kThreads > kRecordCount guarantees shared slots exist.
  constexpr std::size_t kThreads = CombCas::kRecordCount + 4;
  constexpr std::size_t kPerThread = 600;
  CombCas q(256, "comb-unit-stress-shared");
  std::vector<std::uint64_t> tokens(kThreads * kPerThread);
  std::vector<std::atomic<std::uint32_t>> popped(tokens.size());
  for (auto& p : popped) {
    p.store(0, std::memory_order_relaxed);
  }
  std::atomic<std::size_t> total_popped{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto h = q.handle();
      std::size_t mine_pushed = 0;
      std::size_t drained = 0;
      while (mine_pushed < kPerThread || drained < 64) {
        if (mine_pushed < kPerThread) {
          const std::size_t idx = t * kPerThread + mine_pushed;
          tokens[idx] = idx;
          if (q.try_push(h, &tokens[idx])) {
            ++mine_pushed;
          }
        } else {
          ++drained;
        }
        std::uint64_t* got = q.try_pop(h);
        if (got != nullptr) {
          popped[*got].fetch_add(1, std::memory_order_relaxed);
          total_popped.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  auto h = q.handle();
  while (std::uint64_t* got = q.try_pop(h)) {
    popped[*got].fetch_add(1, std::memory_order_relaxed);
    total_popped.fetch_add(1, std::memory_order_relaxed);
  }
  EXPECT_EQ(total_popped.load(), tokens.size());
  for (std::size_t i = 0; i < popped.size(); ++i) {
    EXPECT_EQ(popped[i].load(), 1u) << "token " << i << " lost or duplicated";
  }
}

TEST(CombiningQueue, StartsInDirectModeAndSoloOpsKeepItThere) {
  CombCas q(8, "comb-unit-direct");
  EXPECT_FALSE(q.combining_mode());
  auto h = q.handle();
  std::uint64_t v = 1;
  for (std::uint32_t i = 0; i < CombCas::kProbeEvery * 2; ++i) {
    ASSERT_TRUE(q.try_push(h, &v));
    ASSERT_EQ(q.try_pop(h), &v);
  }
  // A solo thread never observes contention: probes self-combine and the
  // mode stays (or re-settles) direct.
  EXPECT_FALSE(q.combining_mode());
}

TEST(CombiningQueue, SoloStreakDecaysCombiningModeDeterministically) {
  // Whatever state the mode flag is in, kSoloStreakLimit uncontended
  // combining passes flip it back to direct: in combining mode every op
  // announces, the solo owner always wins the lock, and each self-only
  // pass bumps the streak. Run well past the limit and require direct.
  CombCas q(8, "comb-unit-decay");
  auto h = q.handle();
  std::uint64_t v = 1;
  for (std::uint32_t i = 0; i < CombCas::kSoloStreakLimit * 3; ++i) {
    ASSERT_TRUE(q.try_push(h, &v));
    ASSERT_EQ(q.try_pop(h), &v);
  }
  EXPECT_FALSE(q.combining_mode());
}

TEST(CombiningQueue, ProbesCountInCombiningTelemetry) {
#if !EVQ_TELEMETRY
  GTEST_SKIP() << "counter values compiled out with EVQ_TELEMETRY=0";
#else
  // Deltas, not absolute counts: a queue re-created under the same name
  // (--gtest_repeat) reattaches to the counters its predecessor left.
  CombCas q(8, "comb-unit-telemetry");
  const telemetry::CounterSnapshot comb_before = q.metrics().snapshot();
  const telemetry::CounterSnapshot ring_before = q.underlying().metrics().snapshot();
  auto h = q.handle();
  std::uint64_t v = 1;
  for (std::uint32_t i = 0; i < CombCas::kProbeEvery * 2; ++i) {
    ASSERT_TRUE(q.try_push(h, &v));
    ASSERT_EQ(q.try_pop(h), &v);
  }
  const telemetry::CounterSnapshot snap =
      telemetry::counter_delta(comb_before, q.metrics().snapshot());
  // 4 * kProbeEvery ops in direct mode -> at least a couple of probes, each
  // an announce-path submit that self-combines exactly one op.
  EXPECT_GE(snap[telemetry::Counter::kCombSubmit], 2u);
  EXPECT_GE(snap[telemetry::Counter::kCombCombine], 2u);
  EXPECT_GE(snap[telemetry::Counter::kCombBatchN], snap[telemetry::Counter::kCombCombine])
      << "every combining pass applies at least its own op";
  // The inner ring saw every op (direct and combined alike).
  const telemetry::CounterSnapshot ring =
      telemetry::counter_delta(ring_before, q.underlying().metrics().snapshot());
  EXPECT_EQ(ring[telemetry::Counter::kPushOk], CombCas::kProbeEvery * 2);
  EXPECT_EQ(ring[telemetry::Counter::kPopOk], CombCas::kProbeEvery * 2);
#endif
}

TEST(CombiningQueue, ConcurrentStressConservesEveryItem) {
  // 4 producers/consumers hammer one facade; afterwards every pushed token
  // must have been popped exactly once. Exercises announce, combine,
  // shared-slot fallback and withdraw under the sanitizer builds.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 2000;
  CombCas q(64, "comb-unit-stress");
  std::vector<std::uint64_t> tokens(kThreads * kPerThread);
  std::vector<std::atomic<std::uint32_t>> popped(tokens.size());
  for (auto& p : popped) {
    p.store(0, std::memory_order_relaxed);
  }
  std::atomic<std::size_t> total_popped{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto h = q.handle();
      std::size_t mine_pushed = 0;
      std::size_t drained = 0;
      while (mine_pushed < kPerThread || drained < 64) {
        if (mine_pushed < kPerThread) {
          const std::size_t idx = t * kPerThread + mine_pushed;
          tokens[idx] = idx;
          if (q.try_push(h, &tokens[idx])) {
            ++mine_pushed;
          }
        } else {
          ++drained;  // tail drain: a few extra pops after our pushes are in
        }
        std::uint64_t* got = q.try_pop(h);
        if (got != nullptr) {
          popped[*got].fetch_add(1, std::memory_order_relaxed);
          total_popped.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Drain the remainder single-threaded.
  auto h = q.handle();
  while (std::uint64_t* got = q.try_pop(h)) {
    popped[*got].fetch_add(1, std::memory_order_relaxed);
    total_popped.fetch_add(1, std::memory_order_relaxed);
  }
  EXPECT_EQ(total_popped.load(), tokens.size());
  for (std::size_t i = 0; i < popped.size(); ++i) {
    EXPECT_EQ(popped[i].load(), 1u) << "token " << i << " lost or duplicated";
  }
}

}  // namespace
