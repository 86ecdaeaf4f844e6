// Ring-engine-specific contract tests: the batch operations and index-hint
// amortization added by core/ring_engine.hpp on top of the paper-faithful
// single-op protocol. The single-op semantics themselves are covered by the
// conformance, fuzz and torture suites; these tests pin down what the batch
// layer promises on top:
//
//  * try_push_n transfers a maximal FIFO prefix (stops exactly at capacity),
//    try_pop_n a maximal FIFO run (stops exactly at empty);
//  * batches interleave correctly with single ops and with wraparound, i.e.
//    the one-shot hint can never observe a stale index as fresher than it is;
//  * a zero-length batch is a no-op on state.
//
// They also pin the sampled-hook gate: one process-wide word picks between
// an op body with no trace probe, latency timer or flight-recorder hook and
// one with all of them, and an idle pop answers an empty ring before it sets
// up the op. Both bodies must count the same telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "evq/baselines/shann_queue.hpp"
#include "evq/baselines/tsigas_zhang_queue.hpp"
#include "evq/common/thread_block.hpp"
#include "evq/core/cas_array_queue.hpp"
#include "evq/core/llsc_array_queue.hpp"
#include "evq/core/queue_traits.hpp"
#include "evq/core/scq_queue.hpp"
#include "evq/llsc/packed_llsc.hpp"
#include "evq/telemetry/flight_recorder.hpp"
#include "evq/trace/trace.hpp"
#include "evq/verify/fifo_checkers.hpp"

namespace {

using namespace evq;
using verify::Token;

template <typename Q>
class RingEngineBatchTest : public ::testing::Test {};

using BatchQueues = ::testing::Types<LlscArrayQueue<Token, llsc::PackedLlsc>,
                                     LlscArrayQueue<Token, llsc::VersionedLlsc>,
                                     CasArrayQueue<Token>,
                                     baselines::ShannQueue<Token>,
                                     baselines::TsigasZhangQueue<Token>,
                                     ScqQueue<Token>>;
TYPED_TEST_SUITE(RingEngineBatchTest, BatchQueues);

// Every ring-engine instantiation must satisfy the batch concept.
static_assert(BatchPtrQueue<LlscArrayQueue<Token>>);
static_assert(BatchPtrQueue<CasArrayQueue<Token>>);
static_assert(BatchPtrQueue<baselines::ShannQueue<Token>>);
static_assert(BatchPtrQueue<baselines::TsigasZhangQueue<Token>>);
static_assert(BatchPtrQueue<ScqQueue<Token>>);

TYPED_TEST(RingEngineBatchTest, PushBatchStopsExactlyAtCapacity) {
  TypeParam q(8);
  auto h = q.handle();
  std::vector<Token> tokens(12);
  std::vector<Token*> in(tokens.size());
  for (std::uint64_t i = 0; i < tokens.size(); ++i) {
    tokens[i].seq = i;
    in[i] = &tokens[i];
  }
  EXPECT_EQ(q.try_push_n(h, in.data(), in.size()), q.capacity());
  EXPECT_FALSE(q.try_push(h, in[q.capacity()])) << "batch must have filled the ring";
  for (std::uint64_t i = 0; i < q.capacity(); ++i) {
    Token* out = q.try_pop(h);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->seq, i) << "batch prefix must land in FIFO order";
  }
  EXPECT_EQ(q.try_pop(h), nullptr);
}

TYPED_TEST(RingEngineBatchTest, PopBatchStopsExactlyAtEmpty) {
  TypeParam q(8);
  auto h = q.handle();
  std::vector<Token> tokens(5);
  for (std::uint64_t i = 0; i < tokens.size(); ++i) {
    tokens[i].seq = i;
    ASSERT_TRUE(q.try_push(h, &tokens[i]));
  }
  std::vector<Token*> out(8, nullptr);
  EXPECT_EQ(q.try_pop_n(h, out.data(), out.size()), tokens.size());
  for (std::uint64_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(out[i]->seq, i);
  }
  EXPECT_EQ(q.try_pop_n(h, out.data(), out.size()), 0u) << "empty queue must yield a zero batch";
}

TYPED_TEST(RingEngineBatchTest, ZeroLengthBatchesAreNoOps) {
  TypeParam q(4);
  auto h = q.handle();
  Token tok{0, 7};
  EXPECT_EQ(q.try_push_n(h, nullptr, 0), 0u);
  EXPECT_EQ(q.try_pop_n(h, nullptr, 0), 0u);
  ASSERT_TRUE(q.try_push(h, &tok));
  EXPECT_EQ(q.try_pop_n(h, nullptr, 0), 0u);
  EXPECT_EQ(q.try_pop(h), &tok);
}

TYPED_TEST(RingEngineBatchTest, BatchesInterleaveWithSingleOpsAcrossWraps) {
  // Capacity 4, 64 rounds of (batch-push 3, single push 1, batch-pop 2,
  // single pops): every round crosses the slot-array boundary, so a stale
  // push or pop hint would surface as a wrong-generation slot access.
  TypeParam q(4);
  auto h = q.handle();
  std::vector<Token> tokens(4);
  std::uint64_t seq = 0;
  for (int round = 0; round < 64; ++round) {
    std::vector<Token*> in(3);
    for (int k = 0; k < 3; ++k) {
      tokens[k].seq = seq++;
      in[k] = &tokens[k];
    }
    ASSERT_EQ(q.try_push_n(h, in.data(), 3), 3u) << "round " << round;
    tokens[3].seq = seq++;
    ASSERT_TRUE(q.try_push(h, &tokens[3]));
    ASSERT_EQ(q.try_push_n(h, in.data(), 1), 0u) << "full must stop a batch, round " << round;

    std::vector<Token*> out(2, nullptr);
    ASSERT_EQ(q.try_pop_n(h, out.data(), 2), 2u);
    EXPECT_EQ(out[0]->seq, seq - 4);
    EXPECT_EQ(out[1]->seq, seq - 3);
    Token* third = q.try_pop(h);
    ASSERT_NE(third, nullptr);
    EXPECT_EQ(third->seq, seq - 2);
    ASSERT_EQ(q.try_pop_n(h, out.data(), 2), 1u) << "partial batch at the tail, round " << round;
    EXPECT_EQ(out[0]->seq, seq - 1);
    EXPECT_EQ(q.try_pop(h), nullptr) << "round " << round;
  }
}

TYPED_TEST(RingEngineBatchTest, LargeBatchesConserveUnderMpmcStress) {
  // 2 producers push batches of 1..5, 2 consumers pop batches of 1..5;
  // conservation through the batch paths under real interleaving.
  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 3000;
  TypeParam q(16);
  std::vector<std::vector<Token>> tokens(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    tokens[p].resize(kPerProducer);
    for (std::uint64_t i = 0; i < kPerProducer; ++i) {
      tokens[p][i].producer = static_cast<std::uint32_t>(p);
      tokens[p][i].seq = i;
    }
  }
  std::vector<verify::ConsumerLog> logs(kConsumers);
  std::atomic<std::uint64_t> popped{0};
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      auto h = q.handle();
      std::uint64_t sent = 0;
      while (sent < kPerProducer) {
        std::vector<Token*> in;
        const std::uint64_t n = std::min<std::uint64_t>(1 + (sent % 5), kPerProducer - sent);
        for (std::uint64_t k = 0; k < n; ++k) {
          in.push_back(&tokens[p][sent + k]);
        }
        const std::size_t ok = q.try_push_n(h, in.data(), in.size());
        sent += ok;
        if (ok == 0) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      auto h = q.handle();
      logs[c].reserve(kTotal);
      std::vector<Token*> out(5, nullptr);
      for (;;) {
        const std::size_t n = q.try_pop_n(h, out.data(), 1 + (logs[c].size() % 5));
        if (n > 0) {
          for (std::size_t k = 0; k < n; ++k) {
            logs[c].push_back(*out[k]);
          }
          popped.fetch_add(n);
        } else if (popped.load() >= kTotal) {
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const std::vector<std::uint64_t> pushed(kProducers, kPerProducer);
  auto conservation = verify::check_conservation(logs, pushed);
  EXPECT_TRUE(conservation.ok) << conservation.reason;
  auto order = verify::check_per_producer_order(logs, kProducers);
  EXPECT_TRUE(order.ok) << order.reason;
}

// ---------------------------------------------------------------------------
// IndexPolicy advance attribution
// ---------------------------------------------------------------------------
// The RingIndexPolicy contract (ring_engine.hpp): advance() returns true
// exactly when THIS call moved the index from `expected` to `expected + 1`,
// and every index move is attributed to exactly one advance()/reserve()
// return — the invariant the help-chain flow arrows are built on. These
// tests pin the contract for all three policy generations so a future
// policy cannot silently break attribution.

template <typename P>
void check_conditional_advance_attribution() {
  typename P::Cell cell{};
  ASSERT_EQ(P::load(cell), 0u);
  EXPECT_TRUE(P::advance(cell, 0)) << "moving 0 -> 1 is this call's move";
  EXPECT_EQ(P::load(cell), 1u);
  EXPECT_FALSE(P::advance(cell, 0)) << "stale expected must report no movement";
  EXPECT_EQ(P::load(cell), 1u) << "a false advance must not have moved the index";
  EXPECT_TRUE(P::advance(cell, 1));
  EXPECT_EQ(P::load(cell), 2u);
}

TEST(IndexPolicyAttribution, LlscAdvanceReportsOwnMovesOnly) {
  check_conditional_advance_attribution<LlscIndexPolicy>();
}

TEST(IndexPolicyAttribution, CasAdvanceReportsOwnMovesOnly) {
  check_conditional_advance_attribution<CasIndexPolicy<kCasIndexAdvancePoint>>();
}

TEST(IndexPolicyAttribution, FaaAdvanceReportsOwnMovesOnly) {
  check_conditional_advance_attribution<ScqIndexPolicy>();
}

TEST(IndexPolicyAttribution, FaaReserveAlwaysAdvancesByOneAndReturnsTheTicket) {
  ScqIndexPolicy::Cell cell{};
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(ScqIndexPolicy::reserve(cell), i) << "the prior value is the caller's ticket";
    EXPECT_EQ(ScqIndexPolicy::load(cell), i + 1) << "reserve moves by exactly one";
  }
}

TEST(IndexPolicyAttribution, FaaReserveAttributesEveryMoveToExactlyOneCaller) {
  // Unconditional advancement stays exactly attributed under contention:
  // across any interleaving, the claimed tickets partition the index range —
  // no ticket lost, none handed out twice.
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  ScqIndexPolicy::Cell cell{};
  std::vector<std::vector<std::uint64_t>> tickets(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      tickets[t].reserve(kPerThread);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        tickets[t].push_back(ScqIndexPolicy::reserve(cell));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  std::vector<std::uint64_t> all;
  for (const auto& mine : tickets) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), kThreads * kPerThread);
  for (std::uint64_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i) << "every index move owned by exactly one reserve() return";
  }
  EXPECT_EQ(ScqIndexPolicy::load(cell), kThreads * kPerThread);
}

TEST(IndexPolicyAttribution, FaaCatchUpReportsOwnJumpsOnly) {
  ScqIndexPolicy::Cell cell{};
  EXPECT_TRUE(ScqIndexPolicy::catch_up(cell, 0, 5)) << "the jump 0 -> 5 is this call's move";
  EXPECT_EQ(ScqIndexPolicy::load(cell), 5u);
  EXPECT_FALSE(ScqIndexPolicy::catch_up(cell, 0, 9)) << "stale expected must report no movement";
  EXPECT_EQ(ScqIndexPolicy::load(cell), 5u);
}

// Switches every sampled hook off for a test and restores the settings it
// found, so the tests below do not depend on, or leak into, other tests.
class SampledHooksOff {
 public:
  SampledHooksOff()
      : trace_every_(trace::sampling_period()), tracing_(telemetry::tracing_enabled()) {
    trace::set_sampling(0);
    telemetry::set_tracing(false);
  }
  ~SampledHooksOff() {
    trace::set_sampling(trace_every_);
    telemetry::set_tracing(tracing_);
  }
  SampledHooksOff(const SampledHooksOff&) = delete;
  SampledHooksOff& operator=(const SampledHooksOff&) = delete;

 private:
  std::uint32_t trace_every_;
  bool tracing_;
};

TEST(SampledHookGate, FollowsEverySetting) {
  const SampledHooksOff off;
  ASSERT_FALSE(evq::detail::sampled_hooks_on());
  trace::set_sampling(8);
  EXPECT_TRUE(evq::detail::sampled_hooks_on());
  trace::set_sampling(0);
  EXPECT_FALSE(evq::detail::sampled_hooks_on());
  telemetry::set_tracing(true);
  EXPECT_TRUE(evq::detail::sampled_hooks_on());
  trace::set_sampling(8);
  telemetry::set_tracing(false);
  EXPECT_TRUE(evq::detail::sampled_hooks_on()) << "trace sampling is still on";
  trace::set_sampling(0);
  EXPECT_FALSE(evq::detail::sampled_hooks_on());
}

template <typename Q>
class SampledHookGateTest : public ::testing::Test {};

using GateQueues = ::testing::Types<LlscArrayQueue<Token, llsc::PackedLlsc>, CasArrayQueue<Token>>;
TYPED_TEST_SUITE(SampledHookGateTest, GateQueues);

// Single pops, batch pops and pushes give the same results and counts
// whether the idle body (with its empty-poll path) or the sampled body runs.
TYPED_TEST(SampledHookGateTest, BothBodiesCountTheSame) {
  const SampledHooksOff off;
  TypeParam q(4, "gate-test-ring");
  auto h = q.handle();
  const auto count = [&q](telemetry::Counter c) { return q.metrics().value(c); };
  const std::uint64_t empty0 = count(telemetry::Counter::kPopEmpty);
  const std::uint64_t push0 = count(telemetry::Counter::kPushOk);
  const std::uint64_t pop0 = count(telemetry::Counter::kPopOk);
  std::vector<Token> tokens(4);
  Token* out[4] = {};
  for (const bool sampled : {false, true}) {
    SCOPED_TRACE(sampled ? "sampled body" : "idle body");
    trace::set_sampling(sampled ? 1 : 0);
    ASSERT_EQ(evq::detail::sampled_hooks_on(), sampled);
    EXPECT_EQ(q.try_pop(h), nullptr);
    EXPECT_EQ(q.try_pop_n(h, out, 4), 0u);
    ASSERT_TRUE(q.try_push(h, &tokens[0]));
    ASSERT_TRUE(q.try_push(h, &tokens[1]));
    EXPECT_EQ(q.try_pop(h), &tokens[0]) << "a non-empty ring falls through to the op body";
    EXPECT_EQ(q.try_pop_n(h, out, 4), 1u);
    EXPECT_EQ(out[0], &tokens[1]);
    EXPECT_EQ(q.try_pop(h), nullptr);
  }
#if EVQ_TELEMETRY
  // Per body: two pushes, two pops and four empty reports (the empty single
  // pop, the empty batch, the batch that stopped after one item, the final
  // single pop).
  EXPECT_EQ(count(telemetry::Counter::kPopEmpty) - empty0, 8u);
  EXPECT_EQ(count(telemetry::Counter::kPushOk) - push0, 4u);
  EXPECT_EQ(count(telemetry::Counter::kPopOk) - pop0, 4u);
#else
  (void)empty0;
  (void)push0;
  (void)pop0;
#endif
}

}  // namespace
