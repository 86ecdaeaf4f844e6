// Cross-implementation conformance suite: every queue in the study must
// satisfy the same FIFO contract. Typed tests instantiate the full matrix:
// basic semantics, boundary behaviour, MPMC conservation, per-producer
// order, tiny-capacity ABA hammering and oversubscribed stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "evq/baselines/ms_ebr_queue.hpp"
#include "evq/baselines/ms_hp_queue.hpp"
#include "evq/baselines/ms_pool_queue.hpp"
#include "evq/baselines/ms_sim_queue.hpp"
#include "evq/baselines/mutex_queue.hpp"
#include "evq/baselines/shann_queue.hpp"
#include "evq/baselines/tsigas_zhang_queue.hpp"
#include "evq/core/cas_array_queue.hpp"
#include "evq/core/combining_queue.hpp"
#include "evq/core/llsc_array_queue.hpp"
#include "evq/core/scq_queue.hpp"
#include "evq/core/segmented_queue.hpp"
#include "evq/harness/queue_registry.hpp"
#include "evq/llsc/packed_llsc.hpp"
#include "evq/llsc/versioned_llsc.hpp"
#include "evq/llsc/weak_llsc.hpp"
#include "evq/verify/fifo_checkers.hpp"
#include "torture_queues.hpp"

namespace {

using namespace evq;
using verify::CheckResult;
using verify::ConsumerLog;
using verify::Token;

// Sorted-scan MS-HP as its own type so the typed suite covers it.
struct MsHpSortedQueue : baselines::MsHpQueue<Token> {
  MsHpSortedQueue() : MsHpQueue(hazard::ScanMode::kSorted, 4) {}
};

template <typename T>
using WeakSlot = llsc::WeakLlsc<llsc::VersionedLlsc<T>, 20>;

/// Uniform construction: bounded queues get the capacity, unbounded ignore it.
template <typename Q>
Q* make_queue(std::size_t capacity) {
  if constexpr (std::is_constructible_v<Q, std::size_t>) {
    return new Q(capacity);
  } else {
    return new Q();
  }
}

template <typename Q>
class QueueConformanceTest : public ::testing::Test {};

// Contention-management variants: ExpBackoff only changes how retry loops
// wait, so the paper-faithful semantics must survive the typed suite intact.
using LlscBackoffQueue = LlscArrayQueue<Token, llsc::PackedLlsc, ExpBackoff>;
using CasBackoffQueue = CasArrayQueue<Token, ExpBackoff>;

using AllQueues = ::testing::Types<LlscArrayQueue<Token, llsc::VersionedLlsc>,
                                   LlscArrayQueue<Token, llsc::PackedLlsc>,
                                   LlscArrayQueue<Token, WeakSlot>,
                                   LlscBackoffQueue,
                                   CasArrayQueue<Token>,
                                   CasBackoffQueue,
                                   baselines::MsHpQueue<Token>,
                                   MsHpSortedQueue,
                                   baselines::MsPoolQueue<Token>,
                                   baselines::MsEbrQueue<Token>,
                                   baselines::MsSimQueue<Token>,
                                   baselines::ShannQueue<Token>,
                                   // Safe here: conformance tokens are
                                   // pushed exactly once, so Tsigas-Zhang's
                                   // data-ABA assumption is never stressed.
                                   baselines::TsigasZhangQueue<Token>,
                                   baselines::MutexQueue<Token>,
                                   // SCQ generation: FAA tickets + cycle tags
                                   // must honour the same exact sequential
                                   // contract as the paper rings.
                                   ScqQueue<Token>,
                                   // Segmented generation: the capacity the
                                   // suite passes sizes one SEGMENT; the
                                   // queue itself is unbounded, so the
                                   // capacity-gated tests flip to their
                                   // push-always-succeeds duals.
                                   SegmentedQueue<CasArrayQueue<Token>>,
                                   SegmentedQueue<LlscArrayQueue<Token, llsc::PackedLlsc>>,
                                   SegmentedQueue<ScqQueue<Token>>,
                                   SegmentedQueue<ScqQueue<Token>, EbrSegmentDomain>,
                                   // Combining facade: announced ops completed
                                   // by peer combiners must honour the exact
                                   // same contract as direct ring ops, over
                                   // both paper rings.
                                   CombiningQueue<CasArrayQueue<Token>>,
                                   CombiningQueue<LlscArrayQueue<Token, llsc::PackedLlsc>>>;
TYPED_TEST_SUITE(QueueConformanceTest, AllQueues);

// ---------------------------------------------------------------------------
// Sequential contract
// ---------------------------------------------------------------------------

TYPED_TEST(QueueConformanceTest, StartsEmpty) {
  std::unique_ptr<TypeParam> q(make_queue<TypeParam>(8));
  auto h = q->handle();
  EXPECT_EQ(q->try_pop(h), nullptr);
}

TYPED_TEST(QueueConformanceTest, SequentialFifo) {
  std::unique_ptr<TypeParam> q(make_queue<TypeParam>(64));
  auto h = q->handle();
  std::vector<Token> tokens(32);
  for (std::uint64_t i = 0; i < tokens.size(); ++i) {
    tokens[i].seq = i;
    ASSERT_TRUE(q->try_push(h, &tokens[i]));
  }
  for (std::uint64_t i = 0; i < tokens.size(); ++i) {
    Token* out = q->try_pop(h);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->seq, i);
  }
  EXPECT_EQ(q->try_pop(h), nullptr);
}

TYPED_TEST(QueueConformanceTest, InterleavedPushPop) {
  std::unique_ptr<TypeParam> q(make_queue<TypeParam>(8));
  auto h = q->handle();
  std::vector<Token> tokens(6);
  for (std::uint64_t i = 0; i < 6; ++i) {
    tokens[i].seq = i;
  }
  ASSERT_TRUE(q->try_push(h, &tokens[0]));
  ASSERT_TRUE(q->try_push(h, &tokens[1]));
  EXPECT_EQ(q->try_pop(h)->seq, 0u);
  ASSERT_TRUE(q->try_push(h, &tokens[2]));
  EXPECT_EQ(q->try_pop(h)->seq, 1u);
  EXPECT_EQ(q->try_pop(h)->seq, 2u);
  EXPECT_EQ(q->try_pop(h), nullptr);
}

TYPED_TEST(QueueConformanceTest, DrainAlwaysTerminates) {
  std::unique_ptr<TypeParam> q(make_queue<TypeParam>(16));
  auto h = q->handle();
  std::vector<Token> tokens(10);
  for (auto& t : tokens) {
    ASSERT_TRUE(q->try_push(h, &t));
  }
  int popped = 0;
  while (q->try_pop(h) != nullptr) {
    ++popped;
    ASSERT_LE(popped, 10);
  }
  EXPECT_EQ(popped, 10);
}

// ---------------------------------------------------------------------------
// Concurrent contract
// ---------------------------------------------------------------------------

struct StressConfig {
  std::size_t producers;
  std::size_t consumers;
  std::uint64_t per_producer;
  std::size_t capacity;
};

/// Dedicated producers push tagged tokens; dedicated consumers log what they
/// pop; returns the consumer logs for checking.
template <typename Q>
std::vector<ConsumerLog> run_split_stress(Q& q, const StressConfig& cfg) {
  std::vector<std::vector<Token>> tokens(cfg.producers);
  for (std::size_t p = 0; p < cfg.producers; ++p) {
    tokens[p].resize(cfg.per_producer);
    for (std::uint64_t i = 0; i < cfg.per_producer; ++i) {
      tokens[p][i].producer = static_cast<std::uint32_t>(p);
      tokens[p][i].seq = i;
    }
  }
  std::vector<ConsumerLog> logs(cfg.consumers);
  std::atomic<std::uint64_t> popped{0};
  const std::uint64_t total = cfg.producers * cfg.per_producer;
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < cfg.producers; ++p) {
    threads.emplace_back([&, p] {
      auto h = q.handle();
      for (auto& tok : tokens[p]) {
        while (!q.try_push(h, &tok)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::size_t c = 0; c < cfg.consumers; ++c) {
    threads.emplace_back([&, c] {
      auto h = q.handle();
      logs[c].reserve(total);
      for (;;) {
        Token* tok = q.try_pop(h);
        if (tok != nullptr) {
          logs[c].push_back(*tok);
          popped.fetch_add(1);
        } else if (popped.load() >= total) {
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(popped.load(), total);
  return logs;
}

TYPED_TEST(QueueConformanceTest, MpmcConservation) {
  const StressConfig cfg{2, 2, 4000, 64};
  std::unique_ptr<TypeParam> q(make_queue<TypeParam>(cfg.capacity));
  auto logs = run_split_stress(*q, cfg);
  const std::vector<std::uint64_t> pushed(cfg.producers, cfg.per_producer);
  CheckResult conservation = verify::check_conservation(logs, pushed);
  EXPECT_TRUE(conservation.ok) << conservation.reason;
  CheckResult order = verify::check_per_producer_order(logs, cfg.producers);
  EXPECT_TRUE(order.ok) << order.reason;
}

TYPED_TEST(QueueConformanceTest, SingleConsumerSeesGaplessStreams) {
  const StressConfig cfg{3, 1, 3000, 64};
  std::unique_ptr<TypeParam> q(make_queue<TypeParam>(cfg.capacity));
  auto logs = run_split_stress(*q, cfg);
  CheckResult gapless = verify::check_single_consumer_gapless(logs[0], cfg.producers);
  EXPECT_TRUE(gapless.ok) << gapless.reason;
}

TYPED_TEST(QueueConformanceTest, TinyCapacityHammer) {
  // Capacity 2 maximizes wraparound frequency — the regime where all three
  // ABA classes of Sec. 3 would strike a naive implementation.
  const StressConfig cfg{2, 2, 3000, 2};
  std::unique_ptr<TypeParam> q(make_queue<TypeParam>(cfg.capacity));
  auto logs = run_split_stress(*q, cfg);
  const std::vector<std::uint64_t> pushed(cfg.producers, cfg.per_producer);
  CheckResult conservation = verify::check_conservation(logs, pushed);
  EXPECT_TRUE(conservation.ok) << conservation.reason;
  CheckResult order = verify::check_per_producer_order(logs, cfg.producers);
  EXPECT_TRUE(order.ok) << order.reason;
}

TYPED_TEST(QueueConformanceTest, MixedRoleThreadsConserveTokens) {
  // Every thread both produces and consumes (the paper's workload shape).
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 2500;
  std::unique_ptr<TypeParam> q(make_queue<TypeParam>(kThreads * 8));
  std::vector<std::vector<Token>> tokens(kThreads);
  std::vector<ConsumerLog> logs(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    tokens[t].resize(kPerThread);
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      tokens[t][i].producer = static_cast<std::uint32_t>(t);
      tokens[t][i].seq = i;
    }
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto h = q->handle();
      logs[t].reserve(kPerThread);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        while (!q->try_push(h, &tokens[t][i])) {
          std::this_thread::yield();
        }
        Token* out = nullptr;
        while ((out = q->try_pop(h)) == nullptr) {
          std::this_thread::yield();
        }
        logs[t].push_back(*out);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const std::vector<std::uint64_t> pushed(kThreads, kPerThread);
  CheckResult conservation = verify::check_conservation(logs, pushed);
  EXPECT_TRUE(conservation.ok) << conservation.reason;
  CheckResult order = verify::check_per_producer_order(logs, kThreads);
  EXPECT_TRUE(order.ok) << order.reason;
}

TYPED_TEST(QueueConformanceTest, BoundedQueueNeverExceedsCapacity) {
  if constexpr (BoundedPtrQueue<TypeParam>) {
    std::unique_ptr<TypeParam> q(make_queue<TypeParam>(4));
    constexpr std::size_t kThreads = 3;
    std::atomic<bool> stop{false};
    std::atomic<bool> overflow{false};
    std::atomic<std::int64_t> population{0};
    std::vector<std::vector<Token>> tokens(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      tokens[t].resize(1);
      threads.emplace_back([&, t] {
        auto h = q->handle();
        while (!stop.load()) {
          if (q->try_push(h, &tokens[t][0])) {
            // push linearized while population <= capacity held
            if (population.fetch_add(1) + 1 > static_cast<std::int64_t>(q->capacity())) {
              overflow.store(true);
            }
            Token* out = nullptr;
            while ((out = q->try_pop(h)) == nullptr) {
              std::this_thread::yield();
            }
            population.fetch_sub(1);
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop.store(true);
    for (auto& th : threads) {
      th.join();
    }
    EXPECT_FALSE(overflow.load());
  } else {
    GTEST_SKIP() << "unbounded queue";
  }
}

TYPED_TEST(QueueConformanceTest, UnboundedPushSucceedsPastAnyCapacity) {
  // The dual of the capacity tests above: an unbounded queue constructed
  // with a tiny capacity hint (for the segmented family this sizes one
  // segment) must accept pushes far past that hint — and still drain them
  // in FIFO order, across every segment boundary it grew through.
  if constexpr (BoundedPtrQueue<TypeParam>) {
    GTEST_SKIP() << "bounded queue";
  } else {
    std::unique_ptr<TypeParam> q(make_queue<TypeParam>(4));
    auto h = q->handle();
    std::vector<Token> tokens(64);
    for (std::uint64_t i = 0; i < tokens.size(); ++i) {
      tokens[i].seq = i;
      ASSERT_TRUE(q->try_push(h, &tokens[i]))
          << "unbounded push must not fail at i=" << i;
    }
    for (std::uint64_t i = 0; i < tokens.size(); ++i) {
      Token* out = q->try_pop(h);
      ASSERT_NE(out, nullptr);
      EXPECT_EQ(out->seq, i);
    }
    EXPECT_EQ(q->try_pop(h), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Boundary edges: full-queue wraparound, enqueue-on-full, dequeue-on-empty
// ---------------------------------------------------------------------------

TYPED_TEST(QueueConformanceTest, FullQueueWraparoundCycles) {
  // Fill to the brim, (for bounded queues) bounce an extra push off the full
  // queue, drain to empty — 64 times, so Head and Tail cross the slot-array
  // boundary on every cycle. This is the regime where a wraparound bug would
  // mistake generation g's slot state for generation g-1's.
  std::unique_ptr<TypeParam> q(make_queue<TypeParam>(4));
  auto h = q->handle();
  std::vector<Token> tokens(4);
  std::uint64_t seq = 0;
  for (int cycle = 0; cycle < 64; ++cycle) {
    for (auto& tok : tokens) {
      tok.seq = seq++;
      ASSERT_TRUE(q->try_push(h, &tok)) << "cycle " << cycle;
    }
    if constexpr (BoundedPtrQueue<TypeParam>) {
      Token extra;
      EXPECT_FALSE(q->try_push(h, &extra)) << "push must fail on a full queue, cycle " << cycle;
    }
    for (const auto& tok : tokens) {
      Token* out = q->try_pop(h);
      ASSERT_NE(out, nullptr) << "cycle " << cycle;
      EXPECT_EQ(out->seq, tok.seq);
    }
    EXPECT_EQ(q->try_pop(h), nullptr) << "drained queue must report empty, cycle " << cycle;
  }
}

TYPED_TEST(QueueConformanceTest, EnqueueOnFullReopensAfterOnePop) {
  if constexpr (BoundedPtrQueue<TypeParam>) {
    // Capacity 2: every reopened slot is a wrapped slot.
    std::unique_ptr<TypeParam> q(make_queue<TypeParam>(2));
    auto h = q->handle();
    std::vector<Token> tokens(5);
    for (std::uint64_t i = 0; i < tokens.size(); ++i) {
      tokens[i].seq = i;
    }
    ASSERT_TRUE(q->try_push(h, &tokens[0]));
    ASSERT_TRUE(q->try_push(h, &tokens[1]));
    EXPECT_FALSE(q->try_push(h, &tokens[2]));
    EXPECT_FALSE(q->try_push(h, &tokens[2])) << "full must be stable, not one-shot";
    EXPECT_EQ(q->try_pop(h)->seq, 0u);
    ASSERT_TRUE(q->try_push(h, &tokens[2])) << "one pop must reopen exactly one slot";
    EXPECT_FALSE(q->try_push(h, &tokens[3]));
    EXPECT_EQ(q->try_pop(h)->seq, 1u);
    ASSERT_TRUE(q->try_push(h, &tokens[3]));
    EXPECT_EQ(q->try_pop(h)->seq, 2u);
    EXPECT_EQ(q->try_pop(h)->seq, 3u);
    EXPECT_EQ(q->try_pop(h), nullptr);
  } else {
    GTEST_SKIP() << "unbounded queue";
  }
}

TYPED_TEST(QueueConformanceTest, DequeueOnEmptyIsStableAndSideEffectFree) {
  std::unique_ptr<TypeParam> q(make_queue<TypeParam>(4));
  auto h = q->handle();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(q->try_pop(h), nullptr);
  }
  // Failed pops must not have consumed capacity or corrupted the indices.
  Token tok;
  tok.seq = 7;
  ASSERT_TRUE(q->try_push(h, &tok));
  Token* out = q->try_pop(h);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->seq, 7u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(q->try_pop(h), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Registry-driven conformance: every entry of harness::all_queues(), through
// the same type-erased interface the benchmarks use.
// ---------------------------------------------------------------------------

class RegistryQueueTest : public ::testing::TestWithParam<harness::QueueSpec> {};

TEST_P(RegistryQueueTest, SequentialFifoThroughTypeErasure) {
  const harness::QueueSpec& spec = GetParam();
  auto q = spec.make(8);
  auto h = q->handle();
  std::vector<harness::Payload> payloads(8);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    payloads[i].value = i;
  }
  for (auto& p : payloads) {
    ASSERT_TRUE(h->try_push(&p)) << spec.name;
  }
  harness::Payload extra;
  extra.value = payloads.size();
  if (spec.bounded) {
    EXPECT_FALSE(h->try_push(&extra)) << spec.name << " must report full at capacity";
  } else {
    // The unbounded dual: with every slot of the construction-capacity hint
    // occupied, a further push must SUCCEED (the segmented family grows a
    // fresh segment; the link-based baselines never fill).
    EXPECT_TRUE(h->try_push(&extra))
        << spec.name << " is unbounded and must accept pushes past any capacity hint";
  }
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    harness::Payload* out = h->try_pop();
    ASSERT_NE(out, nullptr) << spec.name;
    EXPECT_EQ(out->value, i) << spec.name;
  }
  if (!spec.bounded) {
    harness::Payload* out = h->try_pop();
    ASSERT_NE(out, nullptr) << spec.name;
    EXPECT_EQ(out->value, extra.value) << spec.name;
  }
  EXPECT_EQ(h->try_pop(), nullptr) << spec.name;
}

TEST_P(RegistryQueueTest, MpmcConservationWhenConcurrent) {
  const harness::QueueSpec& spec = GetParam();
  if (!spec.concurrent) {
    GTEST_SKIP() << spec.name << " is single-threaded by contract";
  }
  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 2000;
  auto q = spec.make(16);

  std::vector<std::vector<harness::Payload>> payloads(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    payloads[p].resize(kPerProducer);
    for (std::uint64_t i = 0; i < kPerProducer; ++i) {
      payloads[p][i].value = p * kPerProducer + i;
    }
  }
  std::vector<ConsumerLog> logs(kConsumers);
  std::atomic<std::uint64_t> popped{0};
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      auto h = q->handle();
      for (auto& payload : payloads[p]) {
        while (!h->try_push(&payload)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      auto h = q->handle();
      for (;;) {
        if (harness::Payload* out = h->try_pop()) {
          // Recover (producer, seq) from the payload value so the stream
          // checkers apply unchanged.
          logs[c].push_back(Token{static_cast<std::uint32_t>(out->value / kPerProducer),
                                  out->value % kPerProducer, nullptr});
          popped.fetch_add(1);
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
  CheckResult conservation = verify::check_conservation(logs, pushed);
  EXPECT_TRUE(conservation.ok) << spec.name << ": " << conservation.reason;
  if (spec.fifo) {
    CheckResult order = verify::check_per_producer_order(logs, kProducers);
    EXPECT_TRUE(order.ok) << spec.name << ": " << order.reason;
  }
}

TEST_P(RegistryQueueTest, BatchEntryPointsMatchSingleOpSemantics) {
  // The AnyHandle batch API must transfer a maximal prefix whether the queue
  // forwards natively (ring-engine family) or through the op-by-op default.
  const harness::QueueSpec& spec = GetParam();
  auto q = spec.make(8);
  auto h = q->handle();
  std::vector<harness::Payload> payloads(12);
  std::vector<harness::Payload*> in(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    payloads[i].value = i;
    in[i] = &payloads[i];
  }
  const std::size_t pushed = h->try_push_n(in.data(), in.size());
  if (spec.bounded) {
    EXPECT_EQ(pushed, 8u) << spec.name << " must stop a batch at capacity";
    EXPECT_FALSE(h->try_push(in[pushed])) << spec.name;
  } else {
    EXPECT_EQ(pushed, in.size()) << spec.name;
  }
  std::vector<harness::Payload*> out(payloads.size(), nullptr);
  const std::size_t popped = h->try_pop_n(out.data(), out.size());
  ASSERT_EQ(popped, pushed) << spec.name << " batch pop must drain exactly what was pushed";
  if (spec.fifo) {
    for (std::size_t i = 0; i < popped; ++i) {
      EXPECT_EQ(out[i]->value, i) << spec.name;
    }
  } else {
    // Sharded queues reorder across shards; a single handle still conserves.
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < popped; ++i) {
      mask |= std::uint64_t{1} << out[i]->value;
    }
    EXPECT_EQ(mask, (std::uint64_t{1} << popped) - 1) << spec.name;
  }
  EXPECT_EQ(h->try_pop(), nullptr) << spec.name;
}

std::string registry_test_name(const ::testing::TestParamInfo<harness::QueueSpec>& info) {
  std::string name = info.param.name;
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllRegistryQueues, RegistryQueueTest,
                         ::testing::ValuesIn(harness::all_queues()), registry_test_name);

// The uninjected half of the torture-coverage handshake (see
// tests/torture_queues.hpp): every queue the registry knows must be covered
// by the fault-injection torture harness, whose binary cannot link the
// registry itself.
TEST(TortureCoverageRegistrySide, EveryRegistryQueueHasATortureRunner) {
  for (const harness::QueueSpec& spec : harness::all_queues()) {
    const bool covered =
        std::any_of(std::begin(evq::testing::kTortureCoveredQueues),
                    std::end(evq::testing::kTortureCoveredQueues),
                    [&](const char* name) { return spec.name == name; });
    EXPECT_TRUE(covered) << "queue '" << spec.name
                         << "' is registered but not torture-covered — add it to "
                            "tests/torture_queues.hpp and tests/torture_test.cpp";
  }
}

}  // namespace
