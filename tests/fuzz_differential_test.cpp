// Differential fuzzing: every queue implementation is driven with long
// randomized push/pop sequences and compared operation-by-operation against
// a reference std::deque model. Single-threaded, so the comparison is exact
// — this nails the sequential corner cases (full/empty boundaries, wrap
// parity, helping left-overs) that the concurrent stress suites can only
// probe statistically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "evq/baselines/ms_ebr_queue.hpp"
#include "evq/baselines/ms_hp_queue.hpp"
#include "evq/baselines/ms_pool_queue.hpp"
#include "evq/baselines/ms_sim_queue.hpp"
#include "evq/baselines/mutex_queue.hpp"
#include "evq/baselines/shann_queue.hpp"
#include "evq/baselines/tsigas_zhang_queue.hpp"
#include "evq/baselines/unsync_ring.hpp"
#include "evq/common/rng.hpp"
#include "evq/core/cas_array_queue.hpp"
#include "evq/core/combining_queue.hpp"
#include "evq/core/llsc_array_queue.hpp"
#include "evq/core/scq_queue.hpp"
#include "evq/core/segmented_queue.hpp"
#include "evq/core/sharded_queue.hpp"
#include "evq/llsc/packed_llsc.hpp"
#include "evq/verify/fifo_checkers.hpp"

namespace {

using namespace evq;
using verify::Token;

template <typename Q>
Q* make_queue(std::size_t capacity) {
  if constexpr (std::is_constructible_v<Q, std::size_t>) {
    return new Q(capacity);
  } else {
    return new Q();
  }
}

/// Drives `ops` random operations against queue and model in lock-step.
/// bias_push in [0,100]: probability that a step is a push.
template <typename Q>
void fuzz_against_model(std::size_t capacity, std::uint64_t seed, int ops, int bias_push) {
  std::unique_ptr<Q> q(make_queue<Q>(capacity));
  std::size_t model_capacity = SIZE_MAX;
  if constexpr (BoundedPtrQueue<Q>) {
    model_capacity = q->capacity();
  }
  auto h = q->handle();
  XorShift64Star rng(seed);
  std::vector<Token> arena(static_cast<std::size_t>(ops) + 1);
  std::size_t next_token = 0;
  std::deque<Token*> model;
  for (int i = 0; i < ops; ++i) {
    if (rng.chance(static_cast<std::uint64_t>(bias_push), 100)) {
      Token* tok = &arena[next_token];
      const bool pushed = q->try_push(h, tok);
      const bool model_pushed = model.size() < model_capacity;
      ASSERT_EQ(pushed, model_pushed) << "push disagreement at op " << i;
      if (pushed) {
        model.push_back(tok);
        ++next_token;
      }
    } else {
      Token* popped = q->try_pop(h);
      if (model.empty()) {
        ASSERT_EQ(popped, nullptr) << "pop from empty disagreement at op " << i;
      } else {
        ASSERT_EQ(popped, model.front()) << "FIFO order disagreement at op " << i;
        model.pop_front();
      }
    }
  }
  // Drain and compare the leftovers too.
  while (!model.empty()) {
    ASSERT_EQ(q->try_pop(h), model.front());
    model.pop_front();
  }
  ASSERT_EQ(q->try_pop(h), nullptr);
}

/// Batch differential: random try_push_n / try_pop_n calls (sizes 0..8)
/// against the same deque model. Batch semantics are the maximal prefix —
/// push_n transfers min(n, free) items, pop_n min(n, size), both in FIFO
/// order — so the model predicts the exact count AND the exact items.
template <typename Q>
void fuzz_batch_against_model(std::size_t capacity, std::uint64_t seed, int ops, int bias_push) {
  std::unique_ptr<Q> q(make_queue<Q>(capacity));
  std::size_t model_capacity = SIZE_MAX;
  if constexpr (BoundedPtrQueue<Q>) {
    model_capacity = q->capacity();
  }
  auto h = q->handle();
  XorShift64Star rng(seed);
  std::vector<Token> arena(static_cast<std::size_t>(ops) * 8 + 8);
  std::size_t next_token = 0;
  std::deque<Token*> model;
  for (int i = 0; i < ops; ++i) {
    const std::size_t n = rng.next() % 9;
    if (rng.chance(static_cast<std::uint64_t>(bias_push), 100)) {
      std::vector<Token*> in(n);
      for (std::size_t k = 0; k < n; ++k) {
        in[k] = &arena[next_token + k];
      }
      const std::size_t pushed = q->try_push_n(h, in.data(), n);
      const std::size_t expect =
          model_capacity == SIZE_MAX ? n : std::min(n, model_capacity - model.size());
      ASSERT_EQ(pushed, expect) << "push_n count disagreement at op " << i;
      for (std::size_t k = 0; k < pushed; ++k) {
        model.push_back(in[k]);
      }
      next_token += pushed;
    } else {
      std::vector<Token*> out(n, nullptr);
      const std::size_t popped = q->try_pop_n(h, out.data(), n);
      ASSERT_EQ(popped, std::min(n, model.size())) << "pop_n count disagreement at op " << i;
      for (std::size_t k = 0; k < popped; ++k) {
        ASSERT_EQ(out[k], model.front()) << "pop_n order disagreement at op " << i;
        model.pop_front();
      }
    }
  }
  while (!model.empty()) {
    ASSERT_EQ(q->try_pop(h), model.front());
    model.pop_front();
  }
  ASSERT_EQ(q->try_pop(h), nullptr);
}

/// Sharded differential: cross-shard scans drop global FIFO, so the model is
/// a multiset with the total-capacity bound — push fails only when the whole
/// structure is full, pop only when it is empty, and every pop returns a live
/// member (single-threaded, so probes cannot race and these are exact).
template <typename Q>
void fuzz_sharded_against_multiset(std::size_t capacity, std::size_t shards, std::uint64_t seed,
                                   int ops, int bias_push) {
  ShardedQueue<Q> q(capacity, shards);
  const std::size_t total_capacity = q.capacity();
  auto h = q.handle();
  XorShift64Star rng(seed);
  std::vector<Token> arena(static_cast<std::size_t>(ops) + 1);
  std::size_t next_token = 0;
  std::multiset<Token*> model;
  for (int i = 0; i < ops; ++i) {
    if (rng.chance(static_cast<std::uint64_t>(bias_push), 100)) {
      Token* tok = &arena[next_token];
      const bool pushed = q.try_push(h, tok);
      ASSERT_EQ(pushed, model.size() < total_capacity) << "push disagreement at op " << i;
      if (pushed) {
        model.insert(tok);
        ++next_token;
      }
    } else {
      Token* popped = q.try_pop(h);
      if (model.empty()) {
        ASSERT_EQ(popped, nullptr) << "pop from empty disagreement at op " << i;
      } else {
        auto it = model.find(popped);
        ASSERT_NE(it, model.end()) << "pop returned a non-member at op " << i;
        model.erase(it);
      }
    }
  }
  while (!model.empty()) {
    Token* popped = q.try_pop(h);
    auto it = model.find(popped);
    ASSERT_NE(it, model.end()) << "drain returned a non-member";
    model.erase(it);
  }
  ASSERT_EQ(q.try_pop(h), nullptr);
}

struct FuzzCase {
  std::size_t capacity;
  std::uint64_t seed;
  int bias_push;  // percent
};

class DifferentialFuzz : public ::testing::TestWithParam<FuzzCase> {};

constexpr int kOps = 20000;

TEST_P(DifferentialFuzz, LlscArrayQueue) {
  const auto p = GetParam();
  fuzz_against_model<LlscArrayQueue<Token>>(p.capacity, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, LlscArrayQueuePacked) {
  const auto p = GetParam();
  fuzz_against_model<LlscArrayQueue<Token, llsc::PackedLlsc>>(p.capacity, p.seed, kOps,
                                                              p.bias_push);
}

TEST_P(DifferentialFuzz, CasArrayQueue) {
  const auto p = GetParam();
  fuzz_against_model<CasArrayQueue<Token>>(p.capacity, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, ShannQueue) {
  const auto p = GetParam();
  fuzz_against_model<baselines::ShannQueue<Token>>(p.capacity, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, TsigasZhangQueue) {
  const auto p = GetParam();
  fuzz_against_model<baselines::TsigasZhangQueue<Token>>(p.capacity, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, MutexQueue) {
  const auto p = GetParam();
  fuzz_against_model<baselines::MutexQueue<Token>>(p.capacity, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, UnsyncRing) {
  const auto p = GetParam();
  fuzz_against_model<baselines::UnsyncRing<Token>>(p.capacity, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, MsHpQueue) {
  const auto p = GetParam();
  fuzz_against_model<baselines::MsHpQueue<Token>>(p.capacity, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, MsPoolQueue) {
  const auto p = GetParam();
  fuzz_against_model<baselines::MsPoolQueue<Token>>(p.capacity, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, MsEbrQueue) {
  const auto p = GetParam();
  fuzz_against_model<baselines::MsEbrQueue<Token>>(p.capacity, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, MsSimQueue) {
  const auto p = GetParam();
  fuzz_against_model<baselines::MsSimQueue<Token>>(p.capacity, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, LlscArrayQueueBackoff) {
  const auto p = GetParam();
  fuzz_against_model<LlscArrayQueue<Token, llsc::PackedLlsc, ExpBackoff>>(p.capacity, p.seed, kOps,
                                                                          p.bias_push);
}

TEST_P(DifferentialFuzz, CasArrayQueueBackoff) {
  const auto p = GetParam();
  fuzz_against_model<CasArrayQueue<Token, ExpBackoff>>(p.capacity, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, LlscArrayQueueBatch) {
  const auto p = GetParam();
  fuzz_batch_against_model<LlscArrayQueue<Token, llsc::PackedLlsc>>(p.capacity, p.seed, kOps / 4,
                                                                    p.bias_push);
}

TEST_P(DifferentialFuzz, CasArrayQueueBatch) {
  const auto p = GetParam();
  fuzz_batch_against_model<CasArrayQueue<Token>>(p.capacity, p.seed, kOps / 4, p.bias_push);
}

TEST_P(DifferentialFuzz, ShannQueueBatch) {
  const auto p = GetParam();
  fuzz_batch_against_model<baselines::ShannQueue<Token>>(p.capacity, p.seed, kOps / 4, p.bias_push);
}

TEST_P(DifferentialFuzz, TsigasZhangQueueBatch) {
  const auto p = GetParam();
  fuzz_batch_against_model<baselines::TsigasZhangQueue<Token>>(p.capacity, p.seed, kOps / 4,
                                                               p.bias_push);
}

TEST_P(DifferentialFuzz, ScqQueue) {
  const auto p = GetParam();
  fuzz_against_model<ScqQueue<Token>>(p.capacity, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, ScqQueueBatch) {
  const auto p = GetParam();
  fuzz_batch_against_model<ScqQueue<Token>>(p.capacity, p.seed, kOps / 4, p.bias_push);
}

// Segmented queues: `capacity` sizes one segment, the queue is unbounded, so
// the model capacity auto-degrades to SIZE_MAX (pushes never fail) while the
// FIFO-order comparison stays exact across every segment boundary.
TEST_P(DifferentialFuzz, SegmentedCasQueue) {
  const auto p = GetParam();
  fuzz_against_model<SegmentedQueue<CasArrayQueue<Token>>>(p.capacity, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, SegmentedLlscQueue) {
  const auto p = GetParam();
  fuzz_against_model<SegmentedQueue<LlscArrayQueue<Token, llsc::PackedLlsc>>>(p.capacity, p.seed,
                                                                              kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, SegmentedLlscQueueBatch) {
  const auto p = GetParam();
  fuzz_batch_against_model<SegmentedQueue<LlscArrayQueue<Token, llsc::PackedLlsc>>>(
      p.capacity, p.seed, kOps / 4, p.bias_push);
}

TEST_P(DifferentialFuzz, SegmentedScqQueue) {
  const auto p = GetParam();
  fuzz_against_model<SegmentedQueue<ScqQueue<Token>>>(p.capacity, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, SegmentedScqQueueEbr) {
  const auto p = GetParam();
  fuzz_against_model<SegmentedQueue<ScqQueue<Token>, EbrSegmentDomain>>(p.capacity, p.seed, kOps,
                                                                        p.bias_push);
}

TEST_P(DifferentialFuzz, SegmentedScqQueueBatch) {
  const auto p = GetParam();
  fuzz_batch_against_model<SegmentedQueue<ScqQueue<Token>>>(p.capacity, p.seed, kOps / 4,
                                                            p.bias_push);
}

TEST_P(DifferentialFuzz, ShardedSegmentedScqQueue) {
  // The sharded facade over an unbounded inner is itself unbounded: the
  // multiset model's capacity bound degrades to "never full".
  const auto p = GetParam();
  ShardedQueue<SegmentedQueue<ScqQueue<Token>>> q(p.capacity * 4, 4);
  auto h = q.handle();
  XorShift64Star rng(p.seed);
  std::vector<Token> arena(static_cast<std::size_t>(kOps) + 1);
  std::size_t next_token = 0;
  std::multiset<Token*> model;
  for (int i = 0; i < kOps; ++i) {
    if (rng.chance(static_cast<std::uint64_t>(p.bias_push), 100)) {
      Token* tok = &arena[next_token];
      ASSERT_TRUE(q.try_push(h, tok)) << "unbounded sharded push failed at op " << i;
      model.insert(tok);
      ++next_token;
    } else {
      Token* popped = q.try_pop(h);
      if (model.empty()) {
        ASSERT_EQ(popped, nullptr) << "pop from empty disagreement at op " << i;
      } else {
        auto it = model.find(popped);
        ASSERT_NE(it, model.end()) << "pop returned a non-member at op " << i;
        model.erase(it);
      }
    }
  }
  while (!model.empty()) {
    Token* popped = q.try_pop(h);
    auto it = model.find(popped);
    ASSERT_NE(it, model.end()) << "drain returned a non-member";
    model.erase(it);
  }
  ASSERT_EQ(q.try_pop(h), nullptr);
}

// Combining facade: single-threaded the adaptive heuristic mostly stays on
// the direct path, but every kProbeEvery-th op still runs the full
// announce/combine/harvest protocol (the probe), so the fuzz walks both
// paths and their hand-off at every full/empty boundary the model reaches.
TEST_P(DifferentialFuzz, CombiningCasQueue) {
  const auto p = GetParam();
  fuzz_against_model<CombiningQueue<CasArrayQueue<Token>>>(p.capacity, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, CombiningCasQueueBatch) {
  const auto p = GetParam();
  fuzz_batch_against_model<CombiningQueue<CasArrayQueue<Token>>>(p.capacity, p.seed, kOps / 4,
                                                                 p.bias_push);
}

// The facade is generic over its ring: the same walk over Algorithm 1's
// LL/SC slots, whose reservation differs from the CAS ring's.
TEST_P(DifferentialFuzz, CombiningLlscQueue) {
  const auto p = GetParam();
  fuzz_against_model<CombiningQueue<LlscArrayQueue<Token, llsc::PackedLlsc>>>(p.capacity, p.seed,
                                                                              kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, CombiningLlscQueueBatch) {
  const auto p = GetParam();
  fuzz_batch_against_model<CombiningQueue<LlscArrayQueue<Token, llsc::PackedLlsc>>>(
      p.capacity, p.seed, kOps / 4, p.bias_push);
}

// Shards that are themselves combining facades: each shard runs its own
// announce/combine protocol behind the sharded facade's routing.
TEST_P(DifferentialFuzz, ShardedCombiningCasQueue) {
  const auto p = GetParam();
  fuzz_sharded_against_multiset<CombiningQueue<CasArrayQueue<Token>>>(p.capacity * 4, 4, p.seed,
                                                                      kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, ShardedScqQueue) {
  const auto p = GetParam();
  fuzz_sharded_against_multiset<ScqQueue<Token>>(p.capacity * 4, 4, p.seed, kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, ShardedLlscQueue) {
  const auto p = GetParam();
  fuzz_sharded_against_multiset<LlscArrayQueue<Token, llsc::PackedLlsc>>(p.capacity * 4, 4, p.seed,
                                                                         kOps, p.bias_push);
}

TEST_P(DifferentialFuzz, ShardedCasQueue) {
  const auto p = GetParam();
  fuzz_sharded_against_multiset<CasArrayQueue<Token>>(p.capacity * 4, 4, p.seed, kOps, p.bias_push);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DifferentialFuzz,
    ::testing::Values(FuzzCase{2, 0xA11CE, 50}, FuzzCase{2, 0xB0B, 80}, FuzzCase{2, 0xC0DE, 20},
                      FuzzCase{8, 0xD00D, 50}, FuzzCase{8, 0xE66, 90},
                      FuzzCase{64, 0xF00D, 50}, FuzzCase{1024, 0xFEED, 60}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return "cap" + std::to_string(info.param.capacity) + "_bias" +
             std::to_string(info.param.bias_push) + "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
