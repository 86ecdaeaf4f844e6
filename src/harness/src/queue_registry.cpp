#include "evq/harness/queue_registry.hpp"

#include <cstdio>
#include <cstdlib>

#include "evq/baselines/ms_ebr_queue.hpp"
#include "evq/baselines/ms_hp_queue.hpp"
#include "evq/baselines/ms_pool_queue.hpp"
#include "evq/baselines/ms_sim_queue.hpp"
#include "evq/baselines/mutex_queue.hpp"
#include "evq/baselines/shann_queue.hpp"
#include "evq/baselines/tsigas_zhang_queue.hpp"
#include "evq/baselines/unsync_ring.hpp"
#include "evq/common/backoff.hpp"
#include "evq/core/cas_array_queue.hpp"
#include "evq/core/combining_queue.hpp"
#include "evq/core/llsc_array_queue.hpp"
#include "evq/core/scq_queue.hpp"
#include "evq/core/segmented_queue.hpp"
#include "evq/core/sharded_queue.hpp"
#include "evq/llsc/packed_llsc.hpp"
#include "evq/llsc/versioned_llsc.hpp"

namespace evq::harness {

namespace {

template <typename Q, typename... Args>
QueueFactory make_factory(Args... args) {
  return [args...](std::size_t capacity) -> std::unique_ptr<AnyQueue> {
    (void)capacity;
    if constexpr (std::is_constructible_v<Q, std::size_t, Args...>) {
      return std::make_unique<QueueAdapter<Q>>(capacity, args...);
    } else {
      return std::make_unique<QueueAdapter<Q>>(args...);
    }
  };
}

std::vector<QueueSpec> build_registry() {
  using baselines::MsHpQueue;
  using baselines::MsPoolQueue;
  using baselines::MsSimQueue;
  using baselines::MutexQueue;
  using baselines::ShannQueue;
  using baselines::UnsyncRing;
  using LlscQueue = LlscArrayQueue<Payload, llsc::VersionedLlsc>;
  using LlscPackedQueue = LlscArrayQueue<Payload, llsc::PackedLlsc>;

  std::vector<QueueSpec> specs;
  // The headline LL/SC analog is the single-word packed emulation: its LL is
  // a plain load, matching the cost profile of real lwarx/stwcx. The
  // versioned (double-width) emulation has the exact Fig. 2 semantics but
  // pays a cmpxchg16b per LL, which real LL/SC hardware does not — it is
  // kept as the reference-semantics variant for the A1 ablation.
  specs.push_back({"fifo-llsc", "FIFO Array LL/SC", true, true, true,
                   make_factory<LlscPackedQueue>()});
  specs.push_back({"fifo-llsc-versioned", "FIFO Array LL/SC (versioned DWCAS)", true, true, true,
                   make_factory<LlscQueue>("fifo-llsc-versioned")});
  specs.push_back({"fifo-simcas", "FIFO Array Simulated CAS", true, true, true,
                   make_factory<CasArrayQueue<Payload>>()});
  specs.push_back({"ms-hp", "MS-Hazard Pointers Not Sorted", false, true, true,
                   make_factory<MsHpQueue<Payload>>(hazard::ScanMode::kUnsorted, std::size_t{4})});
  specs.push_back({"ms-hp-sorted", "MS-Hazard Pointers Sorted", false, true, true,
                   make_factory<MsHpQueue<Payload>>(hazard::ScanMode::kSorted, std::size_t{4},
                                                    "ms-hp-sorted")});
  specs.push_back({"ms-doherty", "MS-Doherty et al.", false, true, true,
                   make_factory<MsSimQueue<Payload>>()});
  specs.push_back({"shann", "Shann et al. (CAS2w)", true, true, true,
                   make_factory<ShannQueue<Payload>>()});
  specs.push_back({"ms-pool", "MS free-pool", false, true, true,
                   make_factory<MsPoolQueue<Payload>>()});
  specs.push_back({"ms-ebr", "MS epoch-based reclamation", false, true, true,
                   make_factory<baselines::MsEbrQueue<Payload>>()});
  specs.push_back({"tsigas-zhang", "Tsigas-Zhang (two-null, assumption-bound)", true, true, true,
                   make_factory<baselines::TsigasZhangQueue<Payload>>()});
  specs.push_back({"mutex", "Mutex ring", true, true, true,
                   make_factory<MutexQueue<Payload>>()});
  specs.push_back({"unsync", "Unsynchronized ring", true, false, true,
                   make_factory<UnsyncRing<Payload>>()});
  // Contention-management ablation: the same two paper algorithms with
  // ExpBackoff threaded through every retry loop (bench_backoff's subjects).
  specs.push_back({"fifo-llsc-backoff", "FIFO Array LL/SC + exp backoff", true, true, true,
                   make_factory<LlscArrayQueue<Payload, llsc::PackedLlsc, ExpBackoff>>(
                       "fifo-llsc-backoff")});
  specs.push_back({"fifo-simcas-backoff", "FIFO Array Simulated CAS + exp backoff", true, true,
                   true, make_factory<CasArrayQueue<Payload, ExpBackoff>>("fifo-simcas-backoff")});
  // Sharded scaling layer: 4 shards over each paper algorithm. Per-producer
  // MPMC FIFO is traded away (fifo = false) for counter decontention.
  specs.push_back({"sharded-llsc", "Sharded FIFO Array LL/SC (4 shards)", true, true, false,
                   make_factory<ShardedLlscQueue<Payload>>(std::size_t{4}, "sharded-llsc")});
  specs.push_back({"sharded-simcas", "Sharded FIFO Array Simulated CAS (4 shards)", true, true,
                   false,
                   make_factory<ShardedCasQueue<Payload>>(std::size_t{4}, "sharded-simcas")});
  // SCQ generation (Nikolaev, arXiv:1908.04511): FAA ticket reservation over
  // cycle-tagged single-word entries — the post-paper state of the art the
  // head-to-head scenario benches against the Fig. 5/Fig. 3 rings.
  specs.push_back({"scq", "SCQ FAA ring (Nikolaev)", true, true, true,
                   make_factory<ScqQueue<Payload>>()});
  specs.push_back({"sharded-scq", "Sharded SCQ FAA ring (4 shards)", true, true, false,
                   make_factory<ShardedQueue<ScqQueue<Payload>>>(std::size_t{4}, "sharded-scq")});
  // Segmented (unbounded) generation: linked chains of sealable rings, the
  // LCRQ/LSCQ composition. `capacity` sizes each SEGMENT; the queue itself is
  // unbounded (bounded = false), so the harness's full-queue assertions flip
  // to their push-always-succeeds duals.
  specs.push_back({"seg-cas", "Segmented FIFO Array Simulated CAS (LCRQ-style)", false, true, true,
                   make_factory<SegmentedQueue<CasArrayQueue<Payload>>>("seg-cas")});
  specs.push_back({"seg-scq", "Segmented SCQ FAA ring (LSCQ-style)", false, true, true,
                   make_factory<SegmentedQueue<ScqQueue<Payload>>>("seg-scq")});
  specs.push_back({"sharded-seg-scq", "Sharded Segmented SCQ (4 shards)", false, true, false,
                   make_factory<ShardedQueue<SegmentedQueue<ScqQueue<Payload>>>>(
                       std::size_t{4}, "sharded-seg-scq")});
  // Flat-combining facade (DESIGN.md §14): announce-record submission with a
  // single-word combiner lock draining batches through try_push_n/try_pop_n.
  // Adaptive — runs direct (ring speed) until contention is observed, so the
  // 1-thread overhead stays within the CI gate.
  specs.push_back({"comb-cas", "Combining over FIFO Array Simulated CAS", true, true, true,
                   make_factory<CombiningQueue<CasArrayQueue<Payload>>>("comb-cas")});
  return specs;
}

}  // namespace

const std::vector<QueueSpec>& all_queues() {
  static const std::vector<QueueSpec> specs = build_registry();
  return specs;
}

const QueueSpec& find_queue(const std::string& name) {
  for (const QueueSpec& spec : all_queues()) {
    if (spec.name == name) {
      return spec;
    }
  }
  std::fprintf(stderr, "unknown queue '%s'; known queues:\n", name.c_str());
  for (const QueueSpec& spec : all_queues()) {
    std::fprintf(stderr, "  %-18s %s\n", spec.name.c_str(), spec.paper_label.c_str());
  }
  std::exit(2);
}

}  // namespace evq::harness
