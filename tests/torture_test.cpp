// Deterministic fault-injection torture harness.
//
// This binary — and ONLY this binary — is compiled with EVQ_INJECT_ENABLED=1,
// so every EVQ_INJECT_POINT / EVQ_INJECT_SC_FAILS in the queues, the LL/SC
// cells and the reclamation layers is live. Each worker thread installs a
// ProfileInjector seeded from (run seed, thread id); a failing
// (queue, profile) pair therefore reproduces exactly.
//
// Three test groups:
//
//  * TortureMatrix — every registered queue under every registered profile,
//    validated with the stream checkers (conservation + per-producer FIFO).
//    The queues must absorb forced SC failures, yield-burst preemption,
//    a parked consumer holding a live reservation, a producer "killed"
//    between its linearizing slot write and the Tail publication, and
//    starving reclamation.
//
//  * TortureCoverage — structural checks that the matrix really covers what
//    it claims: the runner table must equal the shared kTortureCoveredQueues
//    list (whose other half — "every registry queue is on that list" — lives
//    in the uninjected evq_tests binary; see tests/torture_queues.hpp for why
//    the check is split), and the profile list must match inject profiles.
//
//  * TortureTeeth — proof the harness can catch real bugs: a deliberately
//    weakened queue variant (PlainCasCell: LL/SC "emulated" by a bare
//    unversioned CAS, i.e. Sec. 3's index-ABA defence removed from the slots)
//    must FAIL. A scripted single-victim schedule makes it lose a token
//    deterministically, the same schedule leaves the real PackedLlsc queue
//    correct, and the stochastic sc-storm profile finds the bug on its own.
//
// Note the per-producer token pools are preallocated and never recycled
// within a run: Tsigas-Zhang's published algorithm assumes values are not
// reinserted while a stale reader may hold them (its data-ABA caveat), and
// the matrix tests the algorithms' claims, not their caveats. The teeth
// tests, by contrast, are free to create whatever traffic exposes their prey.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
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
#include "evq/hazard/hp_domain.hpp"
#include "evq/health/health.hpp"
#include "evq/health/monitor.hpp"
#include "evq/inject/inject.hpp"
#include "evq/inject/profile.hpp"
#include "evq/llsc/packed_llsc.hpp"
#include "evq/perf/perf.hpp"
#include "evq/llsc/versioned_llsc.hpp"
#include "evq/telemetry/flight_recorder.hpp"
#include "evq/trace/chrome_trace.hpp"
#include "evq/trace/trace.hpp"
#include "evq/verify/fifo_checkers.hpp"
#include "torture_queues.hpp"

#if !defined(EVQ_INJECT_ENABLED) || !EVQ_INJECT_ENABLED
#error "torture_test.cpp must be compiled with EVQ_INJECT_ENABLED=1"
#endif

namespace evq {
namespace {

using verify::Token;

struct TortureConfig {
  std::size_t producers = 2;
  std::size_t consumers = 2;
  std::uint64_t tokens_per_producer = 400;
  std::size_t capacity = 8;
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  // A consumer that sees this many consecutive empty polls AFTER all
  // producers finished declares the run wedged (tokens unaccounted for).
  std::uint64_t stuck_poll_limit = 1u << 20;
  std::chrono::milliseconds deadline{60000};
  // On a wedged run, dump the flight recorder's per-thread last-op state to
  // stderr (and to EVQ_FLIGHT_DUMP_PATH or torture_flight_dump.txt for CI
  // artifact upload). Teeth tests that wedge on purpose turn this off.
  bool dump_on_timeout = true;
};

struct TortureOutcome {
  bool timed_out = false;
  std::uint64_t points_hit = 0;
  std::uint64_t sc_failures_forced = 0;
  std::uint64_t delays = 0;
  bool stalled = false;
  verify::CheckResult conservation;
  verify::CheckResult order;

  [[nodiscard]] bool checks_ok() const { return !timed_out && conservation.ok && order.ok; }
};

/// Generic MPMC torture run: cfg.producers push preallocated tokens (stable
/// addresses, never recycled), cfg.consumers pop until every token is
/// accounted for, every thread under its own deterministic ProfileInjector.
template <typename Q>
TortureOutcome run_torture(Q& queue, const inject::Profile& profile, const TortureConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + cfg.deadline;
  // Keep the flight recorder armed so a wedged run can report what each
  // thread was doing instead of a bare timeout, and record every evq::trace
  // span (1-in-1 sampling — post-mortem fidelity beats overhead here).
  telemetry::set_tracing(true);
  trace::set_sampling(1);

  std::vector<std::vector<Token>> tokens(cfg.producers);
  for (std::size_t p = 0; p < cfg.producers; ++p) {
    tokens[p].resize(cfg.tokens_per_producer);
    for (std::uint64_t s = 0; s < cfg.tokens_per_producer; ++s) {
      tokens[p][s].producer = static_cast<std::uint32_t>(p);
      tokens[p][s].seq = s;
    }
  }

  inject::StallGate gate;
  std::vector<std::unique_ptr<inject::ProfileInjector>> injectors;
  for (std::size_t t = 0; t < cfg.producers + cfg.consumers; ++t) {
    const inject::Role role = t < cfg.producers ? inject::Role::kProducer : inject::Role::kConsumer;
    injectors.push_back(std::make_unique<inject::ProfileInjector>(
        profile, cfg.seed, static_cast<std::uint32_t>(t), role, &gate));
  }

  std::atomic<std::uint64_t> remaining{cfg.producers * cfg.tokens_per_producer};
  std::atomic<std::size_t> producers_active{cfg.producers};
  std::atomic<bool> abort{false};
  std::vector<std::uint64_t> pushed(cfg.producers, 0);
  std::vector<verify::ConsumerLog> logs(cfg.consumers);

  std::vector<std::thread> threads;
  threads.reserve(cfg.producers + cfg.consumers);
  for (std::size_t p = 0; p < cfg.producers; ++p) {
    threads.emplace_back([&, p] {
      inject::ScopedInjector install(*injectors[p]);
      // Layer 4: hardware counters for this worker, attributed to the
      // "torture" key (the run is one queue instance; its registry name is
      // not visible through the template, and one key is enough for the
      // wedge diagnosis). Flushed by the scope destructor before join.
      perf::QueuePerfScope pscope("torture");
      auto h = queue.handle();
      std::uint64_t done = 0;
      for (; done < cfg.tokens_per_producer; ++done) {
        bool ok = false;
        while (!abort.load(std::memory_order_relaxed)) {
          if (queue.try_push(h, &tokens[p][done])) {
            ok = true;
            break;
          }
          std::this_thread::yield();
        }
        if (!ok) {
          break;
        }
      }
      pscope.add_ops(done);
      pushed[p] = done;
      producers_active.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  for (std::size_t c = 0; c < cfg.consumers; ++c) {
    threads.emplace_back([&, c] {
      inject::ScopedInjector install(*injectors[cfg.producers + c]);
      perf::QueuePerfScope pscope("torture");
      auto h = queue.handle();
      std::uint64_t empty_polls = 0;
      while (remaining.load(std::memory_order_acquire) != 0) {
        if (Token* tok = queue.try_pop(h)) {
          logs[c].push_back(*tok);
          pscope.add_ops(1);
          remaining.fetch_sub(1, std::memory_order_acq_rel);
          empty_polls = 0;
        } else {
          if (abort.load(std::memory_order_relaxed)) {
            break;
          }
          if (producers_active.load(std::memory_order_acquire) == 0 &&
              ++empty_polls > cfg.stuck_poll_limit) {
            abort.store(true, std::memory_order_release);  // wedged: tokens lost
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }

  // The driver releases the run's stall victim once the run is over (a
  // victim whose park blocks completion wakes by itself: the gate's park
  // budget is bounded precisely so a stalled thread cannot deadlock a run).
  // The watchdog also pumps a health Monitor (~every 32ms) so a wedge is
  // declared WITH a diagnosis, not just raw counters. Layer 4 rides along:
  // the workers' perf scopes deposit into the global attribution table, so
  // on counting hosts the diagnosis includes cycles/op and misses/op (and
  // the cache_thrash detector is armed); on perf-denied hosts the scopes are
  // dead and the join is a no-op.
  health::MonitorOptions monitor_options;
  monitor_options.perf = &perf::AttributionTable::global();
  health::Monitor monitor(monitor_options);
  std::uint32_t watchdog_ticks = 0;
  while (remaining.load(std::memory_order_acquire) != 0 &&
         !abort.load(std::memory_order_acquire) && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (++watchdog_ticks % 32 == 0) {
      monitor.poll();
    }
  }
  if (remaining.load(std::memory_order_acquire) != 0) {
    abort.store(true, std::memory_order_release);
  }
  gate.release();
  for (std::thread& t : threads) {
    t.join();
  }

  TortureOutcome out;
  out.timed_out = abort.load(std::memory_order_acquire);
  if (out.timed_out && cfg.dump_on_timeout) {
    telemetry::dump_flight_recorder(std::cerr, /*last_n=*/8);
    const char* env_path = std::getenv("EVQ_FLIGHT_DUMP_PATH");
    const char* fmt = std::getenv("EVQ_FLIGHT_DUMP_FORMAT");
    std::ofstream dump(env_path != nullptr ? env_path : "torture_flight_dump.txt");
    if (dump) {
      if (fmt != nullptr && std::string_view(fmt) == "trace") {
        telemetry::dump_flight_recorder_chrome(dump);
      } else {
        telemetry::dump_flight_recorder(dump, /*last_n=*/32);
      }
    }
    // Health diagnosis: one final poll over the wedged state (workers are
    // joined, so a thread that died mid-op shows a frozen op_seq), dumped to
    // stderr and as a versioned JSON artifact next to the flight record.
    const health::HealthSnapshot diagnosis = monitor.poll();
    std::cerr << "=== evq health diagnosis (" << diagnosis.findings.size()
              << " finding(s)) ===\n";
    for (const health::Finding& f : diagnosis.findings) {
      std::cerr << "  [" << health::finding_type_name(f.type) << "] " << f.subject << ": "
                << f.detail << "\n";
    }
    const char* health_path = std::getenv("EVQ_HEALTH_DUMP_PATH");
    std::ofstream health_dump(health_path != nullptr ? health_path : "torture_health.json");
    if (health_dump) {
      health::health_json(health_dump, diagnosis);
    }
    // Phase-level post-mortem: the evq::trace spans of the wedged run as a
    // Perfetto-loadable Chrome trace, next to the flight record — annotated
    // with the active findings so the diagnosis opens inside Perfetto too.
    const char* trace_path = std::getenv("EVQ_TRACE_DUMP_PATH");
    std::ofstream wedge_trace(trace_path != nullptr ? trace_path : "torture_wedge_trace.json");
    if (wedge_trace) {
      trace::ExportOptions trace_opts;
      for (const health::Finding& f : diagnosis.findings) {
        trace_opts.annotations.push_back(std::string(health::finding_type_name(f.type)) + " " +
                                         f.subject + ": " + f.detail);
      }
      trace::export_chrome_trace(wedge_trace, trace_opts);
    }
  }
  out.conservation = verify::check_conservation(logs, pushed);
  out.order = verify::check_per_producer_order(logs, cfg.producers);
  for (const auto& inj : injectors) {
    out.points_hit += inj->points_hit();
    out.sc_failures_forced += inj->sc_failures_forced();
    out.delays += inj->delays();
    out.stalled = out.stalled || inj->stalled();
  }
  return out;
}

/// Single-threaded run for the non-concurrent baseline (unsync): one thread
/// interleaves pushes and pops under a kMixed injector. No injection points
/// exist in UnsyncRing, so this degenerates to a randomized smoke run — kept
/// so the matrix covers every registry name.
TortureOutcome run_unsync(const inject::Profile& profile, const TortureConfig& cfg) {
  baselines::UnsyncRing<Token> queue(cfg.capacity);
  inject::StallGate gate;
  inject::ProfileInjector injector(profile, cfg.seed, 0, inject::Role::kMixed, &gate);
  inject::ScopedInjector install(injector);

  const std::uint64_t total = cfg.tokens_per_producer;
  std::vector<Token> tokens(total);
  for (std::uint64_t s = 0; s < total; ++s) {
    tokens[s].producer = 0;
    tokens[s].seq = s;
  }

  XorShift64Star rng = XorShift64Star::for_stream(cfg.seed, 1);
  auto h = queue.handle();
  std::vector<verify::ConsumerLog> logs(1);
  std::uint64_t next_push = 0;
  std::uint64_t popped = 0;
  while (popped < total) {
    const bool want_push = next_push < total && (popped == next_push || rng.chance(1, 2));
    if (want_push && queue.try_push(h, &tokens[next_push])) {
      ++next_push;
    } else if (Token* tok = queue.try_pop(h)) {
      logs[0].push_back(*tok);
      ++popped;
    }
  }
  gate.release();

  TortureOutcome out;
  out.conservation = verify::check_conservation(logs, {total});
  out.order = verify::check_single_consumer_gapless(logs[0], 1);
  out.points_hit = injector.points_hit();
  return out;
}

// ---------------------------------------------------------------------------
// Runner table: one entry per registry queue name, mirroring the exact
// template instantiations of src/harness/src/queue_registry.cpp over Token.
// (The torture binary cannot link the registry itself — see the ODR note in
// torture_queues.hpp — so the mirror is kept honest by TortureCoverage tests
// on both sides of the divide.)
// ---------------------------------------------------------------------------

using RunFn = TortureOutcome (*)(const inject::Profile&, const TortureConfig&);

struct RunnerEntry {
  const char* name;
  RunFn run;
};

constexpr RunnerEntry kRunners[] = {
    {"fifo-llsc",
     +[](const inject::Profile& p, const TortureConfig& c) {
       LlscArrayQueue<Token, llsc::PackedLlsc> q(c.capacity);
       return run_torture(q, p, c);
     }},
    {"fifo-llsc-versioned",
     +[](const inject::Profile& p, const TortureConfig& c) {
       LlscArrayQueue<Token, llsc::VersionedLlsc> q(c.capacity);
       return run_torture(q, p, c);
     }},
    {"fifo-simcas",
     +[](const inject::Profile& p, const TortureConfig& c) {
       CasArrayQueue<Token> q(c.capacity);
       return run_torture(q, p, c);
     }},
    {"ms-hp",
     +[](const inject::Profile& p, const TortureConfig& c) {
       baselines::MsHpQueue<Token> q(hazard::ScanMode::kUnsorted, 4);
       return run_torture(q, p, c);
     }},
    {"ms-hp-sorted",
     +[](const inject::Profile& p, const TortureConfig& c) {
       baselines::MsHpQueue<Token> q(hazard::ScanMode::kSorted, 4);
       return run_torture(q, p, c);
     }},
    {"ms-doherty",
     +[](const inject::Profile& p, const TortureConfig& c) {
       baselines::MsSimQueue<Token> q;
       return run_torture(q, p, c);
     }},
    {"shann",
     +[](const inject::Profile& p, const TortureConfig& c) {
       baselines::ShannQueue<Token> q(c.capacity);
       return run_torture(q, p, c);
     }},
    {"ms-pool",
     +[](const inject::Profile& p, const TortureConfig& c) {
       baselines::MsPoolQueue<Token> q;
       return run_torture(q, p, c);
     }},
    {"ms-ebr",
     +[](const inject::Profile& p, const TortureConfig& c) {
       baselines::MsEbrQueue<Token> q;
       return run_torture(q, p, c);
     }},
    {"tsigas-zhang",
     +[](const inject::Profile& p, const TortureConfig& c) {
       baselines::TsigasZhangQueue<Token> q(c.capacity);
       return run_torture(q, p, c);
     }},
    {"mutex",
     +[](const inject::Profile& p, const TortureConfig& c) {
       baselines::MutexQueue<Token> q(c.capacity);
       return run_torture(q, p, c);
     }},
    {"unsync", +[](const inject::Profile& p, const TortureConfig& c) { return run_unsync(p, c); }},
    {"fifo-llsc-backoff",
     +[](const inject::Profile& p, const TortureConfig& c) {
       LlscArrayQueue<Token, llsc::PackedLlsc, ExpBackoff> q(c.capacity);
       return run_torture(q, p, c);
     }},
    {"fifo-simcas-backoff",
     +[](const inject::Profile& p, const TortureConfig& c) {
       CasArrayQueue<Token, ExpBackoff> q(c.capacity);
       return run_torture(q, p, c);
     }},
    // The sharded compositions do not promise per-producer FIFO under MPMC
    // (overflow/steal reorder across shards), so the order check is cleared;
    // conservation and wedge-freedom are still asserted in full.
    {"sharded-llsc",
     +[](const inject::Profile& p, const TortureConfig& c) {
       ShardedQueue<LlscArrayQueue<Token, llsc::PackedLlsc>> q(c.capacity * 4, 4);
       TortureOutcome out = run_torture(q, p, c);
       out.order = {};
       return out;
     }},
    {"sharded-simcas",
     +[](const inject::Profile& p, const TortureConfig& c) {
       ShardedQueue<CasArrayQueue<Token>> q(c.capacity * 4, 4);
       TortureOutcome out = run_torture(q, p, c);
       out.order = {};
       return out;
     }},
    {"scq",
     +[](const inject::Profile& p, const TortureConfig& c) {
       ScqQueue<Token> q(c.capacity);
       return run_torture(q, p, c);
     }},
    {"sharded-scq",
     +[](const inject::Profile& p, const TortureConfig& c) {
       ShardedQueue<ScqQueue<Token>> q(c.capacity * 4, 4);
       TortureOutcome out = run_torture(q, p, c);
       out.order = {};
       return out;
     }},
    // The segmented compositions are unbounded, so the capacity knob sizes
    // individual SEGMENTS instead — and deliberately small (16 slots), so
    // every run churns through many seal/append/retire transitions with
    // injectors parked at the segment lifecycle points. Per-producer FIFO
    // carries across segments (segments drain in link order, each ring is
    // FIFO), so the order check stays on for the unsharded pair.
    {"seg-cas",
     +[](const inject::Profile& p, const TortureConfig& c) {
       SegmentedQueue<CasArrayQueue<Token>> q(16, "seg-cas");
       return run_torture(q, p, c);
     }},
    {"seg-scq",
     +[](const inject::Profile& p, const TortureConfig& c) {
       SegmentedQueue<ScqQueue<Token>> q(16, "seg-scq");
       return run_torture(q, p, c);
     }},
    {"sharded-seg-scq",
     +[](const inject::Profile& p, const TortureConfig& c) {
       ShardedQueue<SegmentedQueue<ScqQueue<Token>>> q(16 * 4, 4, "sharded-seg-scq");
       TortureOutcome out = run_torture(q, p, c);
       out.order = {};
       return out;
     }},
    // The combining facade stays linearizable FIFO (announced ops linearize
    // at the combiner's batch application), so the order check stays ON —
    // and the injectors now park threads inside the INNER ring while peers
    // wait on announce records, stressing the withdraw/cancel escape path.
    {"comb-cas",
     +[](const inject::Profile& p, const TortureConfig& c) {
       CombiningQueue<CasArrayQueue<Token>> q(c.capacity, "comb-cas");
       return run_torture(q, p, c);
     }},
};

const RunnerEntry* find_runner(std::string_view name) {
  for (const RunnerEntry& entry : kRunners) {
    if (name == entry.name) {
      return &entry;
    }
  }
  return nullptr;
}

/// Queues with no injection points: torture degrades to a plain stress run.
bool has_injection_points(std::string_view name) {
  return name != "mutex" && name != "unsync";
}

constexpr const char* kProfileNames[] = {
    "sc-storm",
    "stalled-consumer",
    "reclaim-pressure",
    "kill-mid-enqueue",
};

// ---------------------------------------------------------------------------
// TortureCoverage
// ---------------------------------------------------------------------------

TEST(TortureCoverage, RunnerTableMatchesSharedQueueList) {
  ASSERT_EQ(std::size(kRunners), testing::kTortureCoveredQueueCount);
  for (std::size_t i = 0; i < std::size(kRunners); ++i) {
    EXPECT_STREQ(kRunners[i].name, testing::kTortureCoveredQueues[i]);
  }
}

TEST(TortureCoverage, ProfileListMatchesRegisteredProfiles) {
  const auto& profiles = inject::all_profiles();
  ASSERT_EQ(profiles.size(), std::size(kProfileNames));
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_STREQ(profiles[i].name, kProfileNames[i]);
  }
}

// ---------------------------------------------------------------------------
// TortureMatrix: every queue x every profile
// ---------------------------------------------------------------------------

class TortureMatrix : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {};

TEST_P(TortureMatrix, StreamChecksHoldUnderProfile) {
  const auto [queue_name, profile_name] = GetParam();
  const RunnerEntry* entry = find_runner(queue_name);
  ASSERT_NE(entry, nullptr) << queue_name;
  const inject::Profile& profile = inject::find_profile(profile_name);

  TortureConfig cfg;
  const TortureOutcome out = entry->run(profile, cfg);

  EXPECT_FALSE(out.timed_out) << queue_name << " wedged under " << profile_name
                              << " (tokens unaccounted for or deadline hit)";
  EXPECT_TRUE(out.conservation.ok) << out.conservation.reason;
  EXPECT_TRUE(out.order.ok) << out.order.reason;
  if (has_injection_points(queue_name)) {
    EXPECT_GT(out.points_hit, 0u) << "profile " << profile_name
                                  << " never reached an injection point in " << queue_name;
  }
}

std::string matrix_test_name(const ::testing::TestParamInfo<TortureMatrix::ParamType>& info) {
  std::string name = std::string(std::get<0>(info.param)) + "_" + std::get<1>(info.param);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllQueuesAllProfiles, TortureMatrix,
                         ::testing::Combine(::testing::ValuesIn(testing::kTortureCoveredQueues),
                                            ::testing::ValuesIn(kProfileNames)),
                         matrix_test_name);

// ---------------------------------------------------------------------------
// TortureTeeth: the harness must catch a deliberately broken queue
// ---------------------------------------------------------------------------

/// The weakened slot cell: LL/SC "emulated" by a bare CAS with NO version —
/// exactly the mistake the paper's Sec. 3 versioning exists to prevent. The
/// injection point inside sc() sits after the caller's index re-validation
/// (Fig. 3 E10) and before the CAS, so a parked thread's stale null-expected
/// CAS can land on a slot the queue has since wrapped and drained.
template <typename T>
class PlainCasCell {
 public:
  using value_type = T;

  class Link {
   public:
    [[nodiscard]] T value() const noexcept { return snap_; }

   private:
    friend class PlainCasCell;
    explicit Link(T snap) noexcept : snap_(snap) {}
    T snap_;
  };

  PlainCasCell() noexcept : word_(T{}) {}

  PlainCasCell(const PlainCasCell&) = delete;
  PlainCasCell& operator=(const PlainCasCell&) = delete;

  [[nodiscard]] Link ll() noexcept { return Link{word_.load(std::memory_order_seq_cst)}; }

  bool sc(Link link, T desired) noexcept {
    EVQ_INJECT_POINT("plaincas.sc.window");  // the unprotected LL -> CAS gap
    T expected = link.snap_;
    return word_.compare_exchange_strong(expected, desired, std::memory_order_seq_cst);
  }

  [[nodiscard]] bool validate(Link link) noexcept {
    return word_.load(std::memory_order_seq_cst) == link.snap_;
  }

  [[nodiscard]] T load() noexcept { return word_.load(std::memory_order_seq_cst); }

 private:
  std::atomic<T> word_;
};

static_assert(llsc::LlscCell<PlainCasCell<Token*>>);

/// Scripted ABA: park a pusher inside PlainCasCell::sc (after E10 passed),
/// wrap and drain the capacity-2 queue under it, then let its stale
/// expected-null CAS land. The push reports success but the token is
/// invisible: Head == Tail says "empty" while the token sits in the slot.
TEST(TortureTeeth, PlainCasLosesTokenUnderScriptedTakeover) {
  LlscArrayQueue<Token, PlainCasCell> q(2);
  inject::StallGate gate(1u << 22);
  const inject::Profile script{"scripted-plaincas-stall",
                               "park one pusher inside the weakened cell's sc",
                               /*sc_fail=*/0, 100, "",
                               /*delay=*/0, 100, 0, "",
                               /*stall=*/"plaincas.sc.window", inject::Role::kAny};

  Token x{0, 0};
  Token y{1, 0};
  Token z{1, 1};
  std::thread victim([&] {
    inject::ProfileInjector injector(script, /*seed=*/1, /*thread_id=*/0,
                                     inject::Role::kProducer, &gate);
    inject::ScopedInjector install(injector);
    auto h = q.handle();
    EXPECT_TRUE(q.try_push(h, &x));  // reports success — but see below
  });
  for (int i = 0; i < 1 << 22 && !gate.parked(); ++i) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(gate.parked()) << "victim never reached plaincas.sc.window";

  auto h = q.handle();
  ASSERT_TRUE(q.try_push(h, &y));
  ASSERT_TRUE(q.try_push(h, &z));
  ASSERT_EQ(q.try_pop(h), &y);
  ASSERT_EQ(q.try_pop(h), &z);
  // Head == Tail == 2 -> the victim's slot (index 0) is null again. Without
  // a version, its stale CAS cannot tell this state from the one it linked.
  gate.release();
  victim.join();

  EXPECT_EQ(q.try_pop(h), nullptr) << "expected the weakened queue to lose the token";
}

/// Control: the identical schedule against the real PackedLlsc cell. The
/// victim parks inside sc() at the same spot (the packed_llsc.sc SC_FAILS
/// site doubles as a stallable point); its stale sc then FAILS on the version
/// bump, the push retries cleanly, and the token comes out.
TEST(TortureTeeth, PackedLlscSurvivesSameSchedule) {
  LlscArrayQueue<Token, llsc::PackedLlsc> q(2);
  inject::StallGate gate(1u << 22);
  const inject::Profile script{"scripted-packed-stall",
                               "park one pusher inside PackedLlsc::sc",
                               /*sc_fail=*/0, 100, "",
                               /*delay=*/0, 100, 0, "",
                               /*stall=*/"packed_llsc.sc", inject::Role::kAny};

  Token x{0, 0};
  Token y{1, 0};
  Token z{1, 1};
  std::thread victim([&] {
    inject::ProfileInjector injector(script, /*seed=*/1, /*thread_id=*/0,
                                     inject::Role::kProducer, &gate);
    inject::ScopedInjector install(injector);
    auto h = q.handle();
    EXPECT_TRUE(q.try_push(h, &x));
  });
  for (int i = 0; i < 1 << 22 && !gate.parked(); ++i) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(gate.parked()) << "victim never reached packed_llsc.sc";

  auto h = q.handle();
  ASSERT_TRUE(q.try_push(h, &y));
  ASSERT_TRUE(q.try_push(h, &z));
  ASSERT_EQ(q.try_pop(h), &y);
  ASSERT_EQ(q.try_pop(h), &z);
  gate.release();
  victim.join();

  EXPECT_EQ(q.try_pop(h), &x) << "the versioned queue must deliver the retried push";
  EXPECT_EQ(q.try_pop(h), nullptr);
}

/// The stochastic requirement: sc-storm (yield bursts inside the unprotected
/// CAS window, SC noise on the index cells) must find the weakened queue's
/// bug on its own within a bounded number of short rounds. Detection shows
/// up as token loss (conservation / wedge) or as a zombie token revived out
/// of order.
TEST(TortureTeeth, PlainCasFailsUnderScStorm) {
  const inject::Profile& storm = inject::find_profile("sc-storm");
  TortureConfig cfg;
  cfg.producers = 2;
  cfg.consumers = 2;
  cfg.tokens_per_producer = 64;
  cfg.capacity = 2;
  cfg.stuck_poll_limit = 20000;
  cfg.deadline = std::chrono::milliseconds(5000);
  cfg.dump_on_timeout = false;  // this test WANTS wedged runs; don't spam dumps

  bool detected = false;
  for (std::uint64_t round = 0; round < 2000 && !detected; ++round) {
    cfg.seed = 0x7053ull + round * 0x9E3779B9ull;
    LlscArrayQueue<Token, PlainCasCell> q(cfg.capacity);
    const TortureOutcome out = run_torture(q, storm, cfg);
    detected = !out.checks_ok();
  }
  EXPECT_TRUE(detected) << "sc-storm failed to expose the version-free CAS queue";
}

}  // namespace
}  // namespace evq
