// evq-top: a live terminal view of the evq::health layer — the third and
// fourth observability layers end to end in one screen.
//
// Spawns a deliberately unbalanced workload over three queue families (a
// flat CAS ring, an SCQ ring, and a flat-combining facade), runs a health
// Monitor over the global registry, and redraws a top(1)-style panel each
// poll: per-queue derived rates, op-span latency percentiles, hardware
// cycles/op and IPC (evq::perf, when the host lets us count), per-thread
// progress, and whatever findings the Diagnoser currently holds active.
// On perf-denied hosts the panel says so explicitly instead of silently
// dropping the columns.
//
// Build & run:   ./build/examples/evq-top [polls] [interval_ms] [--once]
//                [--json]
//
//   --once   single poll, plain dump, no screen clearing (CI smoke mode)
//   --json   print the versioned health_json document after the last poll
//
// Nothing here is example-only instrumentation: the same Monitor pumped by
// the torture watchdog and `evq-bench --health` drives the display.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string_view>
#include <thread>
#include <vector>

#include "evq/core/cas_array_queue.hpp"
#include "evq/core/combining_queue.hpp"
#include "evq/core/scq_queue.hpp"
#include "evq/health/health.hpp"
#include "evq/health/monitor.hpp"
#include "evq/perf/backend.hpp"
#include "evq/perf/perf.hpp"
#include "evq/telemetry/flight_recorder.hpp"

namespace {

struct Job {
  int id;
};

template <typename Q>
void churn(Q& queue, const char* name, std::atomic<bool>& stop, unsigned push_bias_pct) {
  // Layer 4: this thread's hardware counters, attributed to `name` in the
  // global table. Flushed periodically so the Monitor's per-poll delta sees
  // fresh numbers, not one lump at thread exit.
  evq::perf::QueuePerfScope pscope(name);
  auto h = queue.handle();
  Job jobs[32];
  unsigned next = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    ++next;
    if (next % 100 < push_bias_pct) {
      Job* j = &jobs[next % 32];
      j->id = static_cast<int>(next);
      if (!queue.try_push(h, j)) {
        (void)queue.try_pop(h);
      }
    } else {
      (void)queue.try_pop(h);
    }
    pscope.add_ops(1);
    if (next % 8192 == 0) {
      pscope.flush();
    }
  }
  while (queue.try_pop(h) != nullptr) {
  }
}

void draw(const evq::health::HealthSnapshot& snap, bool clear) {
  if (clear) {
    std::printf("\x1b[2J\x1b[H");  // clear + home, like top(1)
  }
  std::printf("evq-top — poll %llu\n", static_cast<unsigned long long>(snap.poll));
  const evq::perf::Backend& backend = evq::perf::default_backend();
  if (!backend.available()) {
    std::printf("perf: unavailable (%s)\n", backend.unavailable_reason().c_str());
  }
  std::printf("%-18s %10s %8s %8s %8s %8s %9s %9s %9s %6s\n", "QUEUE", "ops", "casfail",
              "skip/op", "faawaste", "combeng", "p50push", "p99push", "cyc/op", "ipc");
  for (const evq::health::QueueRates& q : snap.queues) {
    if (q.ops == 0 && !q.perf_live) {
      continue;
    }
    std::printf("%-18s %10llu %8.3f %8.3f %8.3f %8.3f %9.0f %9.0f", q.queue.c_str(),
                static_cast<unsigned long long>(q.ops), q.cas_fail_ratio, q.slot_skip_per_op,
                q.faa_waste, q.comb_engagement, q.push_p50_ns, q.push_p99_ns);
    if (q.perf_live && q.cycles_per_op >= 0.0) {
      std::printf(" %9.0f", q.cycles_per_op);
    } else {
      std::printf(" %9s", "-");
    }
    if (q.perf_live && q.ipc >= 0.0) {
      std::printf(" %6.2f\n", q.ipc);
    } else {
      std::printf(" %6s\n", "-");
    }
  }
  std::printf("\n%-8s %6s %12s %8s  %s\n", "THREAD", "live", "op_seq", "stalled", "last op");
  for (const evq::health::ThreadProgress& t : snap.threads) {
    std::printf("%-8u %6s %12llu %8u  %s %s[%llu]\n", t.thread_ord, t.live ? "yes" : "no",
                static_cast<unsigned long long>(t.op_seq), t.stalled_polls,
                t.last_op.c_str(), t.last_queue.c_str(),
                static_cast<unsigned long long>(t.last_index));
  }
  std::printf("\nFINDINGS (%zu active)\n", snap.findings.size());
  for (const evq::health::Finding& f : snap.findings) {
    std::printf("  [%s] %s: %s (since poll %llu)\n", evq::health::finding_type_name(f.type),
                f.subject.c_str(), f.detail.c_str(),
                static_cast<unsigned long long>(f.since_poll));
  }
  if (snap.findings.empty()) {
    std::printf("  (none — system healthy)\n");
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool once = false;
  bool json = false;
  std::vector<const char*> positional;
  for (int a = 1; a < argc; ++a) {
    const std::string_view arg = argv[a];
    if (arg == "--once") {
      once = true;
    } else if (arg == "--json") {
      json = true;
    } else {
      positional.push_back(argv[a]);
    }
  }
  const int polls = once ? 1 : (positional.size() > 0 ? std::atoi(positional[0]) : 10);
  const int interval_ms = positional.size() > 1 ? std::atoi(positional[1]) : 500;

  // Tracing feeds the per-thread progress panel (and the stall detector).
  evq::telemetry::set_tracing(true);

  evq::CasArrayQueue<Job> cas(256, "top-cas");
  evq::ScqQueue<Job> scq(256, "top-scq");
  evq::CombiningQueue<evq::CasArrayQueue<Job>> comb(256, "top-comb");

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.emplace_back([&] { churn(cas, "top-cas", stop, 60); });
  workers.emplace_back([&] { churn(cas, "top-cas", stop, 40); });
  workers.emplace_back([&] { churn(scq, "top-scq", stop, 70); });  // push-heavy: skips + waste
  workers.emplace_back([&] { churn(scq, "top-scq", stop, 30); });
  workers.emplace_back([&] { churn(comb, "top-comb", stop, 50); });
  workers.emplace_back([&] { churn(comb, "top-comb", stop, 50); });

  evq::health::MonitorOptions mopts;  // op-span sampling on at 1-in-64
  mopts.perf = &evq::perf::AttributionTable::global();  // layer 4 joined in
  evq::health::Monitor monitor(mopts);
  evq::health::HealthSnapshot snap;
  for (int p = 0; p < polls; ++p) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    snap = monitor.poll();
    draw(snap, /*clear=*/!once);
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) {
    t.join();
  }

  if (json) {
    evq::health::health_json(std::cout, snap);
  }
  return 0;
}
