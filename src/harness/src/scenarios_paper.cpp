// The reproduced experiments of DESIGN.md §5 as declarative scenarios: every
// Fig. 6 figure, in-text table, ablation and extension that used to be its
// own bench binary is a ScenarioSpec here, compiled into the single
// evq-bench driver. Expected shapes and paper quotes live with each
// definition; the CSV printers are byte-compatible with the pre-refactor
// binaries.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "evq/baselines/ms_hp_queue.hpp"
#include "evq/common/op_stats.hpp"
#include "evq/common/spin_barrier.hpp"
#include "evq/core/cas_array_queue.hpp"
#include "evq/core/llsc_array_queue.hpp"
#include "evq/core/scq_queue.hpp"
#include "evq/core/segmented_queue.hpp"
#include "evq/harness/scenario.hpp"
#include "evq/llsc/versioned_llsc.hpp"
#include "evq/llsc/weak_llsc.hpp"

namespace evq::harness {

namespace {

// ---------------------------------------------------------------------------
// Fig. 6a/6c — LL/SC machine analog. Algorithms in the paper's legend order.
//
// Expected shape (paper): FIFO Array LL/SC fastest (~27% faster than FIFO
// Array Simulated CAS); MS-HP best at moderate thread counts, overtaken by
// the array queues as threads grow; MS-Doherty slowest everywhere.
// ---------------------------------------------------------------------------

const std::vector<std::string> kFig6aAlgos = {"ms-doherty", "fifo-simcas", "ms-hp",
                                              "ms-hp-sorted", "fifo-llsc"};

// In-text claim T3: "Our LL/SC-based implementation is the fastest and it is
// approximately 27% faster than our CAS-based implementation." Reported as
// per-thread-count speedups and their geometric mean — ratioing sums of
// means across the sweep would weight high-thread-count rows arbitrarily.
void print_t3_claim(const ScenarioResult& result) {
  const ScenarioSeries* llsc = result.series_named("fifo-llsc");
  const ScenarioSeries* simcas = result.series_named("fifo-simcas");
  if (llsc == nullptr || simcas == nullptr) {
    return;
  }
  std::printf("\nLL/SC vs Simulated-CAS speedup (simcas mean / llsc mean, per thread "
              "count):\n");
  std::printf("%8s %10s\n", "threads", "speedup");
  double log_sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const double l = llsc->cells[i].time.mean;
    const double s = simcas->cells[i].time.mean;
    if (l <= 0.0 || s <= 0.0) {
      continue;
    }
    const double ratio = s / l;
    std::printf("%8s %+9.1f%%\n", result.rows[i].label.c_str(), (ratio - 1.0) * 100.0);
    log_sum += std::log(ratio);
    ++n;
  }
  if (n > 0) {
    std::printf("geomean: %+.1f%% (paper: ~27%%)\n",
                (std::exp(log_sum / static_cast<double>(n)) - 1.0) * 100.0);
  }
}

ScenarioSpec fig6a_spec() {
  ScenarioSpec spec;
  spec.name = "fig6a";
  spec.title = "Fig. 6a: actual running time, LL/SC machine analog";
  spec.summary = "Fig. 6a — running time vs threads, LL/SC machine (+ T3 speedup claim)";
  spec.default_threads = {1, 2, 4, 8, 16, 32};
  spec.rows = thread_rows;
  spec.series = registry_series(kFig6aAlgos);
  spec.print_table = [](const ScenarioResult& r, const CliOptions& o) {
    print_absolute(r, o, r.title);
    print_t3_claim(r);
  };
  return spec;
}

ScenarioSpec fig6c_spec() {
  ScenarioSpec spec;
  spec.name = "fig6c";
  spec.title = "Fig. 6c: normalized running time, LL/SC machine analog";
  spec.summary = "Fig. 6c — Fig. 6a normalized to FIFO Array Simulated CAS";
  spec.default_threads = {1, 2, 4, 8, 16, 32};
  spec.rows = thread_rows;
  spec.series = registry_series(kFig6aAlgos);
  spec.print_table = [](const ScenarioResult& r, const CliOptions& o) {
    print_normalized(r, o, r.title, "fifo-simcas");
  };
  spec.print_csv = spec.print_table;
  return spec;
}

// ---------------------------------------------------------------------------
// Fig. 6b/6d — CAS machine analog, with Shann et al. (wide CAS).
//
// Expected shape (paper): Shann and FIFO Simulated CAS within ~5% of each
// other; MS-HP competitive at moderate thread counts; MS-Doherty slowest.
// ---------------------------------------------------------------------------

const std::vector<std::string> kFig6bAlgos = {"ms-doherty", "ms-hp", "ms-hp-sorted",
                                              "fifo-simcas", "shann"};

ScenarioSpec fig6b_spec() {
  ScenarioSpec spec;
  spec.name = "fig6b";
  spec.title = "Fig. 6b: actual running time, CAS machine analog";
  spec.summary = "Fig. 6b — running time vs threads, CAS machine (incl. Shann wide-CAS)";
  spec.default_threads = {1, 4, 8, 16, 32, 64};
  spec.rows = thread_rows;
  spec.series = registry_series(kFig6bAlgos);
  return spec;
}

ScenarioSpec fig6d_spec() {
  ScenarioSpec spec;
  spec.name = "fig6d";
  spec.title = "Fig. 6d: normalized running time, CAS machine analog";
  spec.summary = "Fig. 6d — Fig. 6b normalized to FIFO Array Simulated CAS";
  spec.default_threads = {1, 4, 8, 16, 32, 64};
  spec.rows = thread_rows;
  spec.series = registry_series(kFig6bAlgos);
  spec.print_table = [](const ScenarioResult& r, const CliOptions& o) {
    print_normalized(r, o, r.title, "fifo-simcas");
  };
  spec.print_csv = spec.print_table;
  return spec;
}

// ---------------------------------------------------------------------------
// In-text experiment T1 (Sec. 6): single-thread overhead of each
// synchronized implementation over an unsynchronized array ring.
//
// Paper numbers: "Our LL/SC and CAS-based implementations are respectively
// 12% and 50% slower on the PowerPC, and the CAS-based implementation is
// 90% slower on the AMD."
// ---------------------------------------------------------------------------

ScenarioSpec overhead_spec() {
  ScenarioSpec spec;
  spec.name = "overhead";
  spec.title = "Single-thread overhead vs unsynchronized ring (Sec. 6 in-text)";
  spec.summary = "Sec. 6 in-text T1 — single-thread overhead vs unsynchronized array";
  spec.default_threads = {1};
  spec.default_iters = 20000;
  spec.default_runs = 3;
  spec.rows = [](const CliOptions& opts) {
    // Single-threaded by definition: the sweep override is ignored.
    WorkloadParams p = opts.workload;
    p.threads = 1;
    return std::vector<ScenarioRow>{{"1", p}};
  };
  spec.series = registry_series({"unsync", "fifo-llsc", "fifo-llsc-versioned", "fifo-simcas",
                                 "shann", "ms-hp", "ms-doherty", "mutex"});
  const auto base_of = [](const ScenarioResult& r) {
    const ScenarioSeries* unsync = r.series_named("unsync");
    return unsync != nullptr ? unsync->cells[0].time.mean : 0.0;
  };
  spec.print_table = [base_of](const ScenarioResult& r, const CliOptions&) {
    const double base = base_of(r);
    std::printf("== Single-thread overhead vs unsynchronized ring (Sec. 6 in-text) ==\n");
    std::printf("(paper: LL/SC +12%%, Simulated CAS +50%% (PowerPC) / +90%% (AMD))\n");
    std::printf("%-18s  %-32s  %10s  %9s\n", "queue", "paper label", "seconds", "overhead");
    for (const ScenarioSeries& s : r.series) {
      std::printf("%-18s  %-32s  %10.4f  %+8.1f%%\n", s.name.c_str(), s.label.c_str(),
                  s.cells[0].time.mean, (s.cells[0].time.mean / base - 1.0) * 100.0);
    }
  };
  spec.print_csv = [base_of](const ScenarioResult& r, const CliOptions&) {
    const double base = base_of(r);
    std::printf("queue,seconds,overhead_pct\n");
    for (const ScenarioSeries& s : r.series) {
      std::printf("%s,%.6f,%.1f\n", s.name.c_str(), s.cells[0].time.mean,
                  (s.cells[0].time.mean / base - 1.0) * 100.0);
    }
  };
  return spec;
}

// ---------------------------------------------------------------------------
// In-text experiment T2b: per-operation atomic-instruction profile, measured
// from the running implementations (custom runner: not a workload sweep).
//
// The paper's cost accounting, checked row by row: MS = 2/1 successful CAS,
// SimCAS = 3 CAS + 2 FAA, Shann = narrow+wide CAS, Doherty = 7 CAS.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kProfileOps = 1024;  // < capacity: every push must land

/// Measures per-op counter deltas over `ops` uncontended pushes, then `ops`
/// pops. `ops` must be below the queue capacity so no push reports full.
void profile_uncontended(const QueueSpec& spec, std::uint64_t ops, stats::OpCounters& push,
                         stats::OpCounters& pop) {
  auto queue = spec.make(2048);
  auto handle = queue->handle();
  std::vector<Payload> payloads(ops);
  // Warm up: one pair so lazily-created structures (dummy nodes, pool)
  // do not pollute the counts.
  (void)handle->try_push(&payloads[0]);
  (void)handle->try_pop();
  {
    stats::ScopedOpRecording rec(push);
    for (std::uint64_t i = 0; i < ops; ++i) {
      (void)handle->try_push(&payloads[i]);
    }
  }
  {
    stats::ScopedOpRecording rec(pop);
    for (std::uint64_t i = 0; i < ops; ++i) {
      (void)handle->try_pop();
    }
  }
}

/// Per-op counters for one thread of a 2-thread contended run.
void profile_contended(const QueueSpec& spec, std::uint64_t ops, stats::OpCounters& pair) {
  auto queue = spec.make(64);
  SpinBarrier barrier(2);
  std::thread other([&] {
    auto handle = queue->handle();
    static Payload p;
    barrier.wait();
    for (std::uint64_t i = 0; i < ops; ++i) {
      while (!handle->try_push(&p)) {
      }
      while (handle->try_pop() == nullptr) {
      }
    }
  });
  {
    auto handle = queue->handle();
    static Payload p;
    barrier.wait();
    stats::ScopedOpRecording rec(pair);  // both phases recorded together
    for (std::uint64_t i = 0; i < ops; ++i) {
      while (!handle->try_push(&p)) {
      }
      while (handle->try_pop() == nullptr) {
      }
    }
  }
  other.join();
}

void print_profile_row(const std::string& name, const char* op, const stats::OpCounters& c,
                       std::uint64_t ops, bool csv) {
  const double n = static_cast<double>(ops);
  if (csv) {
    std::printf("%s,%s,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f\n", name.c_str(), op, c.cas_attempts / n,
                c.cas_success / n, c.wide_cas_attempts / n, c.wide_cas_success / n,
                c.wide_loads / n, c.faa / n);
  } else {
    std::printf("%-18s %-9s %8.2f %8.2f %9.2f %9.2f %9.2f %7.2f\n", name.c_str(), op,
                c.cas_attempts / n, c.cas_success / n, c.wide_cas_attempts / n,
                c.wide_cas_success / n, c.wide_loads / n, c.faa / n);
  }
}

ScenarioSpec op_profile_spec() {
  ScenarioSpec spec;
  spec.name = "op-profile";
  spec.title = "Per-operation atomic-instruction profile";
  spec.summary = "Sec. 6 in-text T2b — per-op atomic-instruction counts per algorithm";
  spec.axis = "op";
  spec.default_threads = {1};
  spec.run = [](const ScenarioSpec& self, const CliOptions& opts) {
    const std::vector<std::string> algos = {"fifo-llsc", "fifo-llsc-versioned", "fifo-simcas",
                                            "shann",     "ms-hp",               "ms-pool",
                                            "ms-doherty"};
    ScenarioResult result;
    result.name = self.name;
    result.title = self.title;
    result.axis = self.axis;
    WorkloadParams uncontended = opts.workload;
    uncontended.threads = 1;
    WorkloadParams contended = opts.workload;
    contended.threads = 2;
    result.rows = {{"enqueue", uncontended}, {"dequeue", uncontended}, {"pair", contended}};
    for (const std::string& name : algos) {
      const QueueSpec& queue = find_queue(name);
      std::fprintf(stderr, "# %-18s profiling ...\n", queue.name.c_str());
      ScenarioSeries series{queue.name, queue.paper_label, std::vector<CellStats>(3)};
      profile_uncontended(queue, kProfileOps, series.cells[0].ops, series.cells[1].ops);
      profile_contended(queue, kProfileOps / 4, series.cells[2].ops);
      series.cells[0].has_ops = series.cells[1].has_ops = series.cells[2].has_ops = true;
      series.cells[0].total_ops = series.cells[1].total_ops = kProfileOps;
      series.cells[2].total_ops = kProfileOps / 4;
      result.series.push_back(std::move(series));
    }
    return result;
  };
  const auto print = [](const ScenarioResult& r, bool csv) {
    if (csv) {
      std::printf("queue,op,cas,cas_ok,wcas,wcas_ok,wload,faa\n");
    } else {
      std::printf("== Per-operation atomic-instruction profile (uncontended) ==\n");
      std::printf(
          "(counts per queue operation; paper Sec. 6 quotes: MS = 2/1 successful CAS,\n");
      std::printf(" SimCAS = 3 CAS + 2 FAA, Shann = narrow+wide CAS, Doherty = 7 CAS)\n");
      std::printf("%-18s %-9s %8s %8s %9s %9s %9s %7s\n", "queue", "op", "cas", "cas_ok",
                  "wcas", "wcas_ok", "wload", "faa");
    }
    for (const ScenarioSeries& s : r.series) {
      print_profile_row(s.name, "enqueue", s.cells[0].ops, s.cells[0].total_ops, csv);
      print_profile_row(s.name, "dequeue", s.cells[1].ops, s.cells[1].total_ops, csv);
    }
    if (!csv) {
      std::printf("\n== Same, one thread of a 2-thread contended run (enq+deq pairs) ==\n");
      std::printf("%-18s %-9s %8s %8s %9s %9s %9s %7s\n", "queue", "op", "cas", "cas_ok",
                  "wcas", "wcas_ok", "wload", "faa");
    }
    for (const ScenarioSeries& s : r.series) {
      print_profile_row(s.name, "pair", s.cells[2].ops, s.cells[2].total_ops, csv);
    }
  };
  spec.print_table = [print](const ScenarioResult& r, const CliOptions&) { print(r, false); };
  spec.print_csv = [print](const ScenarioResult& r, const CliOptions&) { print(r, true); };
  return spec;
}

// ---------------------------------------------------------------------------
// Ablation A1 (DESIGN.md §5): cost of the LL/SC emulation policy under
// Algorithm 1, supporting the paper's Sec. 5 portability discussion.
//
//   fifo-llsc          48-bit pointer + 16-bit version, single 64-bit word
//   fifo-llsc-versioned {value, 64-bit version} via cmpxchg16b
//   weak variants      spurious SC failure injected at 5% / 25% (hardware
//                      limitation #3) — measures retry-loop resilience.
// ---------------------------------------------------------------------------

template <typename T>
using Weak5 = llsc::WeakLlsc<llsc::VersionedLlsc<T>, 5>;
template <typename T>
using Weak25 = llsc::WeakLlsc<llsc::VersionedLlsc<T>, 25>;

/// Local (non-registry) specs for the weak variants.
QueueSpec weak_spec(const std::string& name, const std::string& label, int which) {
  QueueFactory make;
  if (which == 5) {
    make = [](std::size_t cap) -> std::unique_ptr<AnyQueue> {
      return std::make_unique<QueueAdapter<LlscArrayQueue<Payload, Weak5>>>(cap);
    };
  } else {
    make = [](std::size_t cap) -> std::unique_ptr<AnyQueue> {
      return std::make_unique<QueueAdapter<LlscArrayQueue<Payload, Weak25>>>(cap);
    };
  }
  return QueueSpec{name, label, true, true, true, std::move(make)};
}

ScenarioSpec ablation_llsc_spec() {
  ScenarioSpec spec;
  spec.name = "ablation-llsc";
  spec.title = "Ablation A1: LL/SC emulation policy under Algorithm 1";
  spec.summary = "Ablation A1 — LL/SC emulation policy & spurious-failure cost";
  spec.default_threads = {1, 4, 16};
  spec.default_iters = 3000;
  spec.default_runs = 2;
  spec.rows = thread_rows;
  spec.series = []() {
    std::vector<QueueSpec> specs;
    specs.push_back(find_queue("fifo-llsc"));
    specs.push_back(find_queue("fifo-llsc-versioned"));
    specs.push_back(weak_spec("fifo-llsc-weak5", "LL/SC, 5% spurious SC failure", 5));
    specs.push_back(weak_spec("fifo-llsc-weak25", "LL/SC, 25% spurious SC failure", 25));
    return specs;
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Ablation A2 (DESIGN.md §5): hazard-pointer scan strategy and free
// threshold for the MS-HP baseline.
//
// The paper fixes the threshold at 4x the thread count ("huge waste of
// memory [but] the cost to reclaim the nodes becomes fairly low") and
// observes that SORTING the collected hazard array pays off once the thread
// count is moderate-to-high.
// ---------------------------------------------------------------------------

QueueSpec hp_spec(hazard::ScanMode mode, std::size_t multiplier) {
  const std::string name = std::string("ms-hp-") +
                           (mode == hazard::ScanMode::kSorted ? "sorted" : "linear") + "-x" +
                           std::to_string(multiplier);
  QueueFactory make = [mode, multiplier](std::size_t) -> std::unique_ptr<AnyQueue> {
    return std::make_unique<QueueAdapter<baselines::MsHpQueue<Payload>>>(mode, multiplier);
  };
  return QueueSpec{name, name, false, true, true, std::move(make)};
}

ScenarioSpec ablation_hp_spec() {
  ScenarioSpec spec;
  spec.name = "ablation-hp";
  spec.title = "Ablation A2: MS-HP scan mode x free threshold";
  spec.summary = "Ablation A2 — hazard-pointer scan mode x free threshold";
  spec.default_threads = {2, 8, 16};
  spec.default_iters = 3000;
  spec.default_runs = 2;
  spec.rows = thread_rows;
  spec.series = []() {
    std::vector<QueueSpec> specs;
    for (hazard::ScanMode mode : {hazard::ScanMode::kUnsorted, hazard::ScanMode::kSorted}) {
      for (std::size_t multiplier : {1, 4, 16}) {
        specs.push_back(hp_spec(mode, multiplier));
      }
    }
    return specs;
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Ablation A3 (DESIGN.md §5): array capacity vs throughput for the two
// contributed queues.
//
// Capacity is the array queues' only tuning knob: a small array maximizes
// index wraparound and full/empty stalls (the regime where Sec. 3's ABA
// analysis matters), a large array spreads contention across slots. Burst is
// fixed at 1 so even the smallest capacity stays deadlock-free at every
// thread count.
// ---------------------------------------------------------------------------

ScenarioSpec ablation_capacity_spec() {
  ScenarioSpec spec;
  spec.name = "ablation-capacity";
  spec.title = "Ablation A3: capacity sweep";
  spec.summary = "Ablation A3 — array capacity vs throughput (burst=1)";
  spec.axis = "capacity";
  spec.default_threads = {4};
  spec.default_iters = 20000;
  spec.default_runs = 2;
  spec.rows = [](const CliOptions& opts) {
    const std::vector<std::size_t> capacities = {16, 64, 256, 1024, 4096};
    std::vector<ScenarioRow> rows;
    for (std::size_t cap : capacities) {
      WorkloadParams p = opts.workload;
      p.threads = opts.thread_counts.front();
      p.capacity = cap;
      p.burst = 1;  // deadlock-free at the smallest capacity
      rows.push_back({std::to_string(cap), p});
    }
    return rows;
  };
  spec.series = registry_series({"fifo-llsc", "fifo-simcas", "shann", "tsigas-zhang"});
  spec.print_table = [](const ScenarioResult& r, const CliOptions& o) {
    std::printf("== Ablation A3: capacity sweep (threads=%u, burst=1) ==\n",
                o.thread_counts.front());
    std::printf("%-10s", "capacity");
    for (const ScenarioSeries& s : r.series) {
      std::printf("  %-18s", s.name.c_str());
    }
    std::printf("\n");
    for (std::size_t row = 0; row < r.rows.size(); ++row) {
      std::printf("%-10s", r.rows[row].label.c_str());
      for (const ScenarioSeries& s : r.series) {
        std::printf("  %10.4f s       ", s.cells[row].time.mean);
      }
      std::printf("\n");
    }
  };
  spec.print_csv = [](const ScenarioResult& r, const CliOptions&) {
    std::printf("capacity");
    for (const ScenarioSeries& s : r.series) {
      std::printf(",%s", s.name.c_str());
    }
    std::printf("\n");
    for (std::size_t row = 0; row < r.rows.size(); ++row) {
      std::printf("%s", r.rows[row].label.c_str());
      for (const ScenarioSeries& s : r.series) {
        std::printf(",%.6f", s.cells[row].time.mean);
      }
      std::printf("\n");
    }
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Extension experiment E1 (beyond the paper): sensitivity of the algorithm
// ranking to the operation mix. Sweeps a randomized workload over push bias
// in {25%, 50%, 75%} to check that Fig. 6's ranking is a property of the
// algorithms, not of the burst pattern.
// ---------------------------------------------------------------------------

ScenarioSpec ext_mixed_spec() {
  ScenarioSpec spec;
  spec.name = "ext-mixed";
  spec.title = "Extension E1: randomized workload, push-bias sweep";
  spec.summary = "Extension E1 — Fig. 6 ranking under randomized op mixes";
  spec.axis = "bias,threads";
  spec.default_threads = {4, 16};
  spec.default_iters = 3000;
  spec.default_runs = 2;
  spec.rows = [](const CliOptions& opts) {
    const std::vector<unsigned> biases = {25, 50, 75};
    std::vector<ScenarioRow> rows;
    for (unsigned bias : biases) {
      for (unsigned threads : opts.thread_counts) {
        WorkloadParams p = opts.workload;
        p.threads = threads;
        p.pattern = WorkloadPattern::kRandomMixed;
        p.push_bias_pct = bias;
        rows.push_back({std::to_string(bias) + "," + std::to_string(threads), p});
      }
    }
    return rows;
  };
  spec.series = registry_series({"fifo-llsc", "fifo-simcas", "shann", "ms-hp", "ms-doherty"});
  spec.print_table = [](const ScenarioResult& r, const CliOptions&) {
    std::printf("== Extension E1: randomized workload, push-bias sweep ==\n");
    std::printf("(seconds per run; paper's burst pattern replaced by random mixed ops)\n");
    std::printf("%-6s %-8s", "bias", "threads");
    for (const ScenarioSeries& s : r.series) {
      std::printf("  %-18s", s.name.c_str());
    }
    std::printf("\n");
    for (std::size_t row = 0; row < r.rows.size(); ++row) {
      std::printf("%-6u %-8u", r.rows[row].params.push_bias_pct, r.rows[row].params.threads);
      for (const ScenarioSeries& s : r.series) {
        std::printf("  %10.4f s       ", s.cells[row].time.mean);
      }
      std::printf("\n");
    }
  };
  spec.print_csv = [](const ScenarioResult& r, const CliOptions&) {
    std::printf("bias,threads");
    for (const ScenarioSeries& s : r.series) {
      std::printf(",%s", s.name.c_str());
    }
    std::printf("\n");
    for (std::size_t row = 0; row < r.rows.size(); ++row) {
      std::printf("%u,%u", r.rows[row].params.push_bias_pct, r.rows[row].params.threads);
      for (const ScenarioSeries& s : r.series) {
        std::printf(",%.6f", s.cells[row].time.mean);
      }
      std::printf("\n");
    }
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Extension experiment E2 (beyond the paper): the reclamation spectrum for
// link-based queues — all MS variants lined up so the reclamation cost
// itself is isolated (the queue algorithm is identical in every column).
// ---------------------------------------------------------------------------

ScenarioSpec ext_reclaim_spec() {
  ScenarioSpec spec;
  spec.name = "ext-reclaim";
  spec.title = "Extension E2: Michael-Scott queue under five reclamation schemes";
  spec.summary = "Extension E2 — MS queue under five reclamation schemes";
  spec.default_threads = {1, 4, 16, 32};
  spec.default_iters = 3000;
  spec.default_runs = 2;
  spec.rows = thread_rows;
  spec.series = registry_series({"ms-pool", "ms-ebr", "ms-hp", "ms-hp-sorted", "ms-doherty"});
  return spec;
}

// ---------------------------------------------------------------------------
// Sharded scaling layer vs the flat paper queues (core/sharded_queue.hpp).
//
// Expected shape: near parity single-threaded, widening aggregate-throughput
// advantage for the sharded variants as threads — and therefore counter
// contention — grow.
// ---------------------------------------------------------------------------

ScenarioSpec sharded_spec() {
  ScenarioSpec spec;
  spec.name = "sharded";
  spec.title = "Sharded scaling: 4-shard compositions vs flat paper queues";
  spec.summary = "Extension — 4-shard ShardedQueue compositions vs the flat paper queues";
  spec.default_threads = {1, 2, 4, 8};
  spec.rows = thread_rows;
  spec.series = registry_series({"fifo-llsc", "sharded-llsc", "fifo-simcas", "sharded-simcas"});
  spec.print_table = [](const ScenarioResult& r, const CliOptions& o) {
    print_absolute(r, o, r.title);
    const ScenarioSeries* flat_llsc = r.series_named("fifo-llsc");
    const ScenarioSeries* shard_llsc = r.series_named("sharded-llsc");
    const ScenarioSeries* flat_cas = r.series_named("fifo-simcas");
    const ScenarioSeries* shard_cas = r.series_named("sharded-simcas");
    std::printf("\nSharded speedup (flat mean time / sharded mean time):\n");
    std::printf("%8s %14s %14s\n", "threads", "llsc", "simcas");
    for (std::size_t i = 0; i < r.rows.size(); ++i) {
      std::printf("%8s %13.2fx %13.2fx\n", r.rows[i].label.c_str(),
                  flat_llsc->cells[i].time.mean / shard_llsc->cells[i].time.mean,
                  flat_cas->cells[i].time.mean / shard_cas->cells[i].time.mean);
    }
    std::printf("(>1 means the sharded composition finished the same workload faster)\n");
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Cross-generation head-to-head: the paper's CAS/LL-SC array queues vs the
// SCQ-generation FAA ring (Nikolaev's indirection design, DESIGN.md §12).
// The structural bet under test: an unconditional fetch_add ticket never
// loses under contention, so where the CAS/LL-SC index race burns retries
// (8+ threads), SCQ should hold throughput. EXPERIMENTS.md E8 records the
// expected shape and the measured table.
// ---------------------------------------------------------------------------

ScenarioSpec scq_spec() {
  ScenarioSpec spec;
  spec.name = "scq";
  spec.title = "Cross-generation: SCQ FAA ring vs CAS/LL-SC array queues";
  spec.summary = "Extension — FAA-generation SCQ vs the paper's CAS/LL-SC rings (E8)";
  spec.default_threads = {1, 2, 4, 8, 16};
  spec.rows = thread_rows;
  spec.series =
      registry_series({"fifo-llsc", "fifo-simcas", "scq", "scq-backoff", "sharded-scq"});
  spec.print_table = [](const ScenarioResult& r, const CliOptions& o) {
    print_absolute(r, o, r.title);
    const ScenarioSeries* llsc = r.series_named("fifo-llsc");
    const ScenarioSeries* cas = r.series_named("fifo-simcas");
    const ScenarioSeries* scq = r.series_named("scq");
    const ScenarioSeries* scq_b = r.series_named("scq-backoff");
    if (llsc == nullptr || cas == nullptr || scq == nullptr || scq_b == nullptr) {
      return;
    }
    std::printf("\nSCQ speedup vs best paper ring (min(llsc, simcas) mean time / "
                "min(scq, scq-backoff) mean time):\n");
    std::printf("%8s %10s\n", "threads", "speedup");
    for (std::size_t i = 0; i < r.rows.size(); ++i) {
      const double best = std::min(llsc->cells[i].time.mean, cas->cells[i].time.mean);
      const double best_scq = std::min(scq->cells[i].time.mean, scq_b->cells[i].time.mean);
      if (best <= 0.0 || best_scq <= 0.0) {
        continue;
      }
      std::printf("%8s %9.2fx\n", r.rows[i].label.c_str(), best / best_scq);
    }
    std::printf("(>1 means the FAA generation beat the best CAS/LL-SC ring; the claim "
                "under test holds at 8+ threads)\n");
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Burst absorption: the bounded SCQ ring vs its segmented (unbounded)
// composition — EXPERIMENTS.md E9. Two regimes on the same op counts:
//
//   steady    the paper's burst=5 pattern, far below one segment's capacity:
//             the segmented queue must ride its tail segment and stay within
//             ~10% of the flat bounded ring (the seal path never fires).
//   burst100x burst = 100x the segment capacity: the bounded ring backs the
//             pushers off against its capacity wall while the segmented
//             queue absorbs the whole burst by appending ~100 segments per
//             thread-burst and retiring them on the drain.
//
// The segmented series pin their segment capacity at 64 (a local QueueSpec,
// not the registry's, where the CLI capacity would inflate the segments and
// dodge the seal/append/retire path being priced here).
// ---------------------------------------------------------------------------

constexpr std::size_t kBurstSegCapacity = 64;
constexpr unsigned kBurstFactor = 100;

/// Local specs with the segment capacity pinned (the sweep capacity is
/// deliberately ignored — it sizes the BOUNDED competitor, not the segments).
QueueSpec segmented_spec(const std::string& name, const std::string& label, bool scq) {
  QueueFactory make;
  if (scq) {
    make = [](std::size_t) -> std::unique_ptr<AnyQueue> {
      return std::make_unique<QueueAdapter<SegmentedQueue<ScqQueue<Payload>>>>(
          kBurstSegCapacity, "bench-seg-scq");
    };
  } else {
    make = [](std::size_t) -> std::unique_ptr<AnyQueue> {
      return std::make_unique<QueueAdapter<SegmentedQueue<CasArrayQueue<Payload>>>>(
          kBurstSegCapacity, "bench-seg-cas");
    };
  }
  return QueueSpec{name, label, false, true, true, std::move(make)};
}

ScenarioSpec burst_spec() {
  ScenarioSpec spec;
  spec.name = "burst";
  spec.title = "Burst absorption: bounded SCQ vs segmented compositions";
  spec.summary = "Extension — bounded ring vs LSCQ-style segmented queue under bursts (E9)";
  spec.axis = "phase";
  spec.default_threads = {2};
  spec.default_iters = 2000;
  spec.default_runs = 3;
  spec.rows = [](const CliOptions& opts) {
    std::vector<ScenarioRow> rows;
    WorkloadParams steady = opts.workload;
    steady.threads = opts.thread_counts.front();
    steady.burst = 5;  // paper pattern: never crosses a segment boundary
    rows.push_back({"steady", steady});
    WorkloadParams burst = opts.workload;
    burst.threads = opts.thread_counts.front();
    burst.burst = kBurstFactor * kBurstSegCapacity;
    // Same op count per run as the steady row: one giant burst replaces
    // (burst/5) paper iterations.
    burst.iterations = std::max<std::uint64_t>(
        1, steady.iterations * steady.burst / burst.burst);
    rows.push_back({"burst100x", burst});
    return rows;
  };
  spec.series = []() {
    std::vector<QueueSpec> specs;
    specs.push_back(find_queue("scq"));
    specs.push_back(segmented_spec("seg-scq", "Segmented SCQ, 64-slot segments", true));
    specs.push_back(segmented_spec("seg-cas", "Segmented Simulated CAS, 64-slot segments",
                                   false));
    return specs;
  };
  spec.print_table = [](const ScenarioResult& r, const CliOptions& o) {
    print_absolute(r, o, r.title);
    const ScenarioSeries* scq = r.series_named("scq");
    const ScenarioSeries* seg = r.series_named("seg-scq");
    if (scq == nullptr || seg == nullptr || r.rows.empty()) {
      return;
    }
    const double flat = scq->cells[0].time.mean;
    const double segd = seg->cells[0].time.mean;
    if (flat > 0.0 && segd > 0.0) {
      std::printf("\nSteady-state segmentation overhead (seg-scq vs scq): %+.1f%%\n",
                  (segd / flat - 1.0) * 100.0);
      std::printf("(acceptance: within ~10%% — the seal/append path must stay off the "
                  "steady path)\n");
    }
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Contention-management ablation: NoBackoff (paper-faithful busy retry) vs
// ExpBackoff on both paper algorithms, at and beyond hardware
// oversubscription (thread counts default to 1x and 2x the hardware
// concurrency plus a single-thread uncontended floor).
// ---------------------------------------------------------------------------

std::vector<unsigned> backoff_default_threads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (hw == 1) {
    return {1, 2, 4};  // single-core host: 2x and 4x oversubscription
  }
  return {1, hw, 2 * hw};
}

ScenarioSpec backoff_spec() {
  ScenarioSpec spec;
  spec.name = "backoff";
  spec.title = "Backoff ablation: NoBackoff vs ExpBackoff under oversubscription";
  spec.summary = "Extension — immediate-retry (paper) vs exponential backoff";
  spec.default_threads = backoff_default_threads();
  spec.rows = thread_rows;
  spec.series =
      registry_series({"fifo-llsc", "fifo-llsc-backoff", "fifo-simcas", "fifo-simcas-backoff"});
  spec.print_table = [](const ScenarioResult& r, const CliOptions& o) {
    print_absolute(r, o, r.title);
    const ScenarioSeries* llsc = r.series_named("fifo-llsc");
    const ScenarioSeries* llsc_b = r.series_named("fifo-llsc-backoff");
    const ScenarioSeries* cas = r.series_named("fifo-simcas");
    const ScenarioSeries* cas_b = r.series_named("fifo-simcas-backoff");
    std::printf("\nBackoff speedup (NoBackoff mean time / ExpBackoff mean time):\n");
    std::printf("%8s %14s %14s\n", "threads", "llsc", "simcas");
    for (std::size_t i = 0; i < r.rows.size(); ++i) {
      std::printf("%8s %13.2fx %13.2fx\n", r.rows[i].label.c_str(),
                  llsc->cells[i].time.mean / llsc_b->cells[i].time.mean,
                  cas->cells[i].time.mean / cas_b->cells[i].time.mean);
    }
    std::printf("(>1 means backoff helped; expect ~1.0 uncontended, gains only when "
                "threads > cores)\n");
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Layer-overhead A/B: the fig6a workload shape, small enough for CI, priced
// with each observability layer compiled out, idle, or live. Every
// comparison is scripts/bench_diff.py on two JSON documents of this one
// scenario; the idle run of the default build is the candidate of each
// compiled-out pair and the baseline of each live pair:
//   telemetry  -DEVQ_TELEMETRY=OFF build vs idle   report >1%, fail >20% (E6)
//   trace      -DEVQ_TRACE=OFF build vs idle       report >1%, fail >20%
//              idle vs --trace-sample 64           advisory, >5% (E7)
//   health     idle vs --health                    report >1%, fail >5% (E11)
//   perf       -DEVQ_PERF=OFF build vs idle        report >1%, fail >5%
//              idle vs --perf                      report >1%, fail >5% (E12)
// The 20% bound is where a lock-prefixed RMW or an allocation on the hot
// path lives; the disarmed probes and idle scopes measure ~0 in practice.
// --health's Monitor is cold-path, so its whole cost is the 1-in-64 trace
// sampling it switches on. --perf's scopes wrap the whole worker body, so
// the per-op cost is zero; on a perf-denied host the run doubles as the
// null-backend degradation check (same numbers, explicit reason record).
//
// Why each series is here: the two array queues are the worst case (a
// 40-60ns op leaves a counter increment or a probe gate nowhere to hide);
// ms-hp adds the reclaim probes and shows the same absolute cost vanishing
// into realistic per-op work; scq runs the FAA path the health burn
// detector watches; comb-scq is the E12 attribution subject with the most
// machinery per op.
// ---------------------------------------------------------------------------

ScenarioSpec layer_overhead_spec() {
  ScenarioSpec spec;
  spec.name = "layer-overhead";
  spec.title = "Layer overhead: paper algorithms with each observability layer";
  spec.summary = "Observability — each layer compiled out vs idle vs live (E6, E7, E11, E12)";
  spec.default_threads = {1, 2, 4};
  spec.rows = thread_rows;
  spec.series = registry_series({"fifo-llsc", "fifo-simcas", "scq", "ms-hp", "comb-scq"});
  return spec;
}

// ---------------------------------------------------------------------------
// Pairwise contention demo: the two paper array queues head-to-head on a
// small ring with a randomized op mix — the configuration that maximizes the
// paper's signature mechanism (a committed slot whose index still lags, so
// peers help-advance it). This is the workload EXPERIMENTS.md E7 traces:
//
//   evq-bench run pairwise --trace pairwise.json --trace-sample 64
//
// and the exported Perfetto trace shows per-phase sub-slices plus
// helper→helped flow arrows between threads. The comb-cas series runs the
// same duel through the flat-combining facade, so the trace also carries
// combiner→helped arrows (HelpTarget::kCombiner, DESIGN.md §14) whenever
// the adaptive heuristic engages.
// ---------------------------------------------------------------------------

ScenarioSpec pairwise_spec() {
  ScenarioSpec spec;
  spec.name = "pairwise";
  spec.title = "Pairwise contention: CAS vs LLSC array queues on a small ring";
  spec.summary = "Observability — high-contention array-queue duel (E7 trace workload)";
  spec.default_threads = {2, 4};
  spec.default_iters = 20000;
  spec.default_runs = 2;
  spec.rows = [](const CliOptions& opts) {
    std::vector<ScenarioRow> rows;
    for (unsigned threads : opts.thread_counts) {
      WorkloadParams p = opts.workload;
      p.threads = threads;
      p.pattern = WorkloadPattern::kRandomMixed;
      if (opts.workload.capacity == 0) {
        p.capacity = 64;  // small ring: threads pile onto the same indices
      }
      rows.push_back({std::to_string(threads), p});
    }
    return rows;
  };
  spec.series = registry_series({"fifo-llsc", "fifo-simcas", "comb-cas"});
  return spec;
}

// ---------------------------------------------------------------------------
// Combining contention ladder: the flat-combining facades vs their bare
// inner rings as threads climb past the core count (EXPERIMENTS.md E10,
// DESIGN.md §14). The bet under test: plain CAS rings collapse once the
// Head/Tail lines ping-pong, while the combiner turns N losers into one
// announce-array pass + N amortized batch ops, so the comb-* series should
// hold (or regain) throughput on the contended rows. Thread counts reuse the
// backoff ladder (1, cores, 2x cores) — contention, not parallelism, is the
// independent variable.
// ---------------------------------------------------------------------------

ScenarioSpec combining_spec() {
  ScenarioSpec spec;
  spec.name = "combining";
  spec.title = "Combining ladder: flat-combining facades vs bare rings";
  spec.summary = "Extension — flat-combining facade vs its inner ring under contention (E10)";
  spec.default_threads = backoff_default_threads();
  spec.default_iters = 3000;
  spec.default_runs = 2;
  spec.rows = thread_rows;
  spec.series = registry_series(
      {"fifo-simcas", "comb-cas", "scq", "comb-scq", "sharded-comb-scq"});
  spec.print_table = [](const ScenarioResult& r, const CliOptions& o) {
    print_absolute(r, o, r.title);
    const ScenarioSeries* cas = r.series_named("fifo-simcas");
    const ScenarioSeries* comb_cas = r.series_named("comb-cas");
    const ScenarioSeries* scq = r.series_named("scq");
    const ScenarioSeries* comb_scq = r.series_named("comb-scq");
    if (cas == nullptr || comb_cas == nullptr || scq == nullptr || comb_scq == nullptr) {
      return;
    }
    std::printf("\nCombining speedup (bare ring mean time / combining mean time):\n");
    std::printf("%8s %14s %14s\n", "threads", "simcas", "scq");
    for (std::size_t i = 0; i < r.rows.size(); ++i) {
      std::printf("%8s %13.2fx %13.2fx\n", r.rows[i].label.c_str(),
                  cas->cells[i].time.mean / comb_cas->cells[i].time.mean,
                  scq->cells[i].time.mean / comb_scq->cells[i].time.mean);
    }
    std::printf("(>1 means combining beat the bare ring; expect ~1.0 at one thread — the "
                "adaptive direct path — and gains only on the contended rows)\n");
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Combining-overhead A/B: each facade and its bare inner ring side by side
// at ONE thread, in one scenario — so scripts/comb_overhead_gate.py can
// compare series WITHIN a single JSON document (bench_diff.py only joins
// identical series names across documents, which an intra-build facade-vs-
// ring comparison cannot use). CI runs this and fails the comb-* facades if
// the adaptive direct path costs more than 5% over the bare ring.
// ---------------------------------------------------------------------------

ScenarioSpec combining_overhead_spec() {
  ScenarioSpec spec;
  spec.name = "combining-overhead";
  spec.title = "Combining overhead: facade vs bare ring, single thread";
  spec.summary = "Observability — uncontended flat-combining facade tax (<=5% CI gate, E10)";
  spec.default_threads = {1};
  spec.default_iters = 5000;
  spec.default_runs = 3;
  spec.rows = thread_rows;
  spec.series = registry_series({"fifo-simcas", "comb-cas", "scq", "comb-scq"});
  spec.print_table = [](const ScenarioResult& r, const CliOptions& o) {
    print_absolute(r, o, r.title);
    const ScenarioSeries* cas = r.series_named("fifo-simcas");
    const ScenarioSeries* comb_cas = r.series_named("comb-cas");
    const ScenarioSeries* scq = r.series_named("scq");
    const ScenarioSeries* comb_scq = r.series_named("comb-scq");
    if (cas == nullptr || comb_cas == nullptr || scq == nullptr || comb_scq == nullptr ||
        r.rows.empty()) {
      return;
    }
    std::printf("\nSingle-thread facade overhead (combining vs bare ring):\n");
    std::printf("  comb-cas vs fifo-simcas: %+.1f%%\n",
                (comb_cas->cells[0].time.mean / cas->cells[0].time.mean - 1.0) * 100.0);
    std::printf("  comb-scq vs scq:         %+.1f%%\n",
                (comb_scq->cells[0].time.mean / scq->cells[0].time.mean - 1.0) * 100.0);
    std::printf("(acceptance: <= 5%% — the adaptive direct path must keep the announce "
                "machinery off the uncontended fast path)\n");
  };
  return spec;
}

std::vector<ScenarioSpec> build_scenarios() {
  std::vector<ScenarioSpec> specs;
  specs.push_back(fig6a_spec());
  specs.push_back(fig6b_spec());
  specs.push_back(fig6c_spec());
  specs.push_back(fig6d_spec());
  specs.push_back(overhead_spec());
  specs.push_back(op_profile_spec());
  specs.push_back(ablation_llsc_spec());
  specs.push_back(ablation_hp_spec());
  specs.push_back(ablation_capacity_spec());
  specs.push_back(ext_mixed_spec());
  specs.push_back(ext_reclaim_spec());
  specs.push_back(sharded_spec());
  specs.push_back(scq_spec());
  specs.push_back(burst_spec());
  specs.push_back(backoff_spec());
  specs.push_back(layer_overhead_spec());
  specs.push_back(pairwise_spec());
  specs.push_back(combining_spec());
  specs.push_back(combining_overhead_spec());
  return specs;
}

}  // namespace

const std::vector<ScenarioSpec>& all_scenarios() {
  static const std::vector<ScenarioSpec> specs = build_scenarios();
  return specs;
}

}  // namespace evq::harness
