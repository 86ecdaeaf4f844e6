// Registry names covered by the fault-injection torture harness
// (tests/torture_test.cpp).
//
// This list is deliberately a plain header with NO evq includes: it is shared
// between two binaries that must not share evq template instantiations —
// evq_tests (compiled without EVQ_INJECT_ENABLED, links evq_harness) and
// evq_torture (compiled entirely with EVQ_INJECT_ENABLED=1, which therefore
// must not link any library holding uninjected copies of the same inline
// queue code). evq_tests checks every harness::all_queues() entry appears
// here; evq_torture checks it can actually run every name listed here. The
// two checks together prove torture coverage without ODR-unsafe linkage.
#pragma once

#include <cstddef>

namespace evq::testing {

inline constexpr const char* kTortureCoveredQueues[] = {
    "fifo-llsc", "fifo-llsc-versioned", "fifo-simcas", "ms-hp",
    "ms-hp-sorted", "ms-doherty", "shann", "ms-pool",
    "ms-ebr", "tsigas-zhang", "mutex", "unsync",
    "fifo-llsc-backoff", "fifo-simcas-backoff", "sharded-llsc", "sharded-simcas",
    "scq", "sharded-scq", "seg-cas", "seg-scq",
    "sharded-seg-scq", "comb-cas",
};

inline constexpr std::size_t kTortureCoveredQueueCount =
    sizeof(kTortureCoveredQueues) / sizeof(kTortureCoveredQueues[0]);

}  // namespace evq::testing
