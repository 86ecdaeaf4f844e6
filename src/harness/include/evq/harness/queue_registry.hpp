// Named factories for every queue implementation in the study.
//
// Names follow the labels of the paper's Fig. 6 so benchmark output maps
// directly onto the figures:
//
//   fifo-llsc          "FIFO Array LL/SC" (Algorithm 1 over the single-word
//                      packed emulation — plain-load LL, the cost analog of
//                      real lwarx/stwcx)
//   fifo-llsc-versioned Algorithm 1 over the {value,version} DWCAS emulation
//                      (exact Fig. 2 semantics, but LL costs a cmpxchg16b)
//   fifo-simcas        "FIFO Array Simulated CAS" (Algorithm 2)
//   ms-hp              "MS-Hazard Pointers Not Sorted"
//   ms-hp-sorted       "MS-Hazard Pointers Sorted"
//   ms-doherty         "MS-Doherty et al." (MS over CAS-simulated LL/SC)
//   shann              "Shann et al. (CAS64)" (double-width-CAS array queue)
//   ms-pool            MS with free-pool reclamation (related-work scheme)
//   ms-ebr             MS with epoch-based reclamation (the related-work
//                      "assume a garbage collector" option, approximated)
//   tsigas-zhang       Tsigas-Zhang two-null array queue (assumption-bound)
//   mutex              blocking baseline
//   unsync             single-thread unsynchronized ring (overhead baseline)
//   fifo-llsc-backoff  Algorithm 1 with exponential backoff in retry loops
//   fifo-simcas-backoff Algorithm 2 with exponential backoff in retry loops
//   sharded-llsc       4-shard ShardedQueue over Algorithm 1 (not per-
//                      producer FIFO under MPMC; see core/sharded_queue.hpp)
//   sharded-simcas     4-shard ShardedQueue over Algorithm 2 (ditto)
//   scq                SCQ FAA ring (Nikolaev, arXiv:1908.04511)
//   sharded-scq        4-shard ShardedQueue over SCQ
//   seg-cas            SegmentedQueue over Algorithm 2 segments (LCRQ-style
//                      unbounded; `capacity` sizes each segment)
//   seg-scq            SegmentedQueue over SCQ segments (LSCQ-style)
//   sharded-seg-scq    4-shard ShardedQueue over seg-scq (unbounded AND not
//                      per-producer FIFO)
//   comb-cas           CombiningQueue facade over Algorithm 2 (flat-combining
//                      announce records; see core/combining_queue.hpp)
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "evq/harness/any_queue.hpp"

namespace evq::harness {

/// capacity applies to bounded (array-based) queues and is ignored by the
/// link-based ones.
using QueueFactory = std::function<std::unique_ptr<AnyQueue>(std::size_t capacity)>;

struct QueueSpec {
  std::string name;        // registry key (also CLI token)
  std::string paper_label; // label used in the paper's Fig. 6, if any
  bool bounded = false;    // array-based: respects `capacity`
  bool concurrent = true;  // false only for the unsynchronized ring
  bool fifo = true;        // per-producer FIFO under MPMC (sharded queues
                           // trade this for scalability; checkers skip the
                           // order assertion when false)
  QueueFactory make;
};

/// All registered queue implementations, in presentation order.
const std::vector<QueueSpec>& all_queues();

/// Lookup by registry name; aborts with a message listing valid names if
/// `name` is unknown.
const QueueSpec& find_queue(const std::string& name);

}  // namespace evq::harness
