// The per-thread block behind every per-op observability hook.
//
// One ring op consults thread-local state owned by three layers: the
// op_stats recorder (common), the telemetry stripe ordinal and
// flight-recorder ring (src/telemetry), and the trace sampling countdown and
// span ring (src/trace). All of it lives in this one block, so
// an idle op (nothing recording, nothing sampled) reads a few words of one
// cache line and makes no call (DESIGN.md §10, "The per-thread block").
//
// The block is declared `extern constinit` and defined once, in
// thread_block.cpp. `constinit` tells every including TU that the block is
// constant-initialized, so an access compiles to a plain %fs-relative load
// instead of a call through the TLS wrapper/init function; the single
// out-of-line definition keeps the symbol out of COMDAT.
//
// Next to the block sits one process-wide word, g_sampled_hooks: a bit per
// sampled or recording hook that is switched on (trace sampling, the flight
// recorder). While it is zero, the default, a ring op runs a body that has
// no trace probe or flight-recorder hook at all; one relaxed load of this
// word picks the body.
#pragma once

#include <atomic>
#include <cstdint>

#include "evq/common/config.hpp"

namespace evq::stats {
struct OpCounters;
}
namespace evq::telemetry {
class ThreadTrace;
}
namespace evq::trace {
class SpanRing;
}

namespace evq::detail {

/// ThreadBlock::stripe before the thread's first counter increment.
inline constexpr std::uint32_t kStripeUnassigned = 0xFFFFFFFFu;

struct ThreadBlock {
  /// op_stats: the active ScopedOpRecording's sink; null = recording off.
  stats::OpCounters* recorder = nullptr;
  /// telemetry: this thread's flight-recorder ring; null until its first
  /// traced op.
  telemetry::ThreadTrace* flight_ring = nullptr;
  /// trace: this thread's span ring; null until its first sampled probe.
  trace::SpanRing* span_ring = nullptr;
  /// telemetry: process-wide thread ordinal picking the counter stripe.
  std::uint32_t stripe = kStripeUnassigned;
  /// trace: probes left until the next sampled one (<= 1: consult the
  /// global period).
  std::uint32_t trace_countdown = 0;
};

extern constinit thread_local ThreadBlock t_block;

/// Bits of g_sampled_hooks. Each is set exactly while its setting is on:
/// trace::set_sampling(N > 0), telemetry::set_tracing(true).
inline constexpr std::uint32_t kTraceSamplingHook = 1u << 0;
inline constexpr std::uint32_t kFlightRecorderHook = 1u << 1;

extern std::atomic<std::uint32_t> g_sampled_hooks;

/// True while any sampled or recording per-op hook is switched on.
EVQ_ALWAYS_INLINE bool sampled_hooks_on() noexcept {
  return g_sampled_hooks.load(std::memory_order_relaxed) != 0;
}

/// Sets (`on`) or clears one bit of g_sampled_hooks. The setter that owns
/// the bit calls it under its own lock, right after storing the setting, so
/// concurrent calls of one setter leave the bit in step with the value.
inline void set_sampled_hook(std::uint32_t bit, bool on) noexcept {
  if (on) {
    g_sampled_hooks.fetch_or(bit, std::memory_order_relaxed);
  } else {
    g_sampled_hooks.fetch_and(~bit, std::memory_order_relaxed);
  }
}

}  // namespace evq::detail
