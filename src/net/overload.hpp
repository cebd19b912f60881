// Overload-control vocabulary for the fixed-network substrate.
//
// PR 2 made the network *lossy* on purpose; this header makes it
// *overloadable* on purpose. Three cooperating mechanisms (GSN-style
// bounded buffering and shedding, Perera et al., arXiv:1301.0157):
//
//   * Bounded inboxes — every bus endpoint may carry a finite inbox with
//     a per-envelope service time, so a slow service visibly queues and,
//     past capacity, sheds by an explicit policy instead of growing
//     without bound.
//   * Priority classes — control-plane traffic (RPC framing, actuation,
//     credit replenishment) is queued ahead of data-plane deliveries and
//     is never shed while any data-class envelope can be shed instead.
//   * Circuit breakers — a caller that keeps exhausting its retry budget
//     against one callee stops hammering it and fails fast until a
//     half-open probe proves the callee is back.
//
// Everything is deterministic: shed decisions are pure functions of the
// queue state, so identical seeds produce identical shed journals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/time.hpp"

namespace garnet::net {

/// What a bounded inbox does with the envelope that does not fit.
enum class OverflowPolicy : std::uint8_t {
  kDropNewest,  ///< Silently discard the arriving envelope.
  kDropOldest,  ///< Evict the oldest queued envelope to make room.
};

/// Scheduling class of one envelope. Control traffic (RPC framing plus
/// the app types the deployment registers as control) is dequeued first
/// and is only ever shed when no data-class envelope remains to shed.
enum class TrafficClass : std::uint8_t { kControl, kData };

[[nodiscard]] std::string_view to_string(OverflowPolicy policy);
[[nodiscard]] std::string_view to_string(TrafficClass cls);

/// Per-endpoint inbox shape. The default (capacity 0, service_time 0) is
/// inactive: envelopes are handed to the handler on arrival exactly as
/// before this layer existed, and nothing is queued or shed.
struct InboxConfig {
  /// Maximum queued envelopes (control + data together). 0 = unbounded.
  std::size_t capacity = 0;
  OverflowPolicy policy = OverflowPolicy::kDropNewest;
  /// Virtual time the endpoint spends handling one envelope; arrivals
  /// during that window queue. 0 = the handler is instantaneous.
  util::Duration service_time{};

  [[nodiscard]] bool active() const noexcept {
    return capacity > 0 || service_time.ns > 0;
  }
};

/// Per-callee circuit breaker for RpcNode. Disabled by default.
///
/// State machine: closed --(failure_threshold consecutive exhausted
/// budgets)--> open --(open_for elapses)--> half-open --(one probe call
/// succeeds)--> closed, or --(probe exhausts)--> open again. While open
/// (and while a half-open probe is in flight) calls fail fast with
/// RpcError::kCircuitOpen instead of spending a retry budget against a
/// dead or drowning callee.
struct BreakerConfig {
  /// Consecutive exhausted budgets that trip the breaker. 0 = disabled.
  std::uint32_t failure_threshold = 0;
  /// How long the breaker stays open before allowing a half-open probe.
  util::Duration open_for = util::Duration::millis(500);

  [[nodiscard]] bool enabled() const noexcept { return failure_threshold > 0; }
};

/// Shed accounting, split by (class, policy) so the exposition can prove
/// the priority invariant: control is never shed while data still queues.
struct ShedStats {
  std::uint64_t data_drop_newest = 0;
  std::uint64_t data_drop_oldest = 0;
  std::uint64_t control_drop_newest = 0;
  std::uint64_t control_drop_oldest = 0;

  [[nodiscard]] std::uint64_t data_total() const noexcept {
    return data_drop_newest + data_drop_oldest;
  }
  [[nodiscard]] std::uint64_t control_total() const noexcept {
    return control_drop_newest + control_drop_oldest;
  }

  /// Cross-shard aggregation (each shard's bus keeps its own ledger; the
  /// plane sums them at the merge barrier).
  ShedStats& operator+=(const ShedStats& other) noexcept {
    data_drop_newest += other.data_drop_newest;
    data_drop_oldest += other.data_drop_oldest;
    control_drop_newest += other.control_drop_newest;
    control_drop_oldest += other.control_drop_oldest;
    return *this;
  }
};

}  // namespace garnet::net
