// Request/response calls layered on the asynchronous bus.
//
// Figure 1 marks some service interactions as Remote Procedure Call (e.g.
// consumer -> Resource Manager approval). RpcNode gives a service both
// roles: it can expose methods and call methods on peers.
//
// The caller API is built around CallOptions: every call carries its
// timeout, retry budget, and exponential backoff (with deterministic
// jitter), so RPC-dependent services keep working when the bus is running
// under a FaultPlan. Reliability semantics:
//
//   * A retried request is re-sent with the SAME call id, so the callee
//     can recognise it.
//   * Callees keep an at-most-once cache keyed by (caller, call id):
//     a retried or fault-duplicated request whose original was already
//     executed is answered from the cached response instead of being
//     re-executed. CallOptions::idempotent opts a call out of the cache —
//     the handler may simply run again, which is cheaper than caching.
//   * A response arriving after its call already failed (timeout fired
//     and the budget is spent) is dropped; the callback never fires
//     twice. A response arriving between a timeout and the next retry
//     completes the call and cancels the retry.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>

#include "net/bus.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace garnet::net {

enum class RpcError : std::uint8_t {
  kTimeout,        ///< No response within the deadline (after all retries).
  kNoSuchMethod,   ///< Callee does not implement the method.
  kRemoteFailure,  ///< Callee handler reported failure.
  kCircuitOpen,    ///< Failed fast: this callee's circuit breaker is open.
};

[[nodiscard]] std::string_view to_string(RpcError e);

using MethodId = std::uint16_t;

/// Per-call reliability contract. The default is one attempt with a 50 ms
/// deadline — the behaviour of the old bare-timeout API.
struct CallOptions {
  /// Per-attempt deadline (not a budget across attempts).
  util::Duration timeout = util::Duration::millis(50);
  /// Re-send budget after the first attempt; 0 = fail on first timeout.
  std::uint32_t retries = 0;
  /// Pause before the first retry; doubles (backoff_factor) per retry up
  /// to max_backoff.
  util::Duration backoff = util::Duration::millis(5);
  double backoff_factor = 2.0;
  util::Duration max_backoff = util::Duration::millis(250);
  /// Proportional +/- jitter on each backoff pause, drawn from the
  /// node's seeded rng (deterministic across runs). 0 disables.
  double jitter = 0.2;
  /// Declares that re-executing the handler is safe, so the callee skips
  /// the at-most-once cache for this call.
  bool idempotent = false;

  [[nodiscard]] static CallOptions with_timeout(util::Duration t) {
    CallOptions options;
    options.timeout = t;
    return options;
  }
  [[nodiscard]] static CallOptions reliable(std::uint32_t retries,
                                            util::Duration timeout = util::Duration::millis(50)) {
    CallOptions options;
    options.timeout = timeout;
    options.retries = retries;
    return options;
  }
};

/// Handler result: ok bytes or failure (mapped to kRemoteFailure).
using RpcResult = util::Result<util::Bytes, RpcError>;
using RpcHandler = std::function<RpcResult(Address caller, util::BytesView args)>;
using RpcCallback = std::function<void(RpcResult)>;

/// Deferred-response handler: the callee answers by invoking `respond`
/// (exactly once, possibly after further asynchronous work such as an
/// admission-control deliberation).
using RpcResponder = std::function<void(RpcResult)>;
using AsyncRpcHandler =
    std::function<void(Address caller, util::BytesView args, RpcResponder respond)>;

class RpcNode {
 public:
  /// Registers `name` on the bus. Incoming non-RPC envelopes are passed to
  /// `fallback` (may be empty when a service is purely RPC).
  RpcNode(MessageBus& bus, std::string name,
          std::function<void(Envelope)> fallback = {});
  ~RpcNode();

  RpcNode(const RpcNode&) = delete;
  RpcNode& operator=(const RpcNode&) = delete;

  /// Exposes a method. Must not already be registered.
  void expose(MethodId method, RpcHandler handler);

  /// Exposes a method whose response may be produced asynchronously.
  /// The responder captures this node; it must not fire after the node
  /// is destroyed (services own their nodes for the program's lifetime).
  void expose_async(MethodId method, AsyncRpcHandler handler);

  /// Invokes `method` on `callee` under `options`; `on_done` fires exactly
  /// once, with the response or an error (timeout after the retry budget
  /// is spent, or kCircuitOpen immediately when this callee's breaker is
  /// not accepting traffic).
  void call(Address callee, MethodId method, util::Bytes args, CallOptions options,
            RpcCallback on_done);

  /// Circuit-breaker state towards one callee (bus Config::breaker; see
  /// net/overload.hpp for the state machine). kClosed when disabled.
  enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };
  [[nodiscard]] BreakerState breaker_state(Address callee);

  /// Posts a plain (non-RPC) message from this node's address.
  void post(Address to, MessageType type, util::SharedBytes payload);

  [[nodiscard]] Address address() const noexcept { return address_; }
  [[nodiscard]] MessageBus& bus() noexcept { return bus_; }

 private:
  /// Bound on the at-most-once cache; oldest entries are evicted first.
  static constexpr std::size_t kDedupCapacity = 512;

  /// (caller address, call id): call ids are per-caller, so the pair is
  /// the request's global identity.
  using DedupKey = std::pair<std::uint32_t, std::uint64_t>;

  struct DedupEntry {
    bool done = false;  ///< False while the handler is still running.
    /// Full response frame; repeats re-post the same shared buffer.
    util::SharedBytes response;
  };

  struct PendingCall {
    RpcCallback on_done;
    sim::EventId timer;  ///< Attempt timeout, or the backoff pause timer.
    Address callee;
    /// Request frame; every retry re-posts the same shared buffer.
    util::SharedBytes frame;
    CallOptions options;
    std::uint32_t sends = 0;
    util::Duration next_backoff{};
  };

  /// Per-callee breaker bookkeeping. The open->half-open transition is
  /// lazy: evaluated when the next call towards the callee arrives.
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    std::uint32_t consecutive_failures = 0;
    util::SimTime opened_at;
    bool probe_inflight = false;  ///< Half-open admits exactly one call.
  };

  void on_envelope(Envelope envelope);
  void on_request(const Envelope& envelope);
  void on_response(const Envelope& envelope);
  void send_attempt(std::uint64_t call_id);
  void on_attempt_timeout(std::uint64_t call_id);
  void remember(const DedupKey& key, DedupEntry entry);
  [[nodiscard]] Breaker* breaker_for(Address callee);
  void note_exhausted(Address callee);
  void note_answered(Address callee);

  MessageBus& bus_;
  Address address_;
  std::function<void(Envelope)> fallback_;
  std::unordered_map<MethodId, AsyncRpcHandler> methods_;
  std::unordered_map<std::uint64_t, PendingCall> pending_;
  std::map<DedupKey, DedupEntry> dedup_;
  std::deque<DedupKey> dedup_order_;
  std::unordered_map<std::uint32_t, Breaker> breakers_;
  util::Rng backoff_rng_;
  std::uint64_t next_call_id_ = 1;
};

}  // namespace garnet::net
