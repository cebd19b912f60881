// Actuation Service (paper §4.2).
//
// The consumer-to-sensor control pathway: "First, approval is sought from
// the Resource Manager ... The Actuation Service next processes the
// request with timestamps, and checksums, before forwarding to the
// message replicator."
//
// This service owns the request lifecycle: admission via the Resource
// Manager, stamping + checksumming (core/stream_update codec), handing
// the frame to the Message Replicator, and matching the acknowledgement
// field that receive-capable sensors embed in their next data message
// (surfaced by the Dispatching Service). Unacknowledged requests are
// retransmitted a configurable number of times.
//
// Approval is a real RPC over the bus (as Figure 1 draws it), found by
// endpoint name — not a shared-memory call. When the Resource Manager is
// unreachable (partition, loss) the call is retried per Config and then
// the request is *denied*, surfacing in stats().approval_unreachable,
// rather than stalling the consumer forever.
#pragma once

#include <functional>
#include <unordered_map>

#include "core/replicator.hpp"
#include "core/resource.hpp"
#include "core/stream_update.hpp"
#include "net/rpc.hpp"
#include "obs/trace.hpp"

namespace garnet::core {

struct ActuationStats {
  std::uint64_t requests = 0;
  std::uint64_t denied = 0;
  std::uint64_t sent = 0;          ///< Frames handed to the replicator (incl. retries).
  std::uint64_t retries = 0;
  std::uint64_t acked = 0;
  std::uint64_t expired = 0;       ///< Gave up after all retries.
  /// Requests denied because the Resource Manager could not be reached
  /// within the approval retry budget (degraded mode, also in denied).
  std::uint64_t approval_unreachable = 0;
};

class ActuationService {
 public:
  enum Method : net::MethodId {
    /// [u64 token][u32 packed stream][u8 action][u32 value]
    /// -> [u32 request id][u8 admission][u32 effective value]
    kRequestUpdate = 1,
  };

  static constexpr const char* kEndpointName = "garnet.actuation";

  struct Config {
    util::Duration ack_timeout = util::Duration::seconds(3);
    std::uint32_t max_retries = 2;
  };

  ActuationService(net::MessageBus& bus, AuthService& auth, MessageReplicator& replicator,
                   Config config);

  struct Outcome {
    std::uint32_t request_id = 0;  ///< 0 when denied.
    Decision decision;
  };

  /// Full pipeline; `on_outcome` fires once admission resolves (the ack
  /// arrives later, see set_completion_observer).
  void request_update(ConsumerToken token, StreamId target, UpdateAction action,
                      std::uint32_t value, std::function<void(Outcome)> on_outcome);

  /// Wired to DispatchingService::set_ack_observer by the runtime.
  void on_ack(std::uint32_t request_id, SensorId sensor, util::SimTime observed_at);

  /// Fires when a request completes: acknowledged (with issue-to-ack
  /// latency) or expired.
  using CompletionObserver =
      std::function<void(std::uint32_t request_id, bool acked, util::Duration latency)>;
  void set_completion_observer(CompletionObserver observer) {
    completion_observer_ = std::move(observer);
  }

  /// Message traces: each admitted request opens an "actuation" span that
  /// closes when the sensor's acknowledgement is observed (kActuation
  /// domain, so keys never collide with data-plane traces).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  [[nodiscard]] const ActuationStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t pending_count() const noexcept { return pending_.size(); }
  [[nodiscard]] net::Address address() const noexcept { return node_.address(); }

 private:
  /// Builds, stamps, checksums and transmits an admitted request;
  /// returns the new request id.
  std::uint32_t launch(ConsumerToken token, StreamId target, UpdateAction action,
                       std::uint32_t effective_value);

  struct PendingRequest {
    SensorId sensor = 0;
    util::SimTime issued_at;
    std::uint32_t retries_left = 0;
    util::Bytes frame;
    sim::EventId timer;
    obs::TraceKey trace_key;
  };

  void transmit(std::uint32_t request_id);
  void on_timeout(std::uint32_t request_id);
  /// Degraded path: the approval RPC exhausted its budget (or no manager
  /// is on the bus); the request is denied, never silently stalled.
  void deny_unreachable(std::function<void(Outcome)> on_outcome);

  net::MessageBus& bus_;
  AuthService& auth_;
  MessageReplicator& replicator_;
  Config config_;
  net::RpcNode node_;
  std::unordered_map<std::uint32_t, PendingRequest> pending_;
  std::uint32_t next_request_id_ = 1;
  ActuationStats stats_;
  CompletionObserver completion_observer_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace garnet::core
