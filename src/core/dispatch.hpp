// Dispatching Service (paper §4.2).
//
// Receives the reconstructed streams from the Filtering Service and fans
// each message out to every subscribed consumer over the fixed network.
// Data delivery is address-free: nothing in the message names a consumer
// — "the StreamID in the data message implicitly identifies the source of
// the message, while the end destinations are inferred" (paper §5,
// "Delayed delivery decision-making").
//
// Messages matching no subscription are unclaimed and forwarded to the
// Orphanage's address. Acknowledgement fields observed in passing data
// messages are surfaced to the Actuation Service via a callback.
#pragma once

#include <functional>

#include "core/auth.hpp"
#include "core/catalog.hpp"
#include "core/message.hpp"
#include "core/pubsub.hpp"
#include "core/stream_table.hpp"
#include "core/wire_types.hpp"
#include "net/rpc.hpp"
#include "obs/trace.hpp"
#include "util/ring_buffer.hpp"
#include "util/shared_bytes.hpp"

namespace garnet::core {

struct DispatchStats {
  std::uint64_t messages_in = 0;      ///< Filtered messages received.
  std::uint64_t derived_in = 0;       ///< Consumer-published derived messages.
  std::uint64_t copies_delivered = 0; ///< Consumer deliveries posted.
  std::uint64_t orphaned = 0;         ///< Unclaimed messages sent to Orphanage.
  std::uint64_t acks_observed = 0;    ///< Ack fields relayed to Actuation.
  std::uint64_t rejected_publishes = 0;
  // Credit-based flow control (zero while disabled):
  std::uint64_t credits_exhausted = 0;   ///< Windows driven to zero.
  std::uint64_t quarantines = 0;         ///< Consumers entering quarantine.
  std::uint64_t quarantine_sheds = 0;    ///< Copies withheld from quarantined consumers.
  std::uint64_t credit_acks = 0;         ///< kDeliveryCredit envelopes applied.
  std::uint64_t resume_redelivered = 0;  ///< Backlog copies delivered as credits returned.
  std::uint64_t resume_discarded = 0;    ///< Backlog copies dropped (unsubscribed/undecodable).
  std::uint64_t resume_missing = 0;      ///< Shed copies evicted past the backlog bound.

  /// Cross-shard aggregation: the shard plane sums its per-shard
  /// dispatchers' ledgers into one plane-wide view at the merge barrier.
  DispatchStats& operator+=(const DispatchStats& other) noexcept;
};

/// Op-log record kinds emitted through set_op_sink() and consumed by
/// apply_op(). Payloads are ByteWriter frames:
///   kOpSubscribe    [u64 id][u32 consumer][u64 packed pattern][u32 min_interval_ms][u32 max_age_ms]
///   kOpUnsubscribe  [u64 id]
///   kOpDropConsumer [u32 consumer]
enum DispatchOp : std::uint16_t {
  kOpSubscribe = 1,
  kOpUnsubscribe = 2,
  kOpDropConsumer = 3,
};

/// Credit-based backpressure for the dispatch fan-out. Each subscriber
/// carries a delivery window; every posted copy spends one credit and the
/// consumer replenishes with kDeliveryCredit acks after it processes a
/// delivery. A consumer that drains its window to zero is *quarantined*:
/// its copies are shed into its own backlog while every other
/// subscriber's fan-out continues untouched. Each credit that returns
/// redelivers the oldest backlog frame, so the consumer sees every
/// sequence once, in shed order; a backlog past
/// DispatchingService::kBacklogFrames evicts its oldest frame, counted
/// in DispatchStats::resume_missing.
struct FlowControlConfig {
  /// Deliveries in flight per consumer before quarantine. 0 = disabled.
  std::uint32_t credit_window = 0;

  [[nodiscard]] bool enabled() const noexcept { return credit_window > 0; }
};

class DispatchingService {
 public:
  /// RPC surface.
  enum Method : net::MethodId {
    /// [u64 token][u64 packed pattern][u32 min_interval_ms][u32 max_age_ms]
    /// -> [u64 sub id][u32 credit window]. The two QoS request fields may
    /// be omitted (defaults 0); the reply's credit window is 0 when flow
    /// control is disabled. Pre-flow-control readers that stop after the
    /// sub id still parse the reply.
    kSubscribe = 1,
    kUnsubscribe = 2,  ///< [u64 token][u64 sub id] -> []
  };

  static constexpr const char* kEndpointName = "garnet.dispatch";

  /// Frames a quarantined consumer's backlog holds before a shed evicts
  /// the oldest.
  static constexpr std::size_t kBacklogFrames = 1024;

  DispatchingService(net::MessageBus& bus, AuthService& auth, StreamCatalog& catalog);

  /// Unclaimed data goes here (the Orphanage registers itself).
  void set_orphan_sink(net::Address address) { orphan_sink_ = address; }

  /// Enables (or reconfigures) credit-based backpressure. Existing
  /// consumers' windows are re-primed to the new size.
  void set_flow_control(FlowControlConfig config);

  /// True while `consumer` is quarantined (flow control only).
  [[nodiscard]] bool quarantined(net::Address consumer) const;
  /// Remaining delivery credits (the full window when unknown/disabled).
  [[nodiscard]] std::uint32_t credits(net::Address consumer) const;

  /// Actuation Service hook: fires for every data message that carries a
  /// stream-update acknowledgement.
  using AckObserver = std::function<void(std::uint32_t request_id, SensorId sensor,
                                         util::SimTime observed_at)>;
  void set_ack_observer(AckObserver observer) { ack_observer_ = std::move(observer); }

  /// Input from the Filtering Service (wired directly by the runtime).
  void on_filtered(const DataMessage& message, util::SimTime first_heard);

  /// View-taking twin for callers whose message already aliases a wire
  /// buffer (the gateway's socket ingest): fan-out re-encodes into the
  /// shared delivery frame directly from the view, so no owned
  /// DataMessage — and no counted payload copy — is materialised.
  void on_filtered(const DataMessageView& message, util::SimTime first_heard);

  /// Direct (non-RPC) subscription management, used by in-process
  /// services and tests. The RPC methods call these.
  SubscriptionId subscribe(net::Address consumer, StreamPattern pattern,
                           SubscribeOptions qos = {});
  bool unsubscribe(SubscriptionId id);
  std::size_t drop_consumer(net::Address consumer);

  /// Streams subscription mutations into the recovery harness's
  /// replicated op log (DispatchOp kinds above). Ops are never
  /// emitted while apply_op() is replaying.
  using OpSink = std::function<void(std::uint16_t kind, util::BytesView payload)>;
  void set_op_sink(OpSink sink) { op_sink_ = std::move(sink); }

  /// Applies one replayed op-log record (promotion path). Malformed
  /// payloads are ignored; replay is idempotent.
  void apply_op(std::uint16_t kind, util::BytesView payload);

  /// Crash-recovery snapshot: the subscription table, byte-deterministic
  /// (walked sorted). Flows (credits, quarantine flags, backlogs) live
  /// outside dispatch's crash domain, so no checkpoint carries them.
  /// Dispatch keeps no per-stream state, so the snapshot scales with
  /// subscriptions, not streams.
  [[nodiscard]] util::Bytes capture_state() const;

  /// The recovery harness's full and delta hooks. The table is small,
  /// so a delta carries it whole: the two frame kinds have the same
  /// body.
  [[nodiscard]] util::Bytes capture_full() const { return capture_state(); }
  [[nodiscard]] util::Bytes capture_delta() const { return capture_state(); }
  [[nodiscard]] util::Status<util::DecodeError> apply_delta(util::BytesView delta) {
    return restore_state(delta);
  }

  /// Rebuilds the subscription table from capture_state() bytes; parses
  /// fully before committing. Flows are left as they are.
  [[nodiscard]] util::Status<util::DecodeError> restore_state(util::BytesView state);

  /// Crash wipe: drops the subscription table. Flows survive: what was
  /// shed for a consumer waits for it whatever happens to dispatch.
  void reset_state();

  /// Post-recovery kick: every flow is re-primed to a full credit window
  /// (acks posted while dispatch was down died on the bus, and in-flight
  /// deliveries are unknowable; the cost is at most one extra window of
  /// in-flight copies per consumer), then drains its backlog, in
  /// consumer order. Frames that arrived while dispatch was down are
  /// not its concern: the recovery door held them and has already fed
  /// them back through on_filtered().
  void resume_quarantined();

  /// Message traces: brackets fan-out in a "dispatch" span, opens the
  /// "deliver" span when copies are posted, discards orphaned journeys.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  [[nodiscard]] const DispatchStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SubscriptionTable& subscriptions() const noexcept { return table_; }
  [[nodiscard]] net::Address address() const noexcept { return node_.address(); }

  /// Index + arena bytes of the flow table (bench_scale bytes/stream;
  /// excludes backlog storage).
  [[nodiscard]] std::size_t memory_bytes() const noexcept { return flows_.memory_bytes(); }

  /// Lookup cost of the flow table's index (bench_scale probe gate).
  [[nodiscard]] ProbeStats probe_stats() const { return flows_.probe_stats(); }

 private:
  /// Per-consumer flow state, created lazily at first delivery. Outside
  /// the crash domain: reset_state() and checkpoints leave it alone.
  struct Flow {
    std::uint32_t credits = 0;
    bool quarantined = false;
    /// Delivery frames shed while quarantined, oldest first. Each is a
    /// view of the one encode_delivery buffer every consumer's copy of
    /// that message shares. Only a quarantined flow holds frames.
    util::RingBuffer<util::SharedBytes> backlog{kBacklogFrames};
  };

  using FlowTable = StreamTable<Flow, ConsumerKey>;

  void on_envelope(net::Envelope envelope);
  void deliver(const DataMessageView& message, util::SimTime first_heard);
  Flow& flow_for(net::Address consumer);
  void on_credit(const net::Envelope& envelope);
  /// Spends the flow's credits on its backlog, oldest frame first; the
  /// consumer leaves quarantine once the backlog is empty and a credit
  /// remains.
  void drain(net::Address consumer, Flow& flow);

  net::MessageBus& bus_;
  AuthService& auth_;
  StreamCatalog& catalog_;
  net::RpcNode node_;
  SubscriptionTable table_;
  net::Address orphan_sink_;
  AckObserver ack_observer_;
  DispatchStats stats_;
  obs::Tracer* tracer_ = nullptr;
  std::vector<net::Address> scratch_;  ///< Reused fan-out buffer.
  FlowControlConfig flow_;
  FlowTable flows_;  ///< Keyed by consumer address.
  OpSink op_sink_;
};

}  // namespace garnet::core
