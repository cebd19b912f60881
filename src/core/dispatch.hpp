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
#include <memory>
#include <unordered_set>

#include "core/auth.hpp"
#include "core/catalog.hpp"
#include "core/message.hpp"
#include "core/pubsub.hpp"
#include "core/stream_table.hpp"
#include "core/wire_types.hpp"
#include "net/rpc.hpp"
#include "obs/trace.hpp"

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
  std::uint64_t resumes = 0;             ///< Backlog-replay rounds started.
  std::uint64_t resume_redelivered = 0;  ///< Stashed copies delivered on resume.
  std::uint64_t resume_discarded = 0;    ///< Stashed copies dropped (dup/unsubscribed).
  std::uint64_t resume_returned = 0;     ///< Fetched copies re-stashed (no credits / consumer gone).
  std::uint64_t resume_unreachable = 0;  ///< Shed copies abandoned when a backlog fetch failed.
  std::uint64_t resume_missing = 0;      ///< Shed copies the stash no longer held (evicted).

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
/// its copies are shed to the Orphanage (the stash) while every other
/// subscriber's fan-out continues untouched. When credits return, the
/// dispatcher replays the stash via Orphanage::kFetchBacklog, filtered by
/// the consumer's exact shed set so nothing is delivered twice; a shed
/// copy the stash evicted is counted (DispatchStats::resume_missing).
struct FlowControlConfig {
  /// Deliveries in flight per consumer before quarantine. 0 = disabled.
  std::uint32_t credit_window = 0;
  /// Credits required before a quarantined consumer's backlog replay
  /// starts. 0 = half the window (at least 1).
  std::uint32_t resume_threshold = 0;

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

  DispatchingService(net::MessageBus& bus, AuthService& auth, StreamCatalog& catalog);

  /// Unclaimed data goes here (the Orphanage registers itself). Also the
  /// quarantine stash when flow control is enabled.
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

  /// Crash-recovery snapshot: subscriptions and per-consumer credit/
  /// quarantine state with shed sets. Byte-deterministic (every
  /// unordered container is walked sorted). Dispatch keeps no
  /// per-stream state, so the snapshot scales with consumers, not
  /// streams.
  [[nodiscard]] util::Bytes capture_state() const;

  /// The recovery harness's full and delta hooks. Both state sections
  /// are per-consumer and small, so a delta carries them whole: the two
  /// frame kinds have the same body. Each capture empties the flow
  /// table's mutation journal, which nothing reads.
  [[nodiscard]] util::Bytes capture_full();
  [[nodiscard]] util::Bytes capture_delta() { return capture_full(); }
  [[nodiscard]] util::Status<util::DecodeError> apply_delta(util::BytesView delta) {
    return restore_state(delta);
  }

  /// Rebuilds from capture_state() bytes; parses fully before
  /// committing. Restored flows are re-primed to a full credit window —
  /// in-flight deliveries died with the primary, so the true outstanding
  /// count is unknowable; the cost is bounded at one extra window of
  /// in-flight copies per consumer. Quarantine flags and shed sets are
  /// preserved, so resume replay stays duplicate-free.
  [[nodiscard]] util::Status<util::DecodeError> restore_state(util::BytesView state);

  /// Crash wipe: drops subscriptions and flows.
  void reset_state();

  /// Post-restore kick: restored quarantined flows come back with a full
  /// window, so each starts its backlog resume (in consumer order).
  /// Frames that arrived while dispatch was down are not its concern:
  /// the runtime held them and feeds them back through on_filtered().
  void resume_quarantined();

  /// Message traces: brackets fan-out in a "dispatch" span, opens the
  /// "deliver" span when copies are posted, discards orphaned journeys.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  [[nodiscard]] const DispatchStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SubscriptionTable& subscriptions() const noexcept { return table_; }
  [[nodiscard]] net::Address address() const noexcept { return node_.address(); }

  /// Index + arena bytes of the flow table (bench_scale bytes/stream;
  /// excludes heap owned by shed sets).
  [[nodiscard]] std::size_t memory_bytes() const noexcept { return flows_.memory_bytes(); }

  /// Lookup cost of the flow table's index (bench_scale probe gate).
  [[nodiscard]] ProbeStats probe_stats() const { return flows_.probe_stats(); }

 private:
  /// Per-consumer flow state, created lazily at first delivery. The epoch
  /// is globally unique per Flow instance so an in-flight resume can tell
  /// "my consumer was dropped (and possibly re-admitted)" apart from "my
  /// consumer is still the one I started for".
  struct Flow {
    std::uint32_t credits = 0;
    bool quarantined = false;
    bool resume_inflight = false;
    std::uint64_t epoch = 0;
    /// Exactly the (stream, sequence) pairs shed from this consumer,
    /// keyed `packed StreamId << 16 | sequence`. Resume redelivers a
    /// fetched frame iff it is in this set: the shared stash also holds
    /// orphans and copies shed for *other* consumers, so no per-stream
    /// floor can separate "missed" from "already received" — only
    /// membership can. Cleared per resume round, so it is bounded by one
    /// quarantine episode's sheds.
    std::unordered_set<std::uint64_t> shed;
  };

  /// One backlog-replay round for one quarantined consumer: a walk over
  /// the streams it was shed on, one kFetchBacklog batch at a time.
  struct ResumePlan {
    net::Address consumer;
    std::uint64_t epoch = 0;
    /// Moved from the flow (see Flow::shed); an entry leaves when its
    /// frame is fetched or its stream is given up (and counted), so
    /// what remains is still owed.
    std::unordered_set<std::uint64_t> shed;
    std::vector<std::uint32_t> streams;  ///< Sorted: deterministic replay order.
    std::size_t index = 0;               ///< Stream being fetched.
  };

  /// Key for Flow::shed / ResumePlan::shed.
  [[nodiscard]] static constexpr std::uint64_t shed_key(std::uint32_t packed,
                                                        SequenceNo seq) noexcept {
    return (static_cast<std::uint64_t>(packed) << 16) | seq;
  }

  using FlowTable = StreamTable<Flow, ConsumerKey>;

  void on_envelope(net::Envelope envelope);
  static void encode_flow(util::ByteWriter& w, const Flow& flow);
  [[nodiscard]] static Flow decode_flow(ConsumerKey key, util::ByteReader& r);
  void deliver(const DataMessageView& message, util::SimTime first_heard);
  Flow& flow_for(net::Address consumer);
  [[nodiscard]] Flow* flow_if_current(const ResumePlan& plan);
  [[nodiscard]] std::uint32_t resume_threshold() const;
  void on_credit(const net::Envelope& envelope);
  void maybe_resume(net::Address consumer);
  void start_resume(net::Address consumer, Flow& flow);
  /// One kFetchBacklog round-trip for the plan's current stream; each
  /// stashed frame in the reply reaches on_backlog_frame() as a sub-view
  /// of the one reply buffer. The plan moves to its next stream when the
  /// batch comes back short (drained) or the call fails (stash
  /// unreachable: skip rather than stall, counting what is abandoned).
  /// A batch that leaves the window empty ends the round instead.
  void fetch_next(const std::shared_ptr<ResumePlan>& plan);
  /// Erases the plan's entries for `stream`; returns how many there were.
  static std::uint64_t abandon_stream(ResumePlan& plan, std::uint32_t stream);
  void on_backlog_frame(ResumePlan& plan, util::SharedBytes frame);
  void finish_resume(const std::shared_ptr<ResumePlan>& plan);

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
  std::uint64_t next_flow_epoch_ = 1;
  OpSink op_sink_;
};

}  // namespace garnet::core
