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
#include <optional>
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
  // Crash recovery (zero unless replay_stash() ran):
  std::uint64_t recovery_replayed = 0;   ///< Crash-window frames re-dispatched after restart.
  std::uint64_t recovery_returned = 0;   ///< Pre-crash frames re-stashed during replay.

  /// Cross-shard aggregation: the shard plane sums its per-shard
  /// dispatchers' ledgers into one plane-wide view at the merge barrier.
  DispatchStats& operator+=(const DispatchStats& other) noexcept;
};

/// Op-log record kinds emitted through set_op_sink() and consumed by
/// apply_op(). Payloads are ByteWriter frames:
///   kOpSubscribe    [u64 id][u32 consumer][u64 packed pattern][u32 min_interval_ms][u32 max_age_ms]
///   kOpUnsubscribe  [u64 id]
///   kOpDropConsumer [u32 consumer]
///   kOpCursor       [u32 packed stream][u16 sequence]
enum DispatchOp : std::uint16_t {
  kOpSubscribe = 1,
  kOpUnsubscribe = 2,
  kOpDropConsumer = 3,
  kOpCursor = 4,
};

/// Credit-based backpressure for the dispatch fan-out. Each subscriber
/// carries a delivery window; every posted copy spends one credit and the
/// consumer replenishes with kDeliveryCredit acks after it processes a
/// delivery. A consumer that drains its window to zero is *quarantined*:
/// its copies are shed to the Orphanage (the stash) while every other
/// subscriber's fan-out continues untouched. When credits return, the
/// dispatcher replays the stash via Orphanage::kFetchBacklog, filtered by
/// the consumer's exact shed set so nothing is delivered twice.
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

  /// Streams subscription and cursor mutations into the recovery
  /// harness's replicated op log (DispatchOp kinds above). Ops are never
  /// emitted while apply_op() is replaying.
  using OpSink = std::function<void(std::uint16_t kind, util::BytesView payload)>;
  void set_op_sink(OpSink sink) { op_sink_ = std::move(sink); }

  /// Applies one replayed op-log record (promotion path). Malformed
  /// payloads are ignored; replay is idempotent.
  void apply_op(std::uint16_t kind, util::BytesView payload);

  /// Crash-recovery snapshot: subscriptions, per-consumer credit/
  /// quarantine state with shed sets, and per-stream delivery cursors.
  /// Byte-deterministic (every unordered container is walked sorted).
  [[nodiscard]] util::Bytes capture_state() const;

  /// capture_state() plus a rebase of the incremental-capture baseline.
  [[nodiscard]] util::Bytes capture_full();

  /// Incremental snapshot. Subscriptions and flows are small
  /// (per-consumer) and ride every delta whole; the cursor table — the
  /// section that actually scales with stream count — is encoded as
  /// removals + dirty entries only, so capture cost tracks traffic, not
  /// the 10^6-stream registration footprint.
  [[nodiscard]] util::Bytes capture_delta();

  /// Applies one capture_delta() body on top of the current state.
  /// Parses fully before committing — never partially applies. Flows are
  /// re-primed exactly as in restore_state().
  [[nodiscard]] util::Status<util::DecodeError> apply_delta(util::BytesView delta);

  /// Rebuilds from capture_state() bytes; parses fully before
  /// committing. Restored flows are re-primed to a full credit window —
  /// in-flight deliveries died with the primary, so the true outstanding
  /// count is unknowable; the cost is bounded at one extra window of
  /// in-flight copies per consumer. Quarantine flags and shed sets are
  /// preserved, so resume replay stays duplicate-free.
  [[nodiscard]] util::Status<util::DecodeError> restore_state(util::BytesView state);

  /// Crash wipe: drops subscriptions, flows, and cursors.
  void reset_state();

  /// Post-restore gap repair: re-fetches the Orphanage stash for every
  /// cursor stream. Frames past the cursor (arrived while down, parked
  /// in the stash by the runtime's crash redirect) re-enter the normal
  /// fan-out; frames at or before it (orphans, quarantine sheds) return
  /// to the stash. Finishes by kicking quarantine resume for restored
  /// quarantined consumers.
  void replay_stash();

  /// Newest delivered sequence for gap detection (nullopt = never seen).
  [[nodiscard]] std::optional<SequenceNo> cursor(StreamId id) const;

  /// Message traces: brackets fan-out in a "dispatch" span, opens the
  /// "deliver" span when copies are posted, discards orphaned journeys.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  [[nodiscard]] const DispatchStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SubscriptionTable& subscriptions() const noexcept { return table_; }
  [[nodiscard]] net::Address address() const noexcept { return node_.address(); }

  /// Index + arena bytes of the cursor and flow tables (bench_scale
  /// bytes/stream; excludes heap owned by shed sets).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return cursors_.memory_bytes() + flows_.memory_bytes();
  }

  /// Lookup cost of the cursor and flow tables' indexes, summed
  /// (bench_scale probe gate).
  [[nodiscard]] ProbeStats probe_stats() const {
    ProbeStats stats = cursors_.probe_stats();
    stats += flows_.probe_stats();
    return stats;
  }

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
    /// copies shed for *other* consumers, and a post-crash sweep
    /// interleaves old and new sequences, so neither a floor nor a
    /// [floor, ceiling] range can separate "missed" from "already
    /// received" — only membership can. Cleared per resume round, so it
    /// is bounded by one quarantine episode's sheds.
    std::unordered_set<std::uint64_t> shed;
  };

  /// A walk over stashed streams, fetched one kFetchBacklog batch at a
  /// time from the Orphanage (fetch_backlog()).
  struct BacklogSweep {
    std::vector<std::uint32_t> streams;  ///< Sorted: deterministic replay order.
    std::size_t index = 0;               ///< Stream being fetched.
  };

  /// One backlog-replay round for one quarantined consumer.
  struct ResumePlan : BacklogSweep {
    net::Address consumer;
    std::uint64_t epoch = 0;
    std::unordered_set<std::uint64_t> shed;  ///< Moved from the flow (see Flow::shed).
  };

  /// Key for Flow::shed / ResumePlan::shed.
  [[nodiscard]] static constexpr std::uint64_t shed_key(std::uint32_t packed,
                                                        SequenceNo seq) noexcept {
    return (static_cast<std::uint64_t>(packed) << 16) | seq;
  }

  /// Per-stream bounds of one post-restart stash sweep (StashReplay).
  /// `floor` bounds the sweep from below (processed before the crash),
  /// `ceiling` from above (delivered live since the sweep began), and
  /// `replayed` makes the sweep itself idempotent.
  struct ReplayWindow {
    SequenceNo floor = 0;  ///< cursor + 1 at sweep start.
    bool has_ceiling = false;
    SequenceNo ceiling = 0;  ///< First live post-promotion sequence.
    bool has_replayed = false;
    SequenceNo replayed = 0;  ///< Highest sequence this sweep delivered.
  };

  /// One post-restart stash sweep over the cursor streams. The sweep
  /// races live traffic: fetch rounds are RPC-paced, and both the
  /// replay's own deliveries and fresh post-promotion frames re-stash
  /// quarantine-shed copies the next round can fetch back. One
  /// ReplayWindow per stream replaces what used to be three parallel
  /// std::maps keyed by the same packed id.
  struct StashReplay : BacklogSweep {
    StreamTable<ReplayWindow> windows;
  };

  using FlowTable = StreamTable<Flow, ConsumerKey>;
  using CursorTable = StreamTable<SequenceNo>;

  void on_envelope(net::Envelope envelope);
  static void encode_flow(util::ByteWriter& w, const Flow& flow);
  [[nodiscard]] static Flow decode_flow(ConsumerKey key, util::ByteReader& r);
  /// restore_state()/apply_delta(): parse a full or delta body, then commit.
  [[nodiscard]] util::Status<util::DecodeError> load(util::BytesView bytes, bool delta);
  void deliver(const DataMessageView& message, util::SimTime first_heard);
  void advance_cursor(StreamId id, SequenceNo seq);
  /// One kFetchBacklog round-trip for the sweep's current stream. Each
  /// stashed frame in the reply reaches `on_frame` as a sub-view of the
  /// one reply buffer. The sweep moves to its next stream when the call
  /// fails (stash unreachable: skip rather than stall) or the batch comes
  /// back short (drained); then `next` runs.
  void fetch_backlog(const std::shared_ptr<BacklogSweep>& sweep,
                     std::function<void(util::SharedBytes)> on_frame,
                     std::function<void()> next);
  void fetch_stash(const std::shared_ptr<StashReplay>& plan);
  void on_stash_frame(StashReplay& plan, util::SharedBytes frame);
  void finish_stash_replay();
  Flow& flow_for(net::Address consumer);
  [[nodiscard]] Flow* flow_if_current(const ResumePlan& plan);
  [[nodiscard]] std::uint32_t resume_threshold() const;
  void on_credit(const net::Envelope& envelope);
  void maybe_resume(net::Address consumer);
  void start_resume(net::Address consumer, Flow& flow);
  void fetch_next(const std::shared_ptr<ResumePlan>& plan);
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
  /// Newest processed sequence per stream — the 10^6-scale table; its
  /// dirty set is what makes dispatch deltas O(traffic) not O(streams).
  CursorTable cursors_;
  /// Alive while a post-restart stash sweep is in flight, so deliver()
  /// can mark live traffic racing it (the sweep's per-stream ceiling).
  std::weak_ptr<StashReplay> active_stash_replay_;
  bool stash_replay_delivering_ = false;  ///< deliver() call is the sweep's own.
};

}  // namespace garnet::core
