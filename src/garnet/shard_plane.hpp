// Sharded multi-core dispatch plane with a deterministic cross-shard
// merge.
//
// Everything from filtering to delivery used to run on one thread inside
// the deterministic scheduler; the paper sizes Garnet at 2^24 sensors ×
// 256 streams, which no single core serves. This plane partitions the
// dispatch/filtering hot path by StreamKey hash into N *shards*. Each
// shard is a vertical slice of the data plane with its own:
//
//   * virtual clock (sim::Scheduler) — the shard's deterministic world;
//   * fixed-network bus with bounded prioritized inboxes, shed ledger,
//     and shed journal (net/bus.hpp, net/overload.hpp);
//   * FilteringService + DispatchingService with shard-local StreamTable
//     slices (dedup state, credit ledger and quarantine backlogs);
//   * Orphanage (unclaimed data);
//   * checkpoint/delta stream (its dispatcher's capture_full /
//     capture_delta, registered by register_recovery()).
//
// Shards share no mutable state, so a round of work — every shard
// draining its batch to idle — runs the shards on pinned worker threads
// (sim/worker_pool.hpp) with no locks in the hot path and no barrier
// *inside* the round. Determinism survives the threads because the
// cross-shard effects are merged, not raced:
//
//   * Arrival stamping. Every injected message is stamped with the next
//     tick of a plane-global virtual timeline before it is routed, so a
//     message's arrival time is a function of injection order only —
//     never of shard count or thread interleaving.
//   * Merge barrier. run_round() waits for every shard, then re-aligns
//     all shard clocks to the round's maximum (Scheduler::advance_to)
//     and re-bases the timeline there. Within a shard, event chains are
//     pure functions of arrival times (shard buses run jitter-free), so
//     the merged clock itself is reproducible.
//   * Journal merge. Each shard's shed journal is merged into one
//     sequence under a total order — ascending (virtual time, to, from,
//     type, class, policy), ties broken by shard-local order — so
//     same-seed runs render byte-identical merged journals, and a
//     workload whose endpoints are shard-pure (every endpoint's traffic
//     lives on one shard, e.g. per-stream consumers) renders the *same*
//     journal at any shard count.
//
// At N=1 the plane is exactly the classic single-threaded pipeline:
// shard 0's checkpoint frames are byte-identical to an unsharded
// DispatchingService driven with the same operations (the PR-7 golden
// frames), which is what lets a deployment turn sharding on without a
// wire-visible state change.
//
// Control plane (subscribe/unsubscribe/credits) is routed, not sharded:
// exact patterns go to the owning shard, wildcards fan to every shard,
// and credit replenishment targets the shard whose ledger granted the
// window. Control calls and merged views (journals, stats, checkpoints,
// metrics collection) must run between rounds — the merge barrier is
// the only synchronisation point.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/auth.hpp"
#include "core/catalog.hpp"
#include "core/dispatch.hpp"
#include "core/filtering.hpp"
#include "core/orphanage.hpp"
#include "garnet/recovery.hpp"
#include "net/admission.hpp"
#include "net/bus.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "sim/worker_pool.hpp"
#include "wireless/radio.hpp"

namespace garnet {

struct ShardPlaneConfig {
  /// Data-plane shards. Clamped to at least 1.
  std::uint32_t shards = 1;
  /// Run rounds on pinned worker threads (one per shard). Off = every
  /// shard runs inline on the caller, in shard order — same results,
  /// one core (the execution mode is invisible to the merge products).
  bool use_workers = true;
  bool pin_threads = true;
  /// Per-shard bus template: latency, inbox shapes, control types, shed
  /// journal limit. Jitter is forced to zero — shard event chains must
  /// be pure functions of arrival times for the merge to reproduce.
  net::MessageBus::Config bus;
  core::Orphanage::Config orphanage;
  /// Per-shard credit ledger (dispatch flow control). Window semantics
  /// are per (consumer, shard): a consumer subscribed on two shards
  /// holds two independent windows.
  core::FlowControlConfig flow;
  /// Adaptive admission in front of inject()/ingest(). The gate is
  /// plane-global on purpose: admission decisions are made while
  /// stamping arrivals on the injection timeline — before routing — so
  /// they are a function of injection order only, identical at any
  /// shard count, and probe ticks run at the merge barrier so every
  /// shard's credit window resizes in lockstep between rounds.
  net::AdmissionConfig admission;
};

/// Plane-level consumer handle: one logical consumer, one bus endpoint
/// per shard (delivery for a stream always originates on its owning
/// shard's bus).
using PlaneConsumerId = std::uint32_t;
/// Plane-level subscription handle mapping to one or more shard-local
/// subscriptions (one for exact patterns, N for wildcards).
using PlaneSubscriptionId = std::uint64_t;

class ShardedDispatchPlane {
 public:
  /// Delivery callback. Runs on the owning shard's worker thread during
  /// a round: it may touch that shard (e.g. post a credit ack on the
  /// same bus) but nothing cross-shard. A consumer subscribed on
  /// several shards must tolerate concurrent invocations.
  using Handler = std::function<void(std::uint32_t shard, const net::Envelope& envelope)>;

  explicit ShardedDispatchPlane(ShardPlaneConfig config);
  ~ShardedDispatchPlane();

  ShardedDispatchPlane(const ShardedDispatchPlane&) = delete;
  ShardedDispatchPlane& operator=(const ShardedDispatchPlane&) = delete;

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Owning shard of a stream: splitmix64(packed StreamKey) mod N. A
  /// mixed hash, not the raw packed id — Figure-2 ids are sensor<<8, so
  /// low-bit modulo would alias every sensor onto shard 0.
  [[nodiscard]] std::uint32_t shard_of(core::StreamId id) const noexcept;

  // --- control plane (between rounds only) --------------------------------

  /// Registers `name` as an endpoint on every shard bus.
  PlaneConsumerId add_consumer(const std::string& name, Handler handler);
  [[nodiscard]] net::Address consumer_address(PlaneConsumerId consumer,
                                              std::uint32_t shard) const;

  /// Cross-shard subscribe routing: exact patterns land on the owning
  /// shard's table; wildcards land on every shard (each shard matches
  /// its own slice of the stream space).
  PlaneSubscriptionId subscribe(PlaneConsumerId consumer, core::StreamPattern pattern,
                                core::SubscribeOptions qos = {});
  bool unsubscribe(PlaneSubscriptionId id);
  /// Drops every subscription and flow the consumer holds on any shard.
  std::size_t drop_consumer(PlaneConsumerId consumer);

  /// Cross-shard credit routing: replenishes the consumer's delivery
  /// window on the shard that granted it (a kDeliveryCredit envelope on
  /// that shard's bus, so it rides the same control-class path as any
  /// consumer ack).
  void grant_credits(PlaneConsumerId consumer, std::uint32_t shard, std::uint32_t credits);

  // --- data plane ---------------------------------------------------------

  /// Queues one already-filtered message for its owning shard's
  /// dispatcher (the gateway/archive ingress shape). With admission
  /// enabled the message must first win a data ticket at its would-be
  /// arrival stamp; refused messages are shed at the door without
  /// consuming an injection tick, so accepted arrivals keep identical
  /// stamps at any shard count.
  void inject(const core::DataMessage& message);
  /// Queues one raw receiver copy for its owning shard's filtering
  /// (dedup + reorder run shard-locally). Copies whose frame does not
  /// parse route to shard 0, whose filtering counts them malformed.
  /// Subject to the same admission gate as inject().
  void ingest(const wireless::ReceptionReport& report);

  /// Runs one round: hands every shard its queued batch, drains each
  /// shard to idle (worker pool or inline), then merges — re-aligns all
  /// shard clocks to the round's maximum and re-bases the injection
  /// timeline. Returns total events executed.
  std::size_t run_round();
  /// Rounds until no queued input remains (a crashed shard's inputs
  /// wait at its recovery door and are queued again at its recovery).
  std::size_t run_until_idle();

  // --- merged views (between rounds only) ---------------------------------

  /// The merged virtual clock (every shard sits here after a round).
  [[nodiscard]] util::SimTime now() const;

  /// Every shard's shed journal, merged under the deterministic total
  /// order (net::shed_merge_before) and rendered with the bus's own
  /// record renderer — same-seed runs compare byte-for-byte.
  [[nodiscard]] std::string merged_shed_journal() const;
  [[nodiscard]] net::ShedStats merged_shed_stats() const;
  [[nodiscard]] core::DispatchStats merged_dispatch_stats() const;
  [[nodiscard]] core::FilteringStats merged_filtering_stats() const;

  // --- checkpoints / recovery ---------------------------------------------

  /// Registers every shard's dispatcher with the harness as
  /// "<prefix>.shard<i>": each shard checkpoints on the harness cadence
  /// and recovers on its own. A dispatcher's delta carries its whole
  /// subscription table, so a shard restored from any chain equals one
  /// restored from a full frame. Each shard's frames are its
  /// dispatcher's own (dispatch(i)), so at N=1 they are byte-identical
  /// to an unsharded DispatchingService's.
  /// While a shard is down, inject()/ingest() hand its inputs to its
  /// recovery door, the Runtime's crash rule: they run after the
  /// shard's recovery, in arrival order. Crash and restart between
  /// rounds only.
  void register_recovery(RecoveryHarness& harness,
                         const std::string& prefix = "dispatch-plane");

  // --- telemetry ----------------------------------------------------------

  /// Pull collector exposing, per shard i (label {shard="i"}):
  ///   garnet.shard.msgs        — messages routed to the shard so far;
  ///   garnet.shard.inbox_depth — queued envelopes across its inboxes;
  ///   garnet.shard.merge_lag   — ns the shard's clock trailed the
  ///                              round maximum at the last merge.
  /// Collect between rounds only. Deregistered on destruction.
  void set_metrics(obs::MetricsRegistry& registry);

  // --- per-shard access (tests, benches; between rounds only) -------------

  [[nodiscard]] core::DispatchingService& dispatch(std::uint32_t shard);
  [[nodiscard]] core::FilteringService& filtering(std::uint32_t shard);
  [[nodiscard]] core::Orphanage& orphanage(std::uint32_t shard);
  [[nodiscard]] net::MessageBus& bus(std::uint32_t shard);
  [[nodiscard]] sim::Scheduler& scheduler(std::uint32_t shard);

  /// Plane admission gate; nullptr unless config.admission.enabled.
  /// Journal/stats reads between rounds only.
  [[nodiscard]] net::AdmissionGate* admission() noexcept { return gate_.get(); }

  /// Messages routed to the shard (inject + ingest).
  [[nodiscard]] std::uint64_t processed(std::uint32_t shard) const;
  /// Cumulative thread-CPU ns the shard's worker spent inside rounds —
  /// the shard's critical path (sim::thread_cpu_now_ns discipline).
  [[nodiscard]] std::uint64_t busy_ns(std::uint32_t shard) const;
  /// Inputs the next round will run, across all shards (a crashed
  /// shard's inputs wait at its recovery door, not here).
  [[nodiscard]] std::uint64_t pending_inputs() const;

 private:
  struct PendingInput {
    util::SimTime at;
    std::variant<core::DataMessage, wireless::ReceptionReport> input;
  };

  /// One vertical slice of the data plane. Construction order is the
  /// classic pipeline's: scheduler, bus, auth, catalog, filtering,
  /// dispatch, orphanage — so at N=1 every endpoint receives the same
  /// bus address it would in the unsharded wiring.
  struct Shard {
    sim::Scheduler scheduler;
    net::MessageBus bus;
    core::AuthService auth;
    core::StreamCatalog catalog;
    core::FilteringService filtering;
    core::DispatchingService dispatch;
    core::Orphanage orphanage;

    std::vector<PendingInput> pending;
    /// Set by register_recovery(); never down before it.
    RecoveryHarness::Door door;
    std::uint64_t processed = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t merge_lag_ns = 0;      ///< Clock lag at the last merge.
    std::size_t last_round_events = 0;   ///< Events executed last round.

    Shard(const net::MessageBus::Config& bus_config,
          const core::Orphanage::Config& orphanage_config);
  };

  struct ConsumerEntry {
    std::string name;
    Handler handler;                     ///< Shared by every shard endpoint.
    std::vector<net::Address> address;   ///< [shard] -> endpoint address.
  };

  struct SubscriptionEntry {
    PlaneConsumerId consumer = 0;
    /// (shard, shard-local id) pairs; one for exact, N for wildcard.
    std::vector<std::pair<std::uint32_t, core::SubscriptionId>> parts;
  };

  /// Queues `input` for the shard's next round, or holds it at the
  /// shard's door while the shard is down.
  void queue(Shard& shard, PendingInput input);
  void run_shard(Shard& shard);
  void merge_round();
  void collect(obs::SnapshotBuilder& out) const;

  ShardPlaneConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Plane-global admission gate (null when disabled). Touched only on
  /// the caller thread: at inject/ingest and at the merge barrier.
  std::unique_ptr<net::AdmissionGate> gate_;
  std::unique_ptr<sim::WorkerPool> pool_;  ///< Null in inline mode.
  std::vector<sim::WorkerPool::Task> round_tasks_;

  /// Plane-global injection timeline: arrival k of the current round is
  /// stamped timeline_ + k * kInjectTick, re-based at every merge.
  util::SimTime timeline_;
  std::uint64_t inject_seq_ = 0;

  std::vector<ConsumerEntry> consumers_;
  std::map<PlaneSubscriptionId, SubscriptionEntry> subscriptions_;
  PlaneSubscriptionId next_subscription_ = 1;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::CollectorId collector_id_ = 0;
};

}  // namespace garnet
