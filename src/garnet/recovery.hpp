// Service-agnostic crash recovery: checkpoints + replicated op-log.
//
// The harness the paper's presumption of "service-level ... replication
// ... for efficiency, data-integrity, and fault-tolerance" (§3) demands
// for *every* stateful service. Each managed service registers a
// RecoveryHarness::Service with these hooks: capture and restore, the
// optional incremental pair capture_delta/apply_delta, wipe, and the
// optional apply_op and on_restart. checkpointed() fills the four
// checkpoint hooks from a service's capture_full/restore_state/
// capture_delta/apply_delta; the caller sets wipe, apply_op and
// on_restart. The harness does the rest:
//
//   * On a checkpoint cadence, the primary's state is captured into a
//     core/checkpoint frame and replicated to a standby endpoint over
//     the bus as a control-class kCheckpointReplica envelope. With
//     full_checkpoint_interval > 1 and a service that provides the
//     capture_delta/apply_delta hooks, most frames are *deltas* — only
//     the state dirtied since the previous capture — chained on the
//     last full frame by epoch; the replica CRC-validates every frame
//     at receipt and refuses deltas whose base epoch does not match
//     its chain head (a lost frame breaks the chain until the next
//     full capture resyncs it).
//   * Between checkpoints, logged mutations stream to the standby as
//     kOpLogRecord envelopes into a bounded core::checkpoint::OpLog.
//   * A crash (injected by net::FaultPlan::crashes or called directly)
//     wipes the service's volatile state and marks its bus endpoints
//     down — peers keep posting, the bus counts and discards.
//   * One crash rule for inputs: manage() returns the service's Door.
//     A caller that feeds the service directly (the runtime's radio,
//     filtering and dispatch sinks, the shard plane's inject) asks
//     door.down() on every input and, while the service is down, hands
//     the input to door.hold() instead. Nothing is dropped: held inputs
//     wait in arrival order and run at recovery.
//   * A heartbeat watchdog notices the dead service after
//     miss_threshold beats and *promotes*: restore the latest replica
//     checkpoint, replay ops at or past its watermark, bring endpoints
//     back up, run the held inputs in arrival order, then the service's
//     on_restart hook (e.g. dispatch drains its quarantined consumers'
//     backlogs).
//     A scheduled restart does the same immediately (rejoin).
//
// Replication rides the same bus as everything else, so checkpoints and
// ops are subject to the configured latency — a standby is always a
// little behind, which is exactly the gap the op-log replay closes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "net/bus.hpp"
#include "obs/metrics.hpp"
#include "sim/event_fn.hpp"
#include "sim/scheduler.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/time.hpp"

namespace garnet {

struct RecoveryConfig {
  bool enabled = false;
  /// Watchdog beat; a crashed service is promoted after miss_threshold
  /// consecutive beats find it dead.
  util::Duration heartbeat_interval = util::Duration::millis(100);
  std::uint32_t miss_threshold = 3;
  /// Checkpoint cadence per managed service. Longer intervals mean more
  /// ops to replay at promotion; shorter intervals cost capture time.
  util::Duration checkpoint_interval = util::Duration::millis(250);
  /// Every Nth checkpoint is a full frame; the N-1 between are delta
  /// frames carrying only state dirtied since the previous capture
  /// (services must provide the capture_delta/apply_delta hooks; ones
  /// that don't always get full frames). 1 disables deltas entirely.
  std::uint32_t full_checkpoint_interval = 1;
};

/// Recovery counters. Surfaced as garnet.recovery.* / garnet.checkpoint.*
/// via set_metrics — tests read registry snapshots.
struct RecoveryStats {
  std::uint64_t checkpoints_taken = 0;     ///< Full frames captured on the primary.
  std::uint64_t checkpoints_stored = 0;    ///< Full frames accepted by the replica.
  std::uint64_t checkpoints_rejected = 0;  ///< Frames failing decode/restore.
  std::uint64_t checkpoint_bytes_last = 0;
  std::uint64_t deltas_taken = 0;    ///< Delta frames captured on the primary.
  std::uint64_t deltas_stored = 0;   ///< Delta frames chained by the replica.
  std::uint64_t deltas_rejected = 0; ///< Deltas refused (no base / epoch skew / CRC).
  std::uint64_t deltas_applied = 0;  ///< Deltas replayed onto a restored base.
  std::uint64_t delta_bytes_last = 0;
  std::uint64_t ops_logged = 0;      ///< Mutations appended by primaries.
  std::uint64_t ops_replicated = 0;  ///< Records accepted by the replica.
  std::uint64_t ops_replayed = 0;    ///< Records re-applied at recovery.
  std::uint64_t crashes = 0;
  std::uint64_t promotions = 0;  ///< Watchdog-detected recoveries.
  std::uint64_t rejoins = 0;     ///< Scheduled-restart recoveries.
  util::Duration last_recovery_latency{0};  ///< Crash -> state restored.
};

class RecoveryHarness {
  struct Managed;

 public:
  static constexpr const char* kPrimaryEndpointName = "garnet.recovery.primary";
  static constexpr const char* kReplicaEndpointName = "garnet.recovery.replica";

  /// One stateful service under management. All hooks run on the sim
  /// thread; capture/restore use the service's core/checkpoint framing.
  struct Service {
    std::string name;
    /// Optional re-anchor group. Services sharing a non-empty group are
    /// slices of one logical plane (the shard plane registers each shard
    /// as "dispatch.shard<i>" under one group): when any member is
    /// recovered, *every* member's next checkpoint is forced full, so
    /// the replica's delta chains for all slices re-anchor together and
    /// a cross-shard restore never mixes pre- and post-promotion bases.
    std::string group;
    /// Bus endpoint names silenced while the service is crashed.
    std::vector<std::string> endpoints;
    /// Serialise current state (deterministic bytes; see checkpoint.hpp).
    /// When the delta hooks below are set, this must also rebase the
    /// service's dirty baseline (capture_full(), not capture_state()).
    std::function<util::Bytes()> capture;
    /// Replace state from a decoded checkpoint body. Must parse fully
    /// into temporaries before committing (never partially applies).
    std::function<util::Status<util::DecodeError>(util::BytesView)> restore;
    /// Optional incremental pair. capture_delta serialises only state
    /// touched since the previous capture (full or delta) and rebases;
    /// apply_delta stacks one such body onto restored state, atomically.
    /// Both must be set for the harness to emit delta frames.
    std::function<util::Bytes()> capture_delta;
    std::function<util::Status<util::DecodeError>(util::BytesView)> apply_delta;
    /// Drop all volatile state (the crash itself).
    std::function<void()> wipe;
    /// Re-apply one replicated op (optional; checkpoint-only services
    /// such as location/catalog leave it unset).
    std::function<void(std::uint16_t kind, util::BytesView payload)> apply_op;
    /// Runs after state is restored, endpoints are back up and the held
    /// inputs have run (optional): dispatch resumes its flows here.
    std::function<void()> on_restart;
  };

  /// A managed service's input door, returned by manage(). down() is
  /// the per-input "is it crashed?" test: a load, no name lookup. While
  /// the service is down, hold() keeps each input (a closure owning
  /// whatever it needs) in arrival order; recovery runs them after
  /// restore and op replay, before on_restart. A default Door belongs to
  /// no service and is never down.
  class Door {
   public:
    Door() = default;
    [[nodiscard]] bool down() const noexcept;
    /// Keeps `input` for the recovery. Only while down().
    void hold(sim::EventFn input) const;

   private:
    friend class RecoveryHarness;
    explicit Door(Managed* managed) : managed_(managed) {}
    Managed* managed_ = nullptr;
  };

  RecoveryHarness(sim::Scheduler& scheduler, net::MessageBus& bus, RecoveryConfig config);
  ~RecoveryHarness();

  RecoveryHarness(const RecoveryHarness&) = delete;
  RecoveryHarness& operator=(const RecoveryHarness&) = delete;

  Door manage(Service service);

  /// Primary-side mutation log: replicates one op to the standby. Ops
  /// from a crashed service are dropped (a dead process logs nothing).
  void log_op(const std::string& service, std::uint16_t kind, util::BytesView payload);

  /// Crash-stop the named service now: wipe volatile state, silence its
  /// endpoints. The watchdog promotes after miss_threshold beats unless
  /// restart() revives it first.
  void crash(const std::string& service);
  /// Revive immediately (restore + replay + held inputs + on_restart).
  /// No-op unless crashed.
  void restart(const std::string& service);
  /// Name lookup; per-input callers ask their Door instead.
  [[nodiscard]] bool crashed(const std::string& service) const;

  /// Registers a pull collector exposing garnet.checkpoint.taken/stored/
  /// rejected counters and last_bytes gauge plus garnet.recovery.*
  /// counters, the crashed/latency gauges and, per managed service, the
  /// door's inputs_held gauge and inputs_handed_back counter.
  /// Deregistered on destruction (the registry must outlive the harness).
  void set_metrics(obs::MetricsRegistry& registry);

  [[nodiscard]] const RecoveryStats& stats() const noexcept { return stats_; }

 private:
  /// Replicated op-log bound per service (oldest evicted first).
  static constexpr std::size_t kOplogCapacity = 4096;

  struct Managed {
    Service spec;
    bool is_crashed = false;
    std::uint32_t misses = 0;
    util::SimTime crashed_at;
    // Primary-side replication cursors (live in the harness, not the
    // service process, so they survive the crash like a peer would).
    std::uint64_t epoch = 0;
    std::uint64_t next_lsn = 1;
    std::uint32_t deltas_since_full = 0;
    /// Next capture must be a full frame (set after every recovery: the
    /// promoted service's state no longer matches the replica's chain).
    bool force_full = true;
    // Replica-side copy of the service's durable state: the newest full
    // frame plus the validated delta chain stacked on it.
    util::Bytes checkpoint;
    std::uint64_t checkpoint_lsn = 1;  ///< Ops < this are inside the checkpoint.
    /// (watermark, delta frame) in arrival order; each frame's base_epoch
    /// was checked against chain_epoch when it was accepted.
    std::vector<std::pair<std::uint64_t, util::Bytes>> deltas;
    std::uint64_t chain_epoch = 0;  ///< Epoch of the newest stored frame.
    core::checkpoint::OpLog log;
    /// Inputs that reached the door while the service was down, in
    /// arrival order; recovery runs and empties them.
    std::vector<sim::EventFn> held;
    std::uint64_t handed_back = 0;

    explicit Managed(Service s) : spec(std::move(s)), log(kOplogCapacity) {}
  };

  void arm_heartbeat();
  void arm_checkpoint();
  void on_heartbeat();
  void take_checkpoints();
  void on_replica(net::Envelope envelope);
  void recover(Managed& managed, bool promotion);

  sim::Scheduler& scheduler_;
  net::MessageBus& bus_;
  RecoveryConfig config_;
  net::Address primary_;
  net::Address replica_;
  std::map<std::string, Managed> services_;  ///< Sorted: deterministic ticks.
  sim::EventId heartbeat_;
  sim::EventId checkpoint_timer_;
  RecoveryStats stats_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::CollectorId collector_id_ = 0;
};

inline bool RecoveryHarness::Door::down() const noexcept {
  return managed_ != nullptr && managed_->is_crashed;
}

inline void RecoveryHarness::Door::hold(sim::EventFn input) const {
  managed_->held.push_back(std::move(input));
}

/// A RecoveryHarness::Service named `name` whose checkpoint hooks call
/// `service`'s capture_full(), restore_state(), capture_delta() and
/// apply_delta() (the surface every core service shares). The caller
/// sets endpoints, group, wipe, apply_op and on_restart; `service` must
/// outlive the harness.
template <typename Checkpointed>
[[nodiscard]] RecoveryHarness::Service checkpointed(std::string name, Checkpointed& service) {
  RecoveryHarness::Service spec;
  spec.name = std::move(name);
  spec.capture = [&service] { return service.capture_full(); };
  spec.restore = [&service](util::BytesView state) { return service.restore_state(state); };
  spec.capture_delta = [&service] { return service.capture_delta(); };
  spec.apply_delta = [&service](util::BytesView delta) { return service.apply_delta(delta); };
  return spec;
}

}  // namespace garnet
