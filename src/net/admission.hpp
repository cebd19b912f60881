// Adaptive admission control: a throughput-probing ticket pool in front
// of the filtering→dispatch path.
//
// PR 4 made overload *survivable* with hand-tuned constants: fixed inbox
// capacities, fixed credit windows. This header makes the front door
// *self-tuning*, borrowing MongoDB's execution-control design (dynamic
// ticket pools sized by throughput probing): before a data message may
// enter the pipeline it must take a ticket from a bounded pool, and a
// controller probes the pool size up and down on an exponentially-
// weighted goodput signal — concurrency that raises goodput is kept,
// concurrency that only raises downstream shedding is given back.
//
// Only data ingress is gated (radio uplinks, gateway/archive
// injection): an exhausted pool sheds the arriving message at the door,
// before it can queue work downstream. Control-plane traffic (recovery
// heartbeats, breaker probes, credits, actuation) never passes the
// gate, so a saturated data pool cannot delay watchdog promotion or
// breaker recovery — the bus's "control is never shed while data
// queues" invariant needs nothing more at admission.
//
// Deterministic by construction: tickets are released by virtual-time
// lease expiry (no completion callbacks, no wall clock), probe ticks
// fire at exact multiples of the probe interval on the sim clock, the
// controller draws no randomness, and every probe decision is journaled
// in a byte-comparable text form (the shed-journal contract) — same-seed
// runs render byte-identical admission journals at any shard count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/time.hpp"

namespace garnet::net {

/// One probe-tick outcome. kProbeUp/kProbeDown start an excursion,
/// kAccept commits the probed size as the new stable point, kBackoff
/// reverts to the last stable size after goodput fell, kHold keeps the
/// current size (at a bound, or nothing to learn this interval).
enum class ProbeDecision : std::uint8_t { kHold, kProbeUp, kProbeDown, kAccept, kBackoff };

[[nodiscard]] std::string_view to_string(ProbeDecision decision);

/// Throughput-probing controller knobs (MongoDB's server parameters,
/// renamed to this codebase's vocabulary).
struct ProbeConfig {
  /// Starting data-pool size; also the fixed size when probing is off.
  std::uint32_t initial_concurrency = 16;
  std::uint32_t min_concurrency = 2;
  std::uint32_t max_concurrency = 256;
  /// Probe-tick cadence. Decisions land at exact multiples of this on
  /// the virtual clock, which is what keeps journals shard-invariant.
  util::Duration interval = util::Duration::millis(50);
  /// Virtual time one admission holds its ticket. With arrival rate R,
  /// steady-state holders ≈ R × lease, so the pool size is a concurrency
  /// bound that doubles as an admission-rate bound of size/lease.
  util::Duration lease = util::Duration::micros(500);
  /// Probe excursion step, as a fraction of the current size (≥1 ticket).
  double step = 0.25;
  /// Weight of the newest interval's goodput in the EWMA.
  double ewma_weight = 0.5;
  /// A down-probe keeps the smaller size only while goodput stays at or
  /// above backoff_ratio × the best seen; below that it backs off.
  double backoff_ratio = 0.9;
};

/// Admission-control configuration folded into Runtime::Config and
/// ShardPlaneConfig. Defaults off: nothing is gated, nothing changes.
struct AdmissionConfig {
  bool enabled = false;
  /// false = static pools frozen at initial_concurrency (the PR-4 world,
  /// kept reachable so old sweeps stay reproducible: --admission=static).
  bool probing = true;
  ProbeConfig probe;
  /// Record the first N probe decisions in the byte-comparable journal.
  std::size_t journal_limit = 0;
};

/// Admission accounting, exposed as garnet.admission.* by the collector.
struct AdmissionStats {
  std::uint64_t data_admitted = 0;
  std::uint64_t data_rejected = 0;  ///< Shed at the door (pool exhausted).
  std::uint64_t probes = 0;         ///< Probe ticks evaluated.
  std::uint64_t resizes = 0;        ///< Ticks that changed the pool size.

  AdmissionStats& operator+=(const AdmissionStats& other) noexcept;
};

/// One journaled probe decision (determinism tests compare the text
/// rendering byte-for-byte across runs and shard counts).
struct ProbeRecord {
  util::SimTime at;               ///< The tick's deadline (k × interval).
  ProbeDecision decision = ProbeDecision::kHold;
  std::uint32_t from_size = 0;
  std::uint32_t to_size = 0;
  std::uint64_t goodput = 0;      ///< Interval goodput (useful deliveries).
  std::int64_t ewma_milli = 0;    ///< EWMA × 1000, integer for exact rendering.
};

/// Canonical one-line rendering (shed-journal contract: shared by the
/// gate's own journal and the shard plane's merged view).
[[nodiscard]] std::string render_probe_record(const ProbeRecord& record);

/// Deterministic counting semaphore with virtual-time lease release.
/// Not thread-safe: the unsharded runtime drives it from the sim thread;
/// the shard plane touches its pools only between rounds.
class TicketPool {
 public:
  explicit TicketPool(std::uint32_t size) : size_(size) {}

  /// Takes one ticket held until `now + lease`. Fails when every ticket
  /// is out. Expired leases are collected first, so callers never need
  /// a separate sweep.
  [[nodiscard]] bool try_acquire(util::SimTime now, util::Duration lease);

  /// Releases every ticket whose lease expired at or before `now`.
  std::size_t release_expired(util::SimTime now);

  /// Resizing never cancels outstanding leases; a shrink below the
  /// holder count simply refuses new admissions until leases drain.
  void resize(std::uint32_t size) { size_ = size; }

  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t holders() const noexcept {
    return static_cast<std::uint32_t>(leases_.size());
  }

  /// True when the pool refused an admission or ran full since the last
  /// call; reading clears the flag (one probe interval's saturation).
  [[nodiscard]] bool take_saturated() noexcept {
    const bool was = saturated_;
    saturated_ = false;
    return was;
  }

 private:
  void push_lease(util::SimTime expiry);

  std::uint32_t size_;
  std::deque<util::SimTime> leases_;  ///< Expiry times, kept ascending.
  bool saturated_ = false;
};

/// The probe state machine, pure and allocation-free: feed it one
/// interval's goodput + saturation, get the next pool size. Stable →
/// probe up while saturated (there may be unmet demand), probe down
/// while not (the pool may be larger than the offered load needs);
/// excursions that raise the EWMA are accepted as the new stable point,
/// ones that lower it are backed off.
class ThroughputProbe {
 public:
  explicit ThroughputProbe(const ProbeConfig& config);

  struct Outcome {
    ProbeDecision decision = ProbeDecision::kHold;
    std::uint32_t size = 0;   ///< Pool size for the next interval.
    double ewma = 0.0;
  };

  [[nodiscard]] Outcome on_interval(std::uint64_t goodput, bool saturated);

  [[nodiscard]] std::uint32_t concurrency() const noexcept { return size_; }
  [[nodiscard]] double ewma() const noexcept { return ewma_; }

 private:
  enum class State : std::uint8_t { kStable, kProbingUp, kProbingDown };

  [[nodiscard]] std::uint32_t step_up(std::uint32_t size) const;
  [[nodiscard]] std::uint32_t step_down(std::uint32_t size) const;

  ProbeConfig config_;
  State state_ = State::kStable;
  std::uint32_t size_;         ///< Current (possibly probing) size.
  std::uint32_t stable_size_;  ///< Last accepted size (backoff target).
  double ewma_ = 0.0;
  bool seeded_ = false;
  double best_goodput_ = 0.0;
};

/// The assembled gate: one data pool, one controller, a probe journal,
/// and a metrics collector. Scheduler-free by
/// design — every entry point takes `now` — so one class serves both the
/// unsharded runtime (a repeating timer calls advance()) and the shard
/// plane (the merge barrier calls advance() with the merged clock; the
/// plane keeps per-shard data pools sized in lockstep via the resize
/// listener and uses the gate's pool as shard 0's).
class AdmissionGate {
 public:
  explicit AdmissionGate(AdmissionConfig config);
  ~AdmissionGate();

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Data admission: true = a ticket was taken (lease-released later);
  /// false = shed at the door.
  bool admit_data(util::SimTime now);

  /// Cumulative downstream accounting the controller derives goodput
  /// from: `delivered` = useful deliveries so far, `wasted` = work shed
  /// after admission (bounded-inbox data sheds). Interval goodput is
  /// max(0, Δdelivered − Δwasted): overshoot that only feeds the
  /// shedders scores zero, which is what bends the curve down past the
  /// knee and lets the probe find it.
  using GoodputSource = std::function<void(std::uint64_t& delivered, std::uint64_t& wasted)>;
  void set_goodput_source(GoodputSource source) { goodput_source_ = std::move(source); }

  /// Fires after any probe tick that changed the data-pool size (derive
  /// credit windows, resize mirrored per-shard pools, gw outboxes).
  using ResizeListener = std::function<void(std::uint32_t data_pool_size)>;
  void set_resize_listener(ResizeListener listener) { resize_listener_ = std::move(listener); }

  /// Releases expired leases and runs every probe deadline at or before
  /// `now` (deadlines are exact multiples of the probe interval, so a
  /// late caller produces the same journal as a punctual one).
  void advance(util::SimTime now);

  /// Registers a pull collector exposing garnet.admission.tickets/
  /// holders{pool="data"}, garnet.admission.probes, garnet.admission.
  /// goodput and the admitted/rejected counters. Deregistered
  /// on destruction (the registry must outlive the gate).
  void set_metrics(obs::MetricsRegistry& registry);

  [[nodiscard]] const AdmissionStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const TicketPool& data_pool() const noexcept { return data_; }
  [[nodiscard]] std::uint32_t data_pool_size() const noexcept { return data_.size(); }
  [[nodiscard]] const AdmissionConfig& config() const noexcept { return config_; }

  /// PR-4 ledger derivation: the credit window a subscriber should be
  /// granted under the current pool size (never below one credit).
  [[nodiscard]] std::uint32_t derived_credit_window() const noexcept {
    return data_.size() > 0 ? data_.size() : 1;
  }

  /// Byte-comparable probe-decision journal (empty unless
  /// AdmissionConfig::journal_limit > 0).
  [[nodiscard]] const std::vector<ProbeRecord>& journal() const noexcept { return journal_; }
  [[nodiscard]] std::string journal_text() const;

 private:
  void tick(util::SimTime at);
  void collect(obs::SnapshotBuilder& out) const;

  AdmissionConfig config_;
  TicketPool data_;
  ThroughputProbe probe_;
  util::SimTime next_deadline_;
  GoodputSource goodput_source_;
  ResizeListener resize_listener_;
  std::uint64_t last_delivered_ = 0;
  std::uint64_t last_wasted_ = 0;
  AdmissionStats stats_;
  std::vector<ProbeRecord> journal_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::CollectorId collector_id_ = 0;
};

}  // namespace garnet::net
