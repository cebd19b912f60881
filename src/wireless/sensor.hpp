// Sensor nodes.
//
// Garnet imposes "a minimum level of sensor intelligence ... where both
// simple and sophisticated sensors could coexist" (paper §5). This module
// models that spectrum with one class and a capability set:
//
//   * simple sensors  — transmit-only; they sample their internal streams
//     on a timer and never listen;
//   * sophisticated sensors — additionally receive-capable: they accept
//     stream-update requests from the actuation path, apply them within
//     their own hard constraints, and acknowledge via the kAckPresent
//     header field of their next data message.
//
// Each sensor carries up to 256 internal streams (Figure 2's 8-bit
// internal stream id) with independent sampling intervals and payload
// generators, a 16-bit wrapping sequence counter per stream, and a simple
// energy budget so transmission-cost experiments (E7) can report lifetime.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/message.hpp"
#include "core/stream_update.hpp"
#include "obs/trace.hpp"
#include "sim/mobility.hpp"
#include "sim/scheduler.hpp"
#include "util/ring_buffer.hpp"
#include "wireless/radio.hpp"
#include "wireless/tree.hpp"

namespace garnet::wireless {

/// Produces one payload for a sample at time t.
using PayloadGenerator = std::function<util::Bytes(util::SimTime, util::Rng&)>;

/// Payload generator for location-aware sensors: also receives the
/// device's own position (paper §5 keeps location out of the *header*,
/// but a location-aware application may well embed it in its opaque
/// payload — consumers then feed it back as Location Service hints).
using PositionalPayloadGenerator =
    std::function<util::Bytes(util::SimTime, util::Rng&, sim::Vec2)>;

/// What this device can do. Heterogeneity is the point (paper §6):
/// simple transmit-only devices and sophisticated ones share the network.
struct SensorCapabilities {
  bool receive_capable = false;  ///< Listens for stream-update requests.
  bool location_aware = false;   ///< Knows its own position (app-level use).
  /// Runs a tree::TreeRouter over the overhearing substrate — the
  /// paper's §8 multi-hop extension. When receivers beacon, relays
  /// self-organize into a spanning forest and forward frames parent-ward
  /// with TTL + duplicate suppression; without beacons they fall back to
  /// the historical behaviour (rebroadcast an overheard frame once,
  /// tagged kRelayed, never forwarding an already-relayed frame).
  bool relay_capable = false;
};

/// Static, device-imposed limits a stream-update request cannot override.
/// The Resource Manager keeps an approximate copy of these (paper §6) to
/// pre-filter inadmissible requests.
struct StreamConstraints {
  std::uint32_t min_interval_ms = 100;     ///< Fastest the hardware can sample.
  std::uint32_t max_interval_ms = 600000;  ///< Slowest useful rate.
  std::uint16_t max_payload = 256;
};

/// Configuration of one internal stream.
struct StreamSpec {
  core::InternalStreamId id = 0;
  bool enabled = true;
  std::uint32_t interval_ms = 1000;
  StreamConstraints constraints;
  PayloadGenerator generate;  ///< Defaults to an 8-byte reading if empty.
  /// Used instead of `generate` when set AND the sensor is
  /// location-aware; a non-location-aware device cannot know its
  /// position, so the spec falls back to `generate` (or the default).
  PositionalPayloadGenerator generate_at;
  std::uint32_t mode = 0;     ///< Opaque sensing mode (kSetMode target).
};

/// Result of applying a stream-update request at the device.
enum class UpdateOutcome : std::uint8_t {
  kApplied,          ///< Request applied as-is.
  kClamped,          ///< Applied after clamping to device constraints.
  kDuplicate,        ///< Request id already handled; re-acknowledged only.
  kRejected,         ///< Violates constraints or unknown stream.
  kNotReceiveCapable,
};

class SensorNode {
 public:
  struct Config {
    core::SensorId id = 0;
    SensorCapabilities capabilities;
    std::vector<StreamSpec> streams;
    double battery_joules = 1e9;          ///< Effectively infinite by default.
    double tx_cost_joules_per_byte = 50e-6;
    double relay_overhear_range_m = 150;  ///< Peer-overhearing radius.
    tree::TreeConfig tree;                ///< Routing knobs (relay_capable only).
  };

  SensorNode(sim::Scheduler& scheduler, RadioMedium& medium, Config config,
             std::unique_ptr<sim::MobilityModel> mobility, util::Rng rng);
  ~SensorNode();

  SensorNode(const SensorNode&) = delete;
  SensorNode& operator=(const SensorNode&) = delete;

  /// Begins sampling all enabled streams.
  void start();

  /// Stops all sampling (battery exhaustion does this automatically).
  void stop();

  [[nodiscard]] core::SensorId id() const noexcept { return config_.id; }
  [[nodiscard]] const SensorCapabilities& capabilities() const noexcept {
    return config_.capabilities;
  }
  [[nodiscard]] sim::Vec2 position() const { return mobility_->position_at(scheduler_.now()); }
  [[nodiscard]] double battery_joules() const noexcept { return battery_; }
  [[nodiscard]] bool alive() const noexcept { return alive_; }
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return messages_sent_; }
  [[nodiscard]] std::uint64_t updates_applied() const noexcept { return updates_applied_; }
  [[nodiscard]] std::uint64_t updates_rejected() const noexcept { return updates_rejected_; }
  /// Frames this node moved on behalf of others (tree forwards + proxied
  /// rebroadcasts). Zero for non-relay sensors.
  [[nodiscard]] std::uint64_t frames_relayed() const noexcept {
    return router_ ? router_->stats().forwarded + router_->stats().proxied : 0;
  }

  /// The node's tree router, or nullptr for non-relay sensors.
  [[nodiscard]] tree::TreeRouter* router() noexcept { return router_.get(); }
  [[nodiscard]] const tree::TreeRouter* router() const noexcept { return router_.get(); }

  /// Repair events (attach/reparent/orphan) are recorded here, if set.
  void set_tree_journal(tree::TreeJournal* journal) {
    if (router_) router_->set_journal(journal);
  }

  /// Current spec of one internal stream, if it exists.
  [[nodiscard]] const StreamSpec* stream(core::InternalStreamId id) const;

  /// Applies an update directly (the downlink path calls this; tests may
  /// call it to model out-of-band configuration).
  UpdateOutcome apply_update(const core::StreamUpdateRequest& request);

  /// Message traces originate here: each uplink sample opens a "radio"
  /// span keyed by its (StreamID, sequence). Relayed frames are not
  /// traced (the origin sensor already opened the trace).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  void schedule_sample(std::size_t stream_index);
  void emit_sample(std::size_t stream_index);
  void on_downlink_frame(util::BytesView frame);
  void spend(double joules);

  sim::Scheduler& scheduler_;
  RadioMedium& medium_;
  Config config_;
  std::unique_ptr<sim::MobilityModel> mobility_;
  util::Rng rng_;

  std::vector<core::SequenceNo> sequences_;
  std::vector<sim::EventId> timers_;
  std::optional<std::uint32_t> pending_ack_;  ///< Next data message carries it.
  /// Recently handled request ids: the replicator broadcasts through
  /// several transmitters and retransmits on silence, so the same request
  /// arrives many times; only the first copy may change configuration.
  util::RingBuffer<std::uint32_t> recent_requests_{64};
  double battery_;
  bool alive_ = false;
  bool registered_downlink_ = false;
  bool registered_overhear_ = false;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t updates_applied_ = 0;
  std::uint64_t updates_rejected_ = 0;
  std::unique_ptr<tree::TreeRouter> router_;  ///< Set iff relay_capable.
  obs::Tracer* tracer_ = nullptr;
};

/// Default payload generator: an 8-byte big-endian reading derived from a
/// smooth pseudo-signal plus noise; stands in for a real transducer.
[[nodiscard]] PayloadGenerator synthetic_reading_generator(double base, double amplitude,
                                                           double period_s);

/// GPS-beacon payload for location-aware sensors: [f64 x][f64 y] plus a
/// reading. `fix_noise_m` models receiver error. Parse with
/// decode_gps_beacon.
[[nodiscard]] PositionalPayloadGenerator gps_beacon_generator(double fix_noise_m = 5.0);

struct GpsBeacon {
  sim::Vec2 position;
  double reading = 0.0;
};
[[nodiscard]] std::optional<GpsBeacon> decode_gps_beacon(util::BytesView payload);

}  // namespace garnet::wireless
