// The wireless medium: unreliable, lossy, duplicating — by construction.
//
// Uplink: a sensor transmission is heard independently by every receiver
// whose coverage disk contains the sensor; each hearing may be lost with a
// distance-dependent probability. Overlapping receivers therefore yield
// duplicate copies of the same frame (paper §4.2: "Such coverage improves
// data reception but causes potential duplication of data messages"), and
// a sensor that has roamed out of all coverage loses the frame entirely.
//
// Downlink: fixed transmitters broadcast control frames; mobile sensors
// within range may hear them, subject to the same loss model.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/geometry.hpp"
#include "sim/scheduler.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace garnet::wireless {

using ReceiverId = std::uint32_t;
using TransmitterId = std::uint32_t;

/// One copy of an uplink frame as heard by one receiver. This is what the
/// fixed network ingests; the Location Service additionally mines it for
/// position inference (receiver identity + signal strength).
struct ReceptionReport {
  ReceiverId receiver;
  double rssi_dbm = 0.0;
  util::SimTime received_at;
  util::Bytes frame;
};

/// Fixed receive antenna with a circular coverage zone.
struct Receiver {
  ReceiverId id = 0;
  sim::Vec2 position;
  double range_m = 100.0;
};

/// Fixed transmit antenna for the return (actuation) path.
struct Transmitter {
  TransmitterId id = 0;
  sim::Vec2 position;
  double range_m = 150.0;
};

/// Counters for the radio experiments (E2, E4, E6, E7).
struct RadioStats {
  std::uint64_t uplink_frames = 0;        ///< Sensor transmissions attempted.
  std::uint64_t uplink_deliveries = 0;    ///< Receiver copies delivered (>= frames heard).
  std::uint64_t uplink_duplicates = 0;    ///< Deliveries beyond the first per frame.
  std::uint64_t uplink_unheard = 0;       ///< Frames no receiver delivered.
  std::uint64_t uplink_bytes_sent = 0;    ///< Bytes leaving sensor radios.
  std::uint64_t downlink_broadcasts = 0;  ///< Transmitter activations.
  std::uint64_t downlink_deliveries = 0;  ///< Copies delivered to sensors.
  std::uint64_t downlink_bytes_sent = 0;
  std::uint64_t overheard = 0;            ///< Uplink copies overheard by peers.
};

class RadioMedium {
 public:
  /// Fixed propagation/processing latency per hop.
  static constexpr util::Duration kHopLatency = util::Duration::micros(500);
  /// Free-space-style RSSI model: rssi = tx_power - 10 n log10(d) plus
  /// Gaussian noise of this standard deviation.
  static constexpr double kTxPowerDbm = 0.0;
  static constexpr double kPathLossExponent = 2.4;
  static constexpr double kRssiNoiseStddev = 1.5;

  struct Config {
    /// Probability a frame copy is lost even in perfect range.
    double base_loss = 0.02;
    /// Additional loss grows with (distance/range)^2 up to this at the edge.
    double edge_loss = 0.35;
    /// Uniform extra jitter bound added on top of kHopLatency.
    util::Duration max_jitter = util::Duration::millis(4);
  };

  RadioMedium(sim::Scheduler& scheduler, Config config, util::Rng rng);

  // --- topology -----------------------------------------------------------

  /// Adds a receive antenna. The sink receives every surviving frame copy.
  void add_receiver(Receiver receiver);

  /// All frame copies surviving the uplink are delivered here.
  void set_uplink_sink(std::function<void(const ReceptionReport&)> sink);

  /// Adds a fixed transmitter for the actuation return path.
  void add_transmitter(Transmitter transmitter);

  /// Registers a mobile downlink listener (a receive-capable sensor).
  /// `position` is sampled at delivery-decision time so mobility matters.
  struct DownlinkEndpoint {
    std::uint32_t key;
    std::function<sim::Vec2()> position;
    std::function<void(util::BytesView)> deliver;
  };
  void add_downlink_endpoint(DownlinkEndpoint endpoint);
  void remove_downlink_endpoint(std::uint32_t key);

  /// Registers a node that overhears *uplink* transmissions of nearby
  /// sensors (the substrate for multi-hop relaying, paper §8). The
  /// overhearing node never receives its own transmissions. `deliver`
  /// gets the frame plus the RSSI at which it was heard — tree routing
  /// ranks candidate parents by smoothed RSSI.
  struct OverhearEndpoint {
    std::uint32_t key;
    double range_m = 100.0;
    std::function<sim::Vec2()> position;
    std::function<void(util::BytesView, double rssi_dbm)> deliver;
  };
  void add_overhear_endpoint(OverhearEndpoint endpoint);
  void remove_overhear_endpoint(std::uint32_t key);

  // --- traffic ------------------------------------------------------------

  /// A sensor at `from` transmits one uplink frame. `sender_key`
  /// identifies the transmitting node so it does not overhear itself
  /// (0 = anonymous, never matches an overhear endpoint).
  void uplink(sim::Vec2 from, util::Bytes frame, std::uint32_t sender_key = 0);

  /// Broadcasts `frame` from the given transmitter. Returns the number of
  /// endpoint deliveries scheduled (before loss is decided per copy).
  std::size_t downlink(TransmitterId tx, util::Bytes frame);

  // --- introspection ------------------------------------------------------

  /// Registers native telemetry in `registry`: uplink hop delay and frame
  /// size distributions, plus a pull collector exporting every RadioStats
  /// counter as `garnet.radio.*`. There is no stats() accessor — consumers
  /// read the medium through a metrics snapshot like every other service.
  void set_metrics(obs::MetricsRegistry& registry);

  [[nodiscard]] const std::vector<Receiver>& receivers() const noexcept { return receivers_; }
  [[nodiscard]] const std::vector<Transmitter>& transmitters() const noexcept { return transmitters_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  /// The loss/RSSI/jitter generator; same-seed runs must leave it in the
  /// same state.
  [[nodiscard]] const util::Rng& rng() const noexcept { return rng_; }

  ~RadioMedium();
  RadioMedium(const RadioMedium&) = delete;
  RadioMedium& operator=(const RadioMedium&) = delete;

 private:
  /// Endpoints in registration order behind an O(1) key index. Removal
  /// leaves a tombstone that iteration skips, and the table compacts once
  /// tombstones are the majority, so teardown is linear while iteration —
  /// and with it the RNG draw order — stays registration order. A key
  /// registered twice resolves to its first registration; removing it
  /// removes every registration.
  template <typename Endpoint>
  class EndpointTable {
   public:
    void add(Endpoint endpoint);
    void remove(std::uint32_t key);

    /// Visits the live endpoints in registration order.
    template <typename Fn>
    void for_each(Fn&& fn) {
      for (Slot& slot : slots_) {
        if (slot.live) fn(slot.endpoint);
      }
    }

    /// Calls `fn` on the endpoint registered under `key`, if any. Slots do
    /// not move while `fn` runs, even if it removes endpoints.
    template <typename Fn>
    void with(std::uint32_t key, Fn&& fn) {
      const auto it = first_.find(key);
      if (it == first_.end()) return;
      ++calling_;
      fn(slots_[it->second].endpoint);
      --calling_;
    }

   private:
    struct Slot {
      Endpoint endpoint;
      bool live = true;
    };
    void compact();

    std::vector<Slot> slots_;
    std::unordered_map<std::uint32_t, std::size_t> first_;  ///< key -> first live slot
    std::size_t dead_ = 0;
    bool duplicate_keys_ = false;
    int calling_ = 0;
  };

  /// Uniform grid over the receivers with cells at least as wide as the
  /// largest range, so a receiver in range of a sender lies in the
  /// sender's cell or one of its eight neighbours. Each cell stores that
  /// 3x3 neighbourhood's receivers in insertion order (CSR layout).
  struct ReceiverGrid {
    sim::Vec2 origin;
    double cell = 0.0;  ///< 0: no grid, every receiver is a candidate.
    std::size_t columns = 0;
    std::size_t rows = 0;
    std::vector<std::uint32_t> offsets;     ///< Cell i: [offsets[i], offsets[i + 1]).
    std::vector<std::uint32_t> candidates;
    std::vector<std::uint32_t> everyone;  ///< 0..n-1, for senders the grid cannot place.
    bool stale = true;
  };
  void rebuild_grid();
  /// Receiver indices that may be in range of `from`, ascending.
  [[nodiscard]] std::span<const std::uint32_t> candidates_near(sim::Vec2 from);

  [[nodiscard]] bool copy_survives(double dist, double range);
  [[nodiscard]] double rssi_for(double dist);
  [[nodiscard]] util::Duration delivery_delay();

  sim::Scheduler& scheduler_;
  Config config_;
  util::Rng rng_;
  std::vector<Receiver> receivers_;
  ReceiverGrid grid_;
  std::vector<Transmitter> transmitters_;
  EndpointTable<DownlinkEndpoint> endpoints_;
  EndpointTable<OverhearEndpoint> overhearers_;
  std::function<void(const ReceptionReport&)> uplink_sink_;
  RadioStats stats_;
  obs::Histogram* hop_delay_histogram_ = nullptr;
  obs::Histogram* frame_size_histogram_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::CollectorId collector_id_ = 0;
};

}  // namespace garnet::wireless
