// Location Service (paper §4.2, §5).
//
// Garnet refuses to put a location field in the message header — that
// "would impose a transmission burden on all sensors, especially those
// without location awareness" (§5). Location is instead *inferred* on the
// fixed side: every receiver that hears a sensor implies the sensor was
// inside that receiver's zone, and signal strength weights the evidence.
// Consumers that know better (e.g. they parse GPS out of an application
// payload) may supply hints, which the service fuses with inference.
//
// "This data is mainly used to target location areas when transmitting
// control messages to the sensor field" — the Message Replicator queries
// estimates to pick transmitters (experiment E4). Location data is also
// re-exportable as a data stream in its own right (§2), since "location
// information may be regarded as sensitive and should be protected" —
// hence a dedicated stream consumers must explicitly subscribe to, rather
// than a field stamped on every message.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>

#include "core/auth.hpp"
#include "core/filtering.hpp"
#include "core/stream_table.hpp"
#include "core/wire_types.hpp"
#include "net/rpc.hpp"
#include "sim/geometry.hpp"
#include "wireless/radio.hpp"

namespace garnet::core {

struct LocationEstimate {
  sim::Vec2 position;
  double radius_m = 0.0;    ///< Uncertainty radius around `position`.
  double confidence = 0.0;  ///< 0..1; decays with evidence age.
  util::SimTime computed_at;
  enum class Source : std::uint8_t { kInferred, kHint, kFused } source = Source::kInferred;
};

struct LocationStats {
  std::uint64_t observations = 0;
  std::uint64_t unknown_receiver = 0;  ///< Observations naming no deployed receiver.
  std::uint64_t hints = 0;
  std::uint64_t hints_rejected = 0;  ///< Unauthenticated hint envelopes.
  std::uint64_t queries = 0;
  std::uint64_t queries_answered = 0;
};

class LocationService {
 public:
  enum Method : net::MethodId {
    kQuery = 1,  ///< [u24 sensor] -> [u8 ok][f64 x][f64 y][f64 radius][f64 confidence]
  };

  static constexpr const char* kEndpointName = "garnet.location";

  /// Observations older than this drop out of a sensor's track.
  static constexpr util::Duration kObservationWindow = util::Duration::seconds(15);
  /// A hint's weight decays linearly to zero over this span.
  static constexpr util::Duration kHintTtl = util::Duration::seconds(60);
  /// Evidence from fewer distinct receivers than this caps confidence.
  static constexpr std::size_t kFullConfidenceReceivers = 3;
  /// Floor of the uncertainty radius (one receiver zone's worth).
  static constexpr double kBaseRadiusM = 75.0;

  LocationService(net::MessageBus& bus, AuthService& auth);

  /// Tells the service where the receivers are (deployment knowledge).
  void set_receiver_layout(const std::vector<wireless::Receiver>& receivers);

  /// Feed from the Filtering Service: one event per heard copy.
  void observe(const ReceptionEvent& event);

  /// Authenticated application hint (also arrives via kLocationHint
  /// envelopes whose payload is [u64 token][LocationHint]).
  void hint(const LocationHint& hint, util::SimTime now);

  /// Best current estimate; nullopt when nothing fresh is known.
  [[nodiscard]] std::optional<LocationEstimate> estimate(SensorId sensor);

  /// Fires on every estimate-relevant update, letting the runtime
  /// republish location as a data stream of its own.
  using UpdateSink = std::function<void(SensorId, const LocationEstimate&)>;
  void set_update_sink(UpdateSink sink) { update_sink_ = std::move(sink); }

  /// Crash-recovery snapshot: every sensor track (observations + hint),
  /// sensors sorted ascending. The receiver layout is deployment
  /// configuration, not crash state, so it is excluded.
  [[nodiscard]] util::Bytes capture_state() const;

  /// capture_state() plus a rebase of the incremental-capture baseline.
  [[nodiscard]] util::Bytes capture_full();

  /// Incremental snapshot: only tracks touched since the last capture.
  [[nodiscard]] util::Bytes capture_delta();

  /// Applies one capture_delta() body on top of the current tracks.
  /// Parses fully before committing — never partially applies.
  [[nodiscard]] util::Status<util::DecodeError> apply_delta(util::BytesView delta);

  /// Rebuilds tracks from capture_state() bytes; parses fully before
  /// committing, current state survives a failed restore.
  [[nodiscard]] util::Status<util::DecodeError> restore_state(util::BytesView state);

  /// Crash wipe: forgets every track. The receiver layout survives, so
  /// observations the recovery door held run against it on recovery.
  void reset_state();

  [[nodiscard]] const LocationStats& stats() const noexcept { return stats_; }
  [[nodiscard]] net::Address address() const noexcept { return node_.address(); }

  /// Index + arena bytes of the track table (bench_scale bytes/stream).
  [[nodiscard]] std::size_t memory_bytes() const noexcept { return tracks_.memory_bytes(); }

  /// Lookup cost of the track table's index (bench_scale probe gate).
  [[nodiscard]] ProbeStats probe_stats() const { return tracks_.probe_stats(); }

 private:
  struct Observation {
    wireless::ReceiverId receiver;
    double rssi_dbm;
    util::SimTime at;
  };
  struct HintRecord {
    sim::Vec2 position;
    double radius_m;
    util::SimTime at;
  };
  struct SensorTrack {
    std::deque<Observation> observations;
    std::optional<HintRecord> hint;
  };

  void on_envelope(net::Envelope envelope);
  [[nodiscard]] std::optional<LocationEstimate> infer(SensorTrack& track);

  using Table = StreamTable<SensorTrack, SensorKey>;

  static void encode_track(util::ByteWriter& w, const SensorTrack& track);
  [[nodiscard]] static SensorTrack decode_track(SensorKey key, util::ByteReader& r);
  /// restore_state()/apply_delta(): parse a full or delta body, then commit.
  [[nodiscard]] util::Status<util::DecodeError> load(util::BytesView bytes, bool delta);

  net::MessageBus& bus_;
  AuthService& auth_;
  net::RpcNode node_;
  std::unordered_map<wireless::ReceiverId, wireless::Receiver> receivers_;
  Table tracks_;
  UpdateSink update_sink_;
  LocationStats stats_;
};

}  // namespace garnet::core
