#include "core/location.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace garnet::core {

LocationService::LocationService(net::MessageBus& bus, AuthService& auth)
    : bus_(bus),
      auth_(auth),
      node_(bus, kEndpointName, [this](net::Envelope e) { on_envelope(std::move(e)); }) {
  node_.expose(kQuery, [this](net::Address, util::BytesView args) -> net::RpcResult {
    util::ByteReader r(args);
    const SensorId sensor = r.u24();
    if (!r.ok()) return util::Err{net::RpcError::kRemoteFailure};

    const auto est = estimate(sensor);
    util::ByteWriter w(33);
    w.u8(est ? 1 : 0);
    if (est) {
      w.f64(est->position.x);
      w.f64(est->position.y);
      w.f64(est->radius_m);
      w.f64(est->confidence);
    }
    return std::move(w).take();
  });
}

void LocationService::set_receiver_layout(const std::vector<wireless::Receiver>& receivers) {
  receivers_.clear();
  for (const wireless::Receiver& rx : receivers) receivers_.emplace(rx.id, rx);
}

void LocationService::observe(const ReceptionEvent& event) {
  if (!receivers_.contains(event.receiver)) {
    ++stats_.unknown_receiver;
    return;
  }
  ++stats_.observations;

  SensorTrack& track = tracks_.upsert(SensorKey{event.sensor});
  track.observations.push_back({event.receiver, event.rssi_dbm, event.heard_at});

  // Trim anything outside the window.
  const util::SimTime cutoff = event.heard_at - kObservationWindow;
  while (!track.observations.empty() && track.observations.front().at < cutoff) {
    track.observations.pop_front();
  }

  if (update_sink_) {
    if (const auto est = infer(track)) update_sink_(event.sensor, *est);
  }
}

void LocationService::hint(const LocationHint& hint, util::SimTime now) {
  ++stats_.hints;
  SensorTrack& track = tracks_.upsert(SensorKey{hint.sensor});
  track.hint = HintRecord{{hint.x, hint.y}, hint.radius_m, now};
  if (update_sink_) {
    if (const auto est = estimate(hint.sensor)) update_sink_(hint.sensor, *est);
  }
}

std::optional<LocationEstimate> LocationService::estimate(SensorId sensor) {
  ++stats_.queries;
  // mutate(): the age-out pruning below changes the track, so the entry
  // must re-enter the next delta frame.
  SensorTrack* found = tracks_.mutate(SensorKey{sensor});
  if (found == nullptr) return std::nullopt;
  SensorTrack& track = *found;
  const util::SimTime now = bus_.scheduler().now();

  // Drop observations that have aged out since the last touch.
  const util::SimTime cutoff = now - kObservationWindow;
  while (!track.observations.empty() && track.observations.front().at < cutoff) {
    track.observations.pop_front();
  }

  std::optional<LocationEstimate> inferred = infer(track);

  // A fresh hint competes with inference; a stale one is ignored.
  std::optional<LocationEstimate> hinted;
  if (track.hint && now - track.hint->at <= kHintTtl) {
    const double age_frac =
        static_cast<double>((now - track.hint->at).ns) / static_cast<double>(kHintTtl.ns);
    hinted = LocationEstimate{track.hint->position, track.hint->radius_m,
                              std::max(0.0, 1.0 - age_frac), now, LocationEstimate::Source::kHint};
  }

  std::optional<LocationEstimate> best;
  if (inferred && hinted) {
    // Fuse: confidence-weighted blend of position, tightest radius wins.
    const double wi = inferred->confidence;
    const double wh = hinted->confidence;
    const double total = wi + wh;
    if (total > 0) {
      LocationEstimate fused;
      fused.position = inferred->position * (wi / total) + hinted->position * (wh / total);
      fused.radius_m = std::min(inferred->radius_m, hinted->radius_m);
      fused.confidence = std::max(wi, wh);
      fused.computed_at = now;
      fused.source = LocationEstimate::Source::kFused;
      best = fused;
    }
  } else if (inferred) {
    best = inferred;
  } else if (hinted) {
    best = hinted;
  }

  if (best) ++stats_.queries_answered;
  return best;
}

std::optional<LocationEstimate> LocationService::infer(SensorTrack& track) {
  if (track.observations.empty()) return std::nullopt;

  // RSSI-weighted centroid over the receivers that heard the sensor.
  // Weight is linear received power: w = 10^(rssi/10).
  double wsum = 0.0;
  sim::Vec2 centroid{};
  std::vector<wireless::ReceiverId> distinct;
  for (const Observation& obs : track.observations) {
    const auto rx = receivers_.find(obs.receiver);
    if (rx == receivers_.end()) continue;
    const double w = std::pow(10.0, obs.rssi_dbm / 10.0);
    centroid = centroid + rx->second.position * w;
    wsum += w;
    if (std::find(distinct.begin(), distinct.end(), obs.receiver) == distinct.end()) {
      distinct.push_back(obs.receiver);
    }
  }
  if (wsum <= 0.0 || distinct.empty()) return std::nullopt;
  centroid = centroid * (1.0 / wsum);

  // Uncertainty: weighted spread of contributing receivers, floored at
  // the base radius (one receiver alone only says "somewhere in my zone").
  double spread = 0.0;
  for (const Observation& obs : track.observations) {
    const auto rx = receivers_.find(obs.receiver);
    if (rx == receivers_.end()) continue;
    const double w = std::pow(10.0, obs.rssi_dbm / 10.0);
    spread += w * sim::distance(rx->second.position, centroid);
  }
  spread /= wsum;

  LocationEstimate est;
  est.position = centroid;
  est.radius_m = std::max(kBaseRadiusM, spread);
  est.confidence = std::min(1.0, static_cast<double>(distinct.size()) /
                                     static_cast<double>(kFullConfidenceReceivers));
  est.computed_at = track.observations.back().at;
  est.source = LocationEstimate::Source::kInferred;
  return est;
}

void LocationService::encode_track(util::ByteWriter& w, const SensorTrack& track) {
  w.u32(static_cast<std::uint32_t>(track.observations.size()));
  for (const Observation& obs : track.observations) {
    w.u32(obs.receiver);
    w.f64(obs.rssi_dbm);
    w.i64(obs.at.ns);
  }
  w.u8(track.hint ? 1 : 0);
  if (track.hint) {
    w.f64(track.hint->position.x);
    w.f64(track.hint->position.y);
    w.f64(track.hint->radius_m);
    w.i64(track.hint->at.ns);
  }
}

LocationService::SensorTrack LocationService::decode_track(SensorKey, util::ByteReader& r) {
  SensorTrack track;
  const std::uint32_t obs_count = r.u32();
  for (std::uint32_t j = 0; j < obs_count && r.ok(); ++j) {
    Observation obs{};
    obs.receiver = r.u32();
    obs.rssi_dbm = r.f64();
    obs.at = util::SimTime{r.i64()};
    track.observations.push_back(obs);
  }
  if (r.u8() != 0) {
    HintRecord hint{};
    hint.position.x = r.f64();
    hint.position.y = r.f64();
    hint.radius_m = r.f64();
    hint.at = util::SimTime{r.i64()};
    track.hint = hint;
  }
  return track;
}

util::Bytes LocationService::capture_state() const {
  util::ByteWriter w(16 + tracks_.size() * 64);
  tracks_.write_full(w, encode_track);
  return std::move(w).take();
}

util::Bytes LocationService::capture_full() {
  util::Bytes state = capture_state();
  tracks_.clear_dirty();
  return state;
}

util::Bytes LocationService::capture_delta() {
  util::ByteWriter w;
  tracks_.write_delta(w, encode_track, 64);
  tracks_.clear_dirty();
  return std::move(w).take();
}

util::Status<util::DecodeError> LocationService::apply_delta(util::BytesView delta) {
  return load(delta, /*delta=*/true);
}

util::Status<util::DecodeError> LocationService::restore_state(util::BytesView state) {
  return load(state, /*delta=*/false);
}

util::Status<util::DecodeError> LocationService::load(util::BytesView bytes, bool delta) {
  util::ByteReader r(bytes);
  auto section = delta ? Table::read_delta(r, decode_track) : Table::read_full(r, decode_track);
  if (!r.ok() || r.remaining() != 0) return util::Err{util::DecodeError::kTruncated};

  tracks_.apply(std::move(section));
  return {};
}

void LocationService::reset_state() { tracks_.clear(); }

void LocationService::on_envelope(net::Envelope envelope) {
  if (envelope.type != kLocationHint) return;
  util::ByteReader r(envelope.payload);
  const ConsumerToken token = r.u64();
  if (!r.ok() || !auth_.verify(token)) {
    ++stats_.hints_rejected;
    return;
  }
  const util::BytesView rest = util::BytesView(envelope.payload).subspan(r.consumed());
  const auto decoded = decode_location_hint(rest);
  if (!decoded.ok()) {
    ++stats_.hints_rejected;
    return;
  }
  hint(decoded.value(), bus_.scheduler().now());
}

}  // namespace garnet::core
