#include "wireless/sensor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

#include "util/log.hpp"

namespace garnet::wireless {

SensorNode::SensorNode(sim::Scheduler& scheduler, RadioMedium& medium, Config config,
                       std::unique_ptr<sim::MobilityModel> mobility, util::Rng rng)
    : scheduler_(scheduler),
      medium_(medium),
      config_(std::move(config)),
      mobility_(std::move(mobility)),
      rng_(rng),
      battery_(config_.battery_joules) {
  assert(config_.id <= core::kMaxSensorId);
  assert(mobility_);
  sequences_.assign(config_.streams.size(), 0);
  timers_.assign(config_.streams.size(), sim::EventId{});

  if (config_.capabilities.relay_capable) {
    assert(config_.id != 0 && "relay-capable sensors need a nonzero id");
    router_ = std::make_unique<tree::TreeRouter>(scheduler_, config_.tree, config_.id);
    // Every frame the router emits rides this node's radio and drains
    // this node's battery — forwarding for others is not free.
    router_->set_transmit([this](util::Bytes frame) {
      spend(static_cast<double>(frame.size()) * config_.tx_cost_joules_per_byte);
      if (!alive_) return;  // battery died paying for this frame
      medium_.uplink(position(), std::move(frame), config_.id);
    });
  }
}

SensorNode::~SensorNode() { stop(); }

void SensorNode::start() {
  if (alive_) return;
  alive_ = true;

  if (config_.capabilities.receive_capable && !registered_downlink_) {
    registered_downlink_ = true;
    medium_.add_downlink_endpoint(RadioMedium::DownlinkEndpoint{
        config_.id,
        [this] { return position(); },
        [this](util::BytesView frame) { on_downlink_frame(frame); },
    });
  }

  if (router_ && !registered_overhear_) {
    registered_overhear_ = true;
    medium_.add_overhear_endpoint(RadioMedium::OverhearEndpoint{
        config_.id,
        config_.relay_overhear_range_m,
        [this] { return position(); },
        [this](util::BytesView frame, double rssi_dbm) {
          if (alive_) router_->on_frame(frame, rssi_dbm);
        },
    });
    router_->start();
  }

  for (std::size_t i = 0; i < config_.streams.size(); ++i) {
    if (config_.streams[i].enabled) schedule_sample(i);
  }
}

void SensorNode::stop() {
  if (!alive_) return;
  alive_ = false;
  for (auto& timer : timers_) {
    scheduler_.cancel(timer);
    timer = sim::EventId{};
  }
  if (registered_downlink_) {
    medium_.remove_downlink_endpoint(config_.id);
    registered_downlink_ = false;
  }
  if (registered_overhear_) {
    medium_.remove_overhear_endpoint(config_.id);
    registered_overhear_ = false;
  }
  if (router_) router_->stop();  // crash semantics: routing state is volatile
}

const StreamSpec* SensorNode::stream(core::InternalStreamId id) const {
  const auto it = std::find_if(config_.streams.begin(), config_.streams.end(),
                               [id](const StreamSpec& s) { return s.id == id; });
  return it == config_.streams.end() ? nullptr : &*it;
}

void SensorNode::schedule_sample(std::size_t stream_index) {
  const StreamSpec& spec = config_.streams[stream_index];
  if (!alive_ || !spec.enabled) return;
  // Small phase jitter prevents the whole field sampling in lockstep.
  const auto base = util::Duration::millis(spec.interval_ms);
  const auto jitter = util::Duration::nanos(
      static_cast<std::int64_t>(rng_.uniform() * 0.05 * static_cast<double>(base.ns)));
  auto timer = [this, stream_index] { emit_sample(stream_index); };
  static_assert(sim::EventFn::fits_inline<decltype(timer)>, "one sample, no allocation");
  timers_[stream_index] = scheduler_.schedule_after(base + jitter, std::move(timer));
}

void SensorNode::emit_sample(std::size_t stream_index) {
  if (!alive_) return;
  StreamSpec& spec = config_.streams[stream_index];

  core::DataMessage msg;
  msg.stream_id = {config_.id, spec.id};
  msg.sequence = sequences_[stream_index]++;
  if (spec.generate_at && config_.capabilities.location_aware) {
    msg.payload = spec.generate_at(scheduler_.now(), rng_, position());
  } else if (spec.generate) {
    msg.payload = spec.generate(scheduler_.now(), rng_);
  } else {
    util::ByteWriter w(8);
    w.f64(rng_.normal(20.0, 1.0));
    msg.payload = std::move(w).take();
  }
  if (msg.payload.size() > spec.constraints.max_payload) {
    msg.payload.resize(spec.constraints.max_payload);
  }
  if (pending_ack_) {
    msg.header.set(core::HeaderFlag::kAckPresent);
    msg.ack_request_id = *pending_ack_;
    pending_ack_.reset();
  }

  util::Bytes frame = core::encode(msg);
  if (tracer_ != nullptr) {
    tracer_->begin_span({msg.stream_id.packed(), msg.sequence}, "radio", scheduler_.now().ns);
  }
  if (router_) {
    // The router decides the first hop (plain to a root, wrapped to a
    // relay parent, or buffered while orphaned); its transmit hook pays
    // the energy cost at actual transmission time.
    ++messages_sent_;
    router_->send_own(std::move(frame));
    if (!alive_) return;  // battery died paying for this frame
  } else {
    spend(static_cast<double>(frame.size()) * config_.tx_cost_joules_per_byte);
    if (!alive_) return;  // battery died paying for this frame
    ++messages_sent_;
    medium_.uplink(position(), std::move(frame), config_.id);
  }

  schedule_sample(stream_index);
}

void SensorNode::on_downlink_frame(util::BytesView frame) {
  if (!alive_) return;
  const auto decoded = core::decode_update(frame);
  if (!decoded.ok()) return;  // corrupt or foreign frame; drop silently
  const core::StreamUpdateRequest& request = decoded.value();
  if (request.target.sensor != config_.id) return;  // broadcast meant for another node
  apply_update(request);
}

UpdateOutcome SensorNode::apply_update(const core::StreamUpdateRequest& request) {
  const auto finish = [&](UpdateOutcome outcome) {
    if (outcome == UpdateOutcome::kApplied || outcome == UpdateOutcome::kClamped) {
      ++updates_applied_;
      // Acknowledged in the next data message (untracked id 0 excepted).
      if (request.request_id != 0) pending_ack_ = request.request_id;
    } else {
      ++updates_rejected_;
    }
    return outcome;
  };

  if (!config_.capabilities.receive_capable) return finish(UpdateOutcome::kNotReceiveCapable);

  // Request id 0 means "untracked" (out-of-band configuration); anything
  // else is deduplicated — the replicator broadcasts through several
  // transmitters and retransmits on silence, so the same request arrives
  // many times, and only the first copy may change configuration.
  if (request.request_id != 0) {
    for (std::size_t i = 0; i < recent_requests_.size(); ++i) {
      if (recent_requests_.at(i) == request.request_id) {
        // Re-acknowledge (the earlier ack may have been lost) but do not
        // re-apply.
        pending_ack_ = request.request_id;
        return UpdateOutcome::kDuplicate;
      }
    }
    recent_requests_.push(request.request_id);
  }

  const auto it = std::find_if(config_.streams.begin(), config_.streams.end(),
                               [&](const StreamSpec& s) { return s.id == request.target.stream; });
  if (it == config_.streams.end()) return finish(UpdateOutcome::kRejected);
  StreamSpec& spec = *it;
  const auto index = static_cast<std::size_t>(it - config_.streams.begin());

  switch (request.action) {
    case core::UpdateAction::kSetIntervalMs: {
      const std::uint32_t clamped = std::clamp(request.value, spec.constraints.min_interval_ms,
                                               spec.constraints.max_interval_ms);
      spec.interval_ms = clamped;
      // Re-arm the timer so the new cadence takes effect immediately.
      scheduler_.cancel(timers_[index]);
      if (alive_ && spec.enabled) schedule_sample(index);
      return finish(clamped == request.value ? UpdateOutcome::kApplied : UpdateOutcome::kClamped);
    }
    case core::UpdateAction::kEnableStream: {
      if (!spec.enabled) {
        spec.enabled = true;
        if (alive_) schedule_sample(index);
      }
      return finish(UpdateOutcome::kApplied);
    }
    case core::UpdateAction::kDisableStream: {
      spec.enabled = false;
      scheduler_.cancel(timers_[index]);
      timers_[index] = sim::EventId{};
      return finish(UpdateOutcome::kApplied);
    }
    case core::UpdateAction::kSetMode: {
      spec.mode = request.value;
      return finish(UpdateOutcome::kApplied);
    }
    case core::UpdateAction::kSetPayloadHint: {
      if (request.value > spec.constraints.max_payload) {
        return finish(UpdateOutcome::kRejected);
      }
      return finish(UpdateOutcome::kApplied);
    }
  }
  return finish(UpdateOutcome::kRejected);
}

void SensorNode::spend(double joules) {
  battery_ -= joules;
  if (battery_ <= 0.0) {
    battery_ = 0.0;
    util::log_debug("sensor", "sensor %u battery exhausted", config_.id);
    stop();
  }
}

PositionalPayloadGenerator gps_beacon_generator(double fix_noise_m) {
  return [fix_noise_m](util::SimTime, util::Rng& rng, sim::Vec2 position) {
    util::ByteWriter w(24);
    w.f64(position.x + rng.normal(0.0, fix_noise_m));
    w.f64(position.y + rng.normal(0.0, fix_noise_m));
    w.f64(rng.normal(20.0, 1.0));
    return std::move(w).take();
  };
}

std::optional<GpsBeacon> decode_gps_beacon(util::BytesView payload) {
  util::ByteReader r(payload);
  GpsBeacon beacon;
  beacon.position.x = r.f64();
  beacon.position.y = r.f64();
  beacon.reading = r.f64();
  if (!r.ok()) return std::nullopt;
  return beacon;
}

PayloadGenerator synthetic_reading_generator(double base, double amplitude, double period_s) {
  return [=](util::SimTime t, util::Rng& rng) {
    const double phase = 2.0 * std::numbers::pi * t.to_seconds() / period_s;
    const double value = base + amplitude * std::sin(phase) + rng.normal(0.0, amplitude * 0.05);
    util::ByteWriter w(8);
    w.f64(value);
    return std::move(w).take();
  };
}

}  // namespace garnet::wireless
