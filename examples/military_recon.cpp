// Military reconnaissance — the paper's second headline application
// domain (§1: "environmental monitoring and military reconnaissance").
//
// What this exercises that the other examples do not:
//
//   * end-to-end encryption (§9): ground sensors seal their payloads;
//     the middleware forwards opaque bytes it cannot read, and only the
//     intelligence consumer holding the key can open them — a compromised
//     observer consumer subscribing to the same stream gets ciphertext;
//   * trust levels: the command consumer is kTrusted and overrides the
//     conflict policy; an untrusted liaison may subscribe but its
//     actuation requests are refused outright;
//   * location tracking of a moving asset from reception evidence, used
//     to task sensors near its predicted path.
#include <cstdio>

#include "crypto/sealed.hpp"
#include "garnet/runtime.hpp"

using namespace garnet;
using util::Duration;

namespace {

constexpr core::SensorId kPatrolTag = 50;  // tag on a friendly patrol

/// Acoustic ground sensors with sealed payloads, ids 1..9 on a grid.
void deploy_ground_sensors(Runtime& runtime, const crypto::Key& key) {
  const auto positions = sim::grid_layout(runtime.field().area(), 9);
  for (core::SensorId id = 1; id <= 9; ++id) {
    wireless::SensorNode::Config config;
    config.id = id;
    config.capabilities.receive_capable = true;
    wireless::StreamSpec acoustic;
    acoustic.id = 0;
    acoustic.interval_ms = 1000;
    acoustic.constraints = {.min_interval_ms = 100, .max_interval_ms = 30000, .max_payload = 96};
    // Each sensor seals its reading under the theatre key. The nonce is
    // derived from the sensor identity and the message sequence number —
    // the sequence counter in the generator advances in lockstep with the
    // wire sequence (one sample, one message), so the consumer can rebuild
    // the nonce from the Figure-2 header alone.
    acoustic.generate = [key, id, seq = std::uint64_t{0}](util::SimTime,
                                                          util::Rng& rng) mutable {
      util::ByteWriter w(8);
      w.f64(rng.normal(30.0, 4.0));  // ambient dB
      const crypto::Nonce nonce =
          crypto::nonce_from_counter((static_cast<std::uint64_t>(id) << 32) | (seq++ & 0xFFFF));
      return crypto::seal(key, nonce, w.view());
    };
    config.streams.push_back(acoustic);
    runtime.deploy_sensor(std::move(config),
                          std::make_unique<sim::StaticMobility>(positions[id - 1]));
  }
}

}  // namespace

int main() {
  Runtime::Config config;
  config.field.area = {{0, 0}, {900, 900}};
  config.field.radio.base_loss = 0.08;  // contested spectrum
  config.resource.policy = core::ConflictPolicy::kRejectConflicts;
  Runtime runtime(config);
  runtime.deploy_receivers(9, 260);
  runtime.deploy_transmitters(9, 350);

  const crypto::Key theatre_key = crypto::key_from_seed(0x5EC7E7);
  deploy_ground_sensors(runtime, theatre_key);

  // A friendly patrol tag moving along a sweep route (plain payloads).
  wireless::SensorNode::Config tag;
  tag.id = kPatrolTag;
  wireless::StreamSpec beacon;
  beacon.id = 0;
  beacon.interval_ms = 2000;
  tag.streams.push_back(beacon);
  runtime.deploy_sensor(std::move(tag),
                        std::make_unique<sim::PathMobility>(
                            std::vector<sim::Vec2>{{100, 100}, {800, 100}, {800, 800},
                                                   {100, 800}},
                            2.0));

  // --- consumers -----------------------------------------------------------
  // Intelligence: trusted, holds the theatre key.
  core::Consumer intel(runtime.bus(), "consumer.intel");
  runtime.provision(intel, "intel", /*priority=*/220, core::TrustLevel::kTrusted);

  std::uint64_t opened = 0;
  std::uint64_t reject_bad = 0;
  intel.set_data_handler([&](const core::DeliveryView& delivery) {
    const auto sensor = delivery.message.stream_id.sensor;
    if (sensor == kPatrolTag) return;
    // The nonce is fully determined by the Figure-2 header: sensor id
    // plus sequence. Lost frames cost nothing — each message opens on
    // its own.
    const crypto::Nonce nonce = crypto::nonce_from_counter(
        (static_cast<std::uint64_t>(sensor) << 32) | delivery.message.sequence);
    const auto plain = crypto::open(theatre_key, nonce, delivery.message.payload);
    if (plain.ok()) {
      ++opened;
    } else {
      ++reject_bad;
    }
  });
  intel.subscribe(core::StreamPattern::everything());

  // A compromised observer: registered, but has no key.
  core::Consumer observer(runtime.bus(), "consumer.observer");
  runtime.provision(observer, "observer", /*priority=*/10);
  std::uint64_t observer_plaintexts = 0;
  std::uint64_t observer_ciphertexts = 0;
  observer.set_data_handler([&](const core::DeliveryView& delivery) {
    if (delivery.message.stream_id.sensor == kPatrolTag) return;
    const crypto::Nonce guess = crypto::nonce_from_counter(0);
    if (crypto::open(crypto::key_from_seed(0xBAD), guess, delivery.message.payload).ok()) {
      ++observer_plaintexts;
    } else {
      ++observer_ciphertexts;
    }
  });
  observer.subscribe(core::StreamPattern::everything());

  // An untrusted liaison: may watch, must not actuate.
  core::Consumer liaison(runtime.bus(), "consumer.liaison");
  runtime.provision(liaison, "liaison", /*priority=*/10, core::TrustLevel::kUntrusted);

  runtime.run_for(Duration::millis(50));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(180));

  std::printf("intel opened %llu sealed readings (%llu unrecoverable)\n",
              static_cast<unsigned long long>(opened),
              static_cast<unsigned long long>(reject_bad));
  std::printf("observer without the key decrypted %llu of %llu frames\n",
              static_cast<unsigned long long>(observer_plaintexts),
              static_cast<unsigned long long>(observer_plaintexts + observer_ciphertexts));

  // --- tasking around the patrol -------------------------------------------
  const auto patrol = runtime.location().estimate(kPatrolTag);
  if (patrol) {
    std::printf("patrol tag tracked near (%.0f, %.0f) +/- %.0fm\n", patrol->position.x,
                patrol->position.y, patrol->radius_m);
  }

  // The observer tries to slow sensor 5 down; intel wants it fast. Under
  // reject-conflicts the second, conflicting demand would normally lose —
  // but intel is trusted and overrides (§9).
  observer.request_update({5, 0}, core::UpdateAction::kSetIntervalMs, 30000,
                          [](std::uint32_t, core::Admission a, std::uint32_t v) {
                            std::printf("observer demand: %s (effective %ums)\n",
                                        a == core::Admission::kDenied ? "denied" : "admitted", v);
                          });
  runtime.run_for(Duration::seconds(2));
  intel.request_update({5, 0}, core::UpdateAction::kSetIntervalMs, 200,
                       [](std::uint32_t, core::Admission a, std::uint32_t v) {
                         std::printf("intel demand:    %s (effective %ums) via trusted override\n",
                                     a == core::Admission::kDenied ? "denied" : "admitted", v);
                       });
  runtime.run_for(Duration::seconds(2));

  // The untrusted liaison is refused at admission.
  liaison.request_update({5, 0}, core::UpdateAction::kDisableStream, 0,
                         [](std::uint32_t, core::Admission a, std::uint32_t) {
                           std::printf("liaison demand:  %s (untrusted consumers may not actuate)\n",
                                       a == core::Admission::kDenied ? "denied" : "ADMITTED?!");
                         });
  runtime.run_for(Duration::seconds(10));

  std::printf("resource manager: %llu approved, %llu modified, %llu denied, %llu overrides\n",
              static_cast<unsigned long long>(runtime.resource().stats().approved),
              static_cast<unsigned long long>(runtime.resource().stats().modified),
              static_cast<unsigned long long>(runtime.resource().stats().denied),
              static_cast<unsigned long long>(runtime.resource().stats().trusted_overrides));
  return 0;
}
