// Multi-hop relaying (paper §8): relay-capable sensors overhear
// neighbours and re-transmit frames tagged kRelayed; the filter treats
// relayed copies as duplicates of the original and keeps them out of
// location inference.
#include <gtest/gtest.h>

#include "core/filtering.hpp"
#include "wireless/sensor.hpp"

namespace garnet::wireless {
namespace {

using util::Duration;
using util::SimTime;

RadioMedium::Config perfect_radio() {
  RadioMedium::Config config;
  config.base_loss = 0.0;
  config.edge_loss = 0.0;
  config.max_jitter = Duration::nanos(0);
  return config;
}

struct RelayFixture : ::testing::Test {
  sim::Scheduler scheduler;
  RadioMedium medium{scheduler, perfect_radio(), util::Rng(1)};
  std::vector<core::DataMessage> heard;

  void add_receiver_at(sim::Vec2 pos, double range) {
    medium.add_receiver({static_cast<ReceiverId>(medium.receivers().size() + 1), pos, range});
  }

  void attach_sink() {
    medium.set_uplink_sink([this](const ReceptionReport& r) {
      const auto decoded = core::decode_view(r.frame);
      ASSERT_TRUE(decoded.ok());
      heard.push_back(decoded.value().to_owned());
    });
  }

  std::unique_ptr<SensorNode> make_node(core::SensorId id, sim::Vec2 pos, bool relay,
                                        bool sampling = true) {
    SensorNode::Config config;
    config.id = id;
    config.capabilities.relay_capable = relay;
    config.relay_overhear_range_m = 200;
    if (sampling) {
      StreamSpec spec;
      spec.interval_ms = 100;
      config.streams.push_back(spec);
    }
    return std::make_unique<SensorNode>(scheduler, medium, std::move(config),
                                        std::make_unique<sim::StaticMobility>(pos),
                                        util::Rng(id));
  }
};

TEST_F(RelayFixture, RelayExtendsCoverage) {
  // Receiver covers only the relay's position (150m away, range 160m);
  // the source is out of its range (300m) but within the relay's
  // overhear range.
  add_receiver_at({400, 0}, 160);
  attach_sink();

  auto source = make_node(1, {100, 0}, /*relay=*/false);
  auto relay = make_node(2, {250, 0}, /*relay=*/true, /*sampling=*/false);

  source->start();
  relay->start();
  scheduler.run_until(SimTime{} + Duration::seconds(2));

  // Direct frames from the source never reach the receiver (300m away,
  // range 100m); everything heard must be a relayed copy.
  ASSERT_FALSE(heard.empty());
  for (const core::DataMessage& msg : heard) {
    EXPECT_EQ(msg.stream_id.sensor, 1u);
    EXPECT_TRUE(msg.header.has(core::HeaderFlag::kRelayed));
  }
  EXPECT_GT(relay->frames_relayed(), 0u);
}

TEST_F(RelayFixture, RelayedFramesNotReRelayed) {
  // Chain: source -> relayA -> relayB. B must not forward A's relays.
  add_receiver_at({1000, 0}, 50);  // out of everyone's reach
  attach_sink();

  auto source = make_node(1, {0, 0}, false);
  auto relay_a = make_node(2, {150, 0}, true, false);
  auto relay_b = make_node(3, {300, 0}, true, false);

  source->start();
  relay_a->start();
  relay_b->start();
  scheduler.run_until(SimTime{} + Duration::seconds(2));

  EXPECT_GT(relay_a->frames_relayed(), 0u);
  // B only ever hears A's already-relayed frames (source is 300m away,
  // overhear range 200m): it must forward none of them.
  EXPECT_EQ(relay_b->frames_relayed(), 0u);
}

TEST_F(RelayFixture, RelayDoesNotForwardOwnOrDuplicateFrames) {
  add_receiver_at({0, 0}, 1000);
  attach_sink();

  auto relay = make_node(2, {100, 0}, true);  // relay that also samples
  relay->start();
  scheduler.run_until(SimTime{} + Duration::seconds(2));

  // It heard only its own transmissions; nothing to relay.
  EXPECT_EQ(relay->frames_relayed(), 0u);
  EXPECT_GT(relay->messages_sent(), 0u);
}

TEST_F(RelayFixture, TwoRelaysForwardOnceEach) {
  add_receiver_at({400, 0}, 120);
  attach_sink();

  auto source = make_node(1, {100, 0}, false);
  auto relay_a = make_node(2, {250, 0}, true, false);
  auto relay_b = make_node(3, {280, 0}, true, false);
  source->start();
  relay_a->start();
  relay_b->start();
  scheduler.run_until(SimTime{} + Duration::millis(500));

  // Each relay forwards each source frame at most once (fingerprint
  // dedup); the receiver may hear up to two relayed copies per frame.
  const auto frames = source->messages_sent();
  EXPECT_LE(relay_a->frames_relayed(), frames);
  EXPECT_LE(relay_b->frames_relayed(), frames);
}

TEST_F(RelayFixture, FilterDedupsDirectAndRelayedCopies) {
  // Receiver hears BOTH the source directly and the relayed copy; the
  // consumer must still see each message once.
  add_receiver_at({200, 0}, 300);

  sim::Scheduler& sched = scheduler;
  core::FilteringService filter(sched, {});
  std::size_t out = 0;
  filter.set_message_sink([&](const core::DataMessage&, SimTime) { ++out; });
  medium.set_uplink_sink([&](const ReceptionReport& r) { filter.ingest(r); });

  auto source = make_node(1, {100, 0}, false);
  auto relay = make_node(2, {250, 0}, true, false);
  source->start();
  relay->start();
  scheduler.run_until(SimTime{} + Duration::seconds(2));

  EXPECT_GT(relay->frames_relayed(), 0u);
  EXPECT_EQ(out, source->messages_sent());
  EXPECT_GT(filter.stats().duplicates_dropped, 0u);
  EXPECT_GT(filter.stats().relayed_copies, 0u);
}

TEST_F(RelayFixture, RelayedCopiesExcludedFromLocationEvidence) {
  add_receiver_at({400, 0}, 160);  // hears only the relay (150m away)

  core::FilteringService filter(scheduler, {});
  std::size_t reception_events = 0;
  filter.set_reception_sink([&](const core::ReceptionEvent&) { ++reception_events; });
  medium.set_uplink_sink([&](const ReceptionReport& r) { filter.ingest(r); });

  auto source = make_node(1, {100, 0}, false);
  auto relay = make_node(2, {250, 0}, true, false);
  source->start();
  relay->start();
  scheduler.run_until(SimTime{} + Duration::seconds(2));

  // All copies reaching the fixed network were relayed: zero location
  // evidence may be derived from them (the receiver heard the relay at
  // 250m, not the source at 100m).
  EXPECT_GT(filter.stats().relayed_copies, 0u);
  EXPECT_EQ(reception_events, 0u);
}

TEST_F(RelayFixture, RelayingSpendsRelayBattery) {
  add_receiver_at({400, 0}, 120);
  attach_sink();

  auto source = make_node(1, {100, 0}, false);
  SensorNode::Config relay_config;
  relay_config.id = 2;
  relay_config.capabilities.relay_capable = true;
  relay_config.relay_overhear_range_m = 200;
  relay_config.battery_joules = 1.0;
  relay_config.tx_cost_joules_per_byte = 1e-4;
  auto relay = std::make_unique<SensorNode>(scheduler, medium, std::move(relay_config),
                                            std::make_unique<sim::StaticMobility>(sim::Vec2{250, 0}),
                                            util::Rng(2));
  source->start();
  relay->start();
  scheduler.run_until(SimTime{} + Duration::seconds(5));

  EXPECT_LT(relay->battery_joules(), 1.0);  // relaying is not free
  EXPECT_GT(relay->frames_relayed(), 0u);
}

}  // namespace
}  // namespace garnet::wireless
