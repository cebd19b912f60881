// Failure injection: the middleware must degrade gracefully, not crash
// or corrupt state, when the field misbehaves — heavy loss, dying
// sensors, roaming out of coverage, consumers vanishing mid-stream, and
// corrupted frames on the air.
#include <gtest/gtest.h>

#include <set>

#include "garnet/runtime.hpp"

namespace garnet {
namespace {

using util::Duration;

struct FailureFixture : ::testing::Test {
  static Runtime::Config config_with_loss(double base_loss, std::uint64_t seed = 5) {
    Runtime::Config config;
    config.field.area = {{0, 0}, {500, 500}};
    config.field.seed = seed;
    config.field.radio.base_loss = base_loss;
    config.field.radio.edge_loss = 0.3;
    return config;
  }
};

TEST_F(FailureFixture, HeavyLossNeverDuplicatesOrCrashes) {
  Runtime runtime(config_with_loss(0.6));
  runtime.deploy_receivers(9, 220);
  wireless::SensorField::PopulationSpec spec;
  spec.count = 6;
  spec.interval_ms = 100;
  runtime.deploy_population(spec);

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  std::set<std::pair<std::uint32_t, core::SequenceNo>> seen;
  std::uint64_t duplicates_at_consumer = 0;
  consumer.set_data_handler([&](const core::DeliveryView& d) {
    if (!seen.insert({d.message.stream_id.packed(), d.message.sequence}).second) {
      ++duplicates_at_consumer;
    }
  });
  consumer.subscribe(core::StreamPattern::everything());
  runtime.run_for(Duration::millis(20));

  runtime.start_sensors();
  runtime.run_for(Duration::seconds(30));

  EXPECT_EQ(duplicates_at_consumer, 0u);
  EXPECT_GT(seen.size(), 100u);  // something still gets through
  // Loss means gaps: fewer unique messages than transmissions.
  EXPECT_LT(seen.size(),
            runtime.telemetry().registry.snapshot().counter("garnet.radio.uplink_frames"));
}

TEST_F(FailureFixture, SensorDeathMidRunIsQuietlyAbsorbed) {
  Runtime runtime(config_with_loss(0.0));
  runtime.deploy_receivers(4, 400);

  wireless::SensorNode::Config dying;
  dying.id = 1;
  dying.capabilities.receive_capable = true;
  dying.battery_joules = 0.05;  // dies after ~dozens of frames
  dying.tx_cost_joules_per_byte = 50e-6;
  wireless::StreamSpec spec;
  spec.interval_ms = 50;
  dying.streams.push_back(spec);
  auto& sensor = runtime.deploy_sensor(
      std::move(dying), std::make_unique<sim::StaticMobility>(sim::Vec2{250, 250}));

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::all_of(1));
  runtime.run_for(Duration::millis(20));

  sensor.start();
  runtime.run_for(Duration::seconds(60));

  EXPECT_FALSE(sensor.alive());
  const std::uint64_t received_at_death = consumer.received();
  EXPECT_GT(received_at_death, 0u);
  runtime.run_for(Duration::seconds(10));
  EXPECT_EQ(consumer.received(), received_at_death);

  // Actuating a dead sensor expires cleanly after retries.
  consumer.request_update({1, 0}, core::UpdateAction::kSetMode, 1, {});
  runtime.run_for(Duration::seconds(30));
  EXPECT_EQ(runtime.actuation().stats().expired, 1u);
  EXPECT_EQ(runtime.actuation().pending_count(), 0u);
}

TEST_F(FailureFixture, RoamingOutOfCoverageLosesDataNotState) {
  // Paper §4.2: "Sensors are expected to occasionally roam outside the
  // reception zone, which may cause data messages to be lost."
  Runtime runtime(config_with_loss(0.0));
  // One receiver covering only the field centre.
  runtime.field().medium().add_receiver({1, {250, 250}, 120});
  runtime.location().set_receiver_layout(runtime.field().medium().receivers());

  // A patrol path that is in range only part of the time.
  wireless::SensorNode::Config config;
  config.id = 1;
  wireless::StreamSpec spec;
  spec.interval_ms = 100;
  config.streams.push_back(spec);
  auto& sensor = runtime.deploy_sensor(
      std::move(config),
      std::make_unique<sim::PathMobility>(
          std::vector<sim::Vec2>{{250, 250}, {250, 900}}, 20.0));

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::all_of(1));
  runtime.run_for(Duration::millis(20));

  sensor.start();
  runtime.run_for(Duration::seconds(120));

  const auto radio = runtime.telemetry().registry.snapshot();
  EXPECT_GT(radio.counter("garnet.radio.uplink_unheard"), 0u);  // out-of-range losses happened
  EXPECT_GT(consumer.received(), 0u);           // in-range data flowed
  EXPECT_LT(consumer.received(), sensor.messages_sent());
}

TEST_F(FailureFixture, ConsumerVanishingMidStreamIsDropSafe) {
  Runtime runtime(config_with_loss(0.0));
  runtime.deploy_receivers(4, 400);
  wireless::SensorField::PopulationSpec spec;
  spec.count = 2;
  spec.interval_ms = 100;
  runtime.deploy_population(spec);

  auto consumer = std::make_unique<core::Consumer>(runtime.bus(), "consumer.fleeting");
  runtime.provision(*consumer, "fleeting");
  consumer->subscribe(core::StreamPattern::everything());
  runtime.run_for(Duration::millis(20));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(2));
  EXPECT_GT(consumer->received(), 0u);

  // The consumer process dies without unsubscribing. Deliveries to its
  // address are dropped by the bus; the pipeline keeps running.
  const net::Address gone = consumer->address();
  consumer.reset();
  runtime.run_for(Duration::seconds(5));
  EXPECT_GT(runtime.telemetry().registry.snapshot().counter("garnet.bus.dropped_no_endpoint"),
            0u);

  // Housekeeping: the operator can purge the dead subscriptions.
  EXPECT_GT(runtime.dispatch().drop_consumer(gone), 0u);
  const auto delivered_before = runtime.dispatch().stats().copies_delivered;
  runtime.run_for(Duration::seconds(2));
  EXPECT_EQ(runtime.dispatch().stats().copies_delivered, delivered_before);
}

TEST_F(FailureFixture, CorruptedFramesRejectedByChecksum) {
  Runtime runtime(config_with_loss(0.0));
  runtime.deploy_receivers(1, 1000);

  // Inject corrupted frames straight into the receiver feed.
  core::DataMessage msg;
  msg.stream_id = {1, 0};
  msg.sequence = 0;
  msg.payload = util::to_bytes("valid payload");
  util::Bytes wire = core::encode(msg);
  wire[wire.size() / 2] ^= std::byte{0xFF};

  runtime.filtering().ingest(wireless::ReceptionReport{1, -40.0, {}, wire});
  runtime.filtering().ingest(wireless::ReceptionReport{1, -40.0, {}, util::to_bytes("?")});

  EXPECT_EQ(runtime.filtering().stats().malformed, 2u);
  EXPECT_EQ(runtime.filtering().stats().messages_out, 0u);
  EXPECT_EQ(runtime.location().stats().observations, 0u);  // no poisoned evidence
}

TEST_F(FailureFixture, ZeroReceiversMeansOrderlySilence) {
  Runtime runtime(config_with_loss(0.0));  // no receivers deployed at all
  wireless::SensorField::PopulationSpec spec;
  spec.count = 3;
  runtime.deploy_population(spec);
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(5));

  EXPECT_GT(runtime.telemetry().registry.snapshot().counter("garnet.radio.uplink_unheard"), 0u);
  EXPECT_EQ(runtime.filtering().stats().copies_in, 0u);
  EXPECT_EQ(runtime.dispatch().stats().messages_in, 0u);
}

TEST_F(FailureFixture, ActuationWithoutTransmittersExpires) {
  Runtime runtime(config_with_loss(0.0));
  runtime.deploy_receivers(4, 400);  // uplink fine, downlink impossible
  wireless::SensorField::PopulationSpec spec;
  spec.count = 1;
  runtime.deploy_population(spec);
  runtime.start_sensors();

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  std::optional<core::Admission> admission;
  consumer.request_update({1, 0}, core::UpdateAction::kSetMode, 1,
                          [&](std::uint32_t, core::Admission a, std::uint32_t) { admission = a; });
  runtime.run_for(Duration::seconds(30));

  // Admission succeeded (the fixed side is healthy)...
  EXPECT_EQ(admission, core::Admission::kApproved);
  // ...but no transmitter could carry it; the request expired cleanly.
  EXPECT_EQ(runtime.actuation().stats().expired, 1u);
}

}  // namespace
}  // namespace garnet
