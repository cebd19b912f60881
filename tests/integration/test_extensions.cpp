// Integration coverage for the extension features working through the
// full runtime: location-aware beacons feeding hints (§5), codified
// constraints governing real requests (§8), QoS shaping real traffic
// (§1), and multi-hop relays extending a sparse deployment (§8).
#include <gtest/gtest.h>

#include "garnet/runtime.hpp"

namespace garnet {
namespace {

using util::Duration;

Runtime::Config clean_config(std::uint64_t seed = 3) {
  Runtime::Config config;
  config.field.area = {{0, 0}, {600, 600}};
  config.field.seed = seed;
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  return config;
}

TEST(Extensions, GpsBeaconHintsSharpenLocation) {
  Runtime runtime(clean_config());
  runtime.deploy_receivers(4, 450);

  // A location-aware sensor beaconing its GPS fix in the payload.
  wireless::SensorNode::Config config;
  config.id = 1;
  config.capabilities.location_aware = true;
  wireless::StreamSpec beacon;
  beacon.interval_ms = 500;
  beacon.generate_at = wireless::gps_beacon_generator(/*fix_noise_m=*/3.0);
  config.streams.push_back(beacon);
  const sim::Vec2 truth{123, 456};
  runtime.deploy_sensor(std::move(config), std::make_unique<sim::StaticMobility>(truth));

  // Its consumer parses the fix and feeds Location Service hints — the
  // §5 pathway ("a consumer may be able to infer, or otherwise acquire
  // knowledge of, the location of a sensor").
  core::Consumer consumer(runtime.bus(), "consumer.tracker");
  runtime.provision(consumer, "tracker");
  consumer.set_data_handler([&](const core::DeliveryView& delivery) {
    const auto fix = wireless::decode_gps_beacon(delivery.message.payload);
    if (!fix) return;
    consumer.send_location_hint({delivery.message.stream_id.sensor, fix->position.x,
                                 fix->position.y, /*radius_m=*/10.0});
  });
  consumer.subscribe(core::StreamPattern::all_of(1));
  runtime.run_for(Duration::millis(20));

  runtime.start_sensors();
  runtime.run_for(Duration::seconds(10));

  const auto estimate = runtime.location().estimate(1);
  ASSERT_TRUE(estimate.has_value());
  // Hints are fused with inference; the result must be far tighter than
  // receiver-zone inference alone (base radius 75m) and close to truth.
  EXPECT_LE(estimate->radius_m, 10.0);
  EXPECT_LT(sim::distance(estimate->position, truth), 30.0);
  EXPECT_GT(runtime.location().stats().hints, 5u);
}

TEST(Extensions, NonLocationAwareSensorIgnoresPositionalGenerator) {
  Runtime runtime(clean_config());
  runtime.deploy_receivers(4, 450);

  wireless::SensorNode::Config config;
  config.id = 1;  // NOT location-aware
  wireless::StreamSpec spec;
  spec.interval_ms = 200;
  spec.generate_at = wireless::gps_beacon_generator();
  config.streams.push_back(spec);
  runtime.deploy_sensor(std::move(config),
                        std::make_unique<sim::StaticMobility>(sim::Vec2{100, 100}));

  core::Consumer consumer(runtime.bus(), "consumer.x");
  runtime.provision(consumer, "x");
  std::size_t beacons = 0;
  std::size_t messages = 0;
  consumer.set_data_handler([&](const core::DeliveryView& delivery) {
    ++messages;
    if (delivery.message.payload.size() == 24) ++beacons;
  });
  consumer.subscribe(core::StreamPattern::all_of(1));
  runtime.run_for(Duration::millis(20));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(3));

  EXPECT_GT(messages, 0u);
  EXPECT_EQ(beacons, 0u);  // fell back to the default 8-byte reading
}

TEST(Extensions, CodifiedConstraintGovernsConsumerRequests) {
  Runtime runtime(clean_config());
  runtime.deploy_receivers(4, 450);
  runtime.deploy_transmitters(4, 450);

  wireless::SensorNode::Config config;
  config.id = 1;
  config.capabilities.receive_capable = true;
  wireless::StreamSpec spec;
  spec.interval_ms = 1000;
  spec.constraints = {.min_interval_ms = 10, .max_interval_ms = 600000, .max_payload = 64};
  config.streams.push_back(spec);
  auto& sensor = runtime.deploy_sensor(
      std::move(config), std::make_unique<sim::StaticMobility>(sim::Vec2{300, 300}));
  sensor.start();

  // Operator policy is stricter than the hardware: winter power budget.
  ASSERT_TRUE(runtime.resource().codify(1, 0, "interval_ms >= 2s; mode in {0, 1}").ok());

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  runtime.run_for(Duration::millis(20));

  std::optional<std::uint32_t> effective;
  consumer.request_update({1, 0}, core::UpdateAction::kSetIntervalMs, 100,
                          [&](std::uint32_t, core::Admission, std::uint32_t v) { effective = v; });
  runtime.run_for(Duration::seconds(5));
  EXPECT_EQ(effective, 2000u);             // clamped by the codified floor
  EXPECT_EQ(sensor.stream(0)->interval_ms, 2000u);  // and that is what arrived

  std::optional<core::Admission> mode_admission;
  consumer.request_update({1, 0}, core::UpdateAction::kSetMode, 7,
                          [&](std::uint32_t, core::Admission a, std::uint32_t) {
                            mode_admission = a;
                          });
  runtime.run_for(Duration::seconds(2));
  EXPECT_EQ(mode_admission, core::Admission::kDenied);  // mode 7 not whitelisted
  EXPECT_EQ(sensor.stream(0)->mode, 0u);
}

TEST(Extensions, QosShapedConsumerAlongsideFirehose) {
  Runtime runtime(clean_config());
  runtime.deploy_receivers(4, 450);
  wireless::SensorField::PopulationSpec spec;
  spec.count = 2;
  spec.interval_ms = 100;
  runtime.deploy_population(spec);

  core::Consumer firehose(runtime.bus(), "consumer.firehose");
  core::Consumer dashboard(runtime.bus(), "consumer.dashboard");
  runtime.provision(firehose, "firehose");
  runtime.provision(dashboard, "dashboard");
  firehose.subscribe(core::StreamPattern::everything());
  dashboard.subscribe(core::StreamPattern::everything(),
                      core::SubscribeOptions{.min_interval_ms = 2000, .max_age_ms = 0});
  runtime.run_for(Duration::millis(20));

  runtime.start_sensors();
  runtime.run_for(Duration::seconds(20));

  EXPECT_GT(firehose.received(), 300u);      // ~2 sensors * 10Hz * 20s
  EXPECT_LE(dashboard.received(), 12u);      // ~0.5Hz cap
  EXPECT_GE(dashboard.received(), 8u);
  EXPECT_GT(runtime.dispatch().subscriptions().qos_stats().suppressed_rate, 250u);
}

TEST(Extensions, RelaysExtendSparseRuntimeDeployment) {
  // One corner receiver; static sensors deep in the coverage hole are
  // unreachable without relays placed between them and the receiver.
  const auto run_with = [](bool with_relay) {
    Runtime runtime(clean_config(9));
    runtime.field().medium().add_receiver({1, {100, 100}, 180});
    runtime.location().set_receiver_layout(runtime.field().medium().receivers());

    wireless::SensorNode::Config far_sensor;
    far_sensor.id = 1;
    wireless::StreamSpec spec;
    spec.interval_ms = 200;
    far_sensor.streams.push_back(spec);
    runtime
        .deploy_sensor(std::move(far_sensor),
                       std::make_unique<sim::StaticMobility>(sim::Vec2{400, 100}))
        .start();

    if (with_relay) {
      wireless::SensorNode::Config relay;
      relay.id = 2;
      relay.capabilities.relay_capable = true;
      relay.relay_overhear_range_m = 200;
      runtime
          .deploy_sensor(std::move(relay),
                         std::make_unique<sim::StaticMobility>(sim::Vec2{250, 100}))
          .start();
    }

    core::Consumer consumer(runtime.bus(), "consumer.app");
    runtime.provision(consumer, "app");
    consumer.subscribe(core::StreamPattern::all_of(1));
    runtime.run_for(Duration::seconds(10));
    return consumer.received();
  };

  EXPECT_EQ(run_with(false), 0u);  // out of range, nothing arrives
  EXPECT_GT(run_with(true), 20u);  // the relay bridges the hole
}

}  // namespace
}  // namespace garnet
