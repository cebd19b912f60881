// Whole-pipeline integration: mobile sensors over a lossy, duplicating
// radio, through Filtering and Dispatching, to mutually-unaware
// consumers — with the Orphanage catching unclaimed streams and the
// Location Service building estimates from reception evidence alone.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "garnet/runtime.hpp"

namespace garnet {
namespace {

using util::Duration;

Runtime::Config realistic_config(std::uint64_t seed = 42) {
  Runtime::Config config;
  config.field.area = {{0, 0}, {600, 600}};
  config.field.seed = seed;
  config.field.radio.base_loss = 0.05;
  config.field.radio.edge_loss = 0.3;
  return config;
}

struct EndToEndFixture : ::testing::Test {
  Runtime runtime{realistic_config()};

  EndToEndFixture() {
    runtime.deploy_receivers(9, 250);  // overlapping grid: duplicates guaranteed
    runtime.deploy_transmitters(4, 400);
    wireless::SensorField::PopulationSpec spec;
    spec.first_id = 1;
    spec.count = 8;
    spec.interval_ms = 250;
    runtime.deploy_population(spec);
  }
};

TEST_F(EndToEndFixture, DataFlowsRadioToConsumer) {
  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  std::vector<core::DeliveryView> got;
  consumer.set_data_handler([&](const core::DeliveryView& d) { got.push_back(d); });
  consumer.subscribe(core::StreamPattern::everything());
  runtime.run_for(Duration::millis(20));

  runtime.start_sensors();
  runtime.run_for(Duration::seconds(30));

  // 8 sensors at 4 Hz over 30s: ~960 samples, minus loss and roaming.
  EXPECT_GT(got.size(), 300u);

  // The radio duplicated heavily; the consumer must never see the same
  // message twice.
  std::set<std::pair<std::uint32_t, core::SequenceNo>> seen;
  for (const core::DeliveryView& d : got) {
    EXPECT_TRUE(seen.insert({d.message.stream_id.packed(), d.message.sequence}).second);
  }
  EXPECT_GT(runtime.telemetry().registry.snapshot().counter("garnet.radio.uplink_duplicates"), 0u);
  EXPECT_GT(runtime.filtering().stats().duplicates_dropped, 0u);
}

TEST_F(EndToEndFixture, SelectiveSubscriptionsAreIsolated) {
  core::Consumer a(runtime.bus(), "consumer.a");
  core::Consumer b(runtime.bus(), "consumer.b");
  runtime.provision(a, "a");
  runtime.provision(b, "b");

  std::set<core::SensorId> a_sensors;
  std::set<core::SensorId> b_sensors;
  a.set_data_handler(
      [&](const core::DeliveryView& d) { a_sensors.insert(d.message.stream_id.sensor); });
  b.set_data_handler(
      [&](const core::DeliveryView& d) { b_sensors.insert(d.message.stream_id.sensor); });
  a.subscribe(core::StreamPattern::all_of(1));
  b.subscribe(core::StreamPattern::all_of(2));
  runtime.run_for(Duration::millis(20));

  runtime.start_sensors();
  runtime.run_for(Duration::seconds(20));

  EXPECT_EQ(a_sensors, (std::set<core::SensorId>{1}));
  EXPECT_EQ(b_sensors, (std::set<core::SensorId>{2}));
}

TEST_F(EndToEndFixture, UnclaimedStreamsLandInOrphanage) {
  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::all_of(1));  // only sensor 1 claimed
  runtime.run_for(Duration::millis(20));

  runtime.start_sensors();
  runtime.run_for(Duration::seconds(10));

  EXPECT_GT(runtime.orphanage().total_received(), 0u);
  // Sensors 2..8 were unclaimed; at least some produced orphaned streams.
  const auto report = runtime.orphanage().report();
  EXPECT_GE(report.size(), 3u);
  for (const core::OrphanAnalysis& analysis : report) {
    EXPECT_NE(analysis.id.sensor, 1u) << "claimed stream must not be orphaned";
  }
}

TEST_F(EndToEndFixture, BacklogClaimableAfterLateSubscribe) {
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(5));  // nobody listening: all orphaned

  const auto backlog = runtime.orphanage().claim({2, 0});
  EXPECT_FALSE(backlog.empty());
}

TEST_F(EndToEndFixture, LocationInferredWithoutSensorInvolvement) {
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(15));

  // Sensors never transmitted coordinates, yet estimates exist and are
  // roughly right.
  std::size_t estimated = 0;
  for (std::size_t i = 0; i < runtime.field().sensor_count(); ++i) {
    wireless::SensorNode& sensor = runtime.field().sensor_at(i);
    const auto estimate = runtime.location().estimate(sensor.id());
    if (!estimate) continue;
    ++estimated;
    const double error = sim::distance(estimate->position, sensor.position());
    EXPECT_LT(error, 300.0) << "sensor " << sensor.id();
  }
  EXPECT_GE(estimated, 4u);  // most sensors were heard recently
}

TEST_F(EndToEndFixture, CatalogDetectsAllActiveStreams) {
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(10));
  core::StreamCatalog::Query query;
  const auto streams = runtime.catalog().discover(query);
  EXPECT_GE(streams.size(), 6u);  // most of the 8 sensors heard
  for (const core::StreamInfo& info : streams) {
    EXPECT_FALSE(info.advertised);  // nobody advertised; auto-detected
    EXPECT_GT(info.messages, 0u);
  }
}

TEST_F(EndToEndFixture, LocationStreamIsSubscribable) {
  Runtime::Config config = realistic_config(77);
  config.publish_location_stream = true;
  Runtime rt(config);
  rt.deploy_receivers(9, 250);
  wireless::SensorField::PopulationSpec spec;
  spec.count = 4;
  spec.interval_ms = 200;
  rt.deploy_population(spec);

  ASSERT_TRUE(rt.location_stream().has_value());
  core::Consumer watcher(rt.bus(), "consumer.location-watcher");
  rt.provision(watcher, "location-watcher");
  std::vector<core::DeliveryView> updates;
  watcher.set_data_handler([&](const core::DeliveryView& d) { updates.push_back(d); });
  watcher.subscribe(core::StreamPattern::exact(*rt.location_stream()));
  rt.run_for(Duration::millis(20));

  rt.start_sensors();
  rt.run_for(Duration::seconds(10));

  ASSERT_FALSE(updates.empty());
  // Payload decodes to sensor id + position + radius + confidence.
  util::ByteReader r(updates[0].message.payload);
  const core::SensorId sensor = r.u24();
  const double x = r.f64();
  const double y = r.f64();
  const double radius = r.f64();
  const double confidence = r.f64();
  EXPECT_TRUE(r.ok());
  EXPECT_GE(sensor, 1u);
  EXPECT_TRUE(rt.field().area().contains({x, y}));
  EXPECT_GT(radius, 0.0);
  EXPECT_GT(confidence, 0.0);
  EXPECT_TRUE(updates[0].message.header.has(core::HeaderFlag::kDerived));
}

TEST_F(EndToEndFixture, DeterministicEndToEnd) {
  const auto run_once = [] {
    Runtime rt(realistic_config(123));
    rt.deploy_receivers(9, 250);
    wireless::SensorField::PopulationSpec spec;
    spec.count = 4;
    rt.deploy_population(spec);
    core::Consumer consumer(rt.bus(), "consumer.app");
    rt.provision(consumer, "app");
    std::vector<std::uint64_t> trace;
    consumer.set_data_handler([&](const core::DeliveryView& d) {
      trace.push_back((static_cast<std::uint64_t>(d.message.stream_id.packed()) << 16) |
                      d.message.sequence);
    });
    consumer.subscribe(core::StreamPattern::everything());
    rt.run_for(Duration::millis(20));
    rt.start_sensors();
    rt.run_for(Duration::seconds(10));
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace garnet
