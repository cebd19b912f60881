// The full return path (paper Figure 1, right-to-left): consumer ->
// Resource Manager -> Actuation Service -> Message Replicator ->
// Transmitters -> sensor -> (data path) -> acknowledgement, plus
// conflict mediation between mutually-unaware consumers and the
// location-targeted replication saving.
#include <gtest/gtest.h>

#include <vector>

#include "garnet/runtime.hpp"

namespace garnet {
namespace {

using util::Duration;

Runtime::Config reliable_config() {
  Runtime::Config config;
  config.field.area = {{0, 0}, {600, 600}};
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  return config;
}

struct ActuationPathFixture : ::testing::Test {
  Runtime runtime{reliable_config()};

  ActuationPathFixture() {
    runtime.deploy_receivers(9, 250);
    runtime.deploy_transmitters(9, 250);
  }

  wireless::SensorNode& deploy_sensor_at(core::SensorId id, sim::Vec2 position,
                                         std::uint32_t interval_ms = 200) {
    wireless::SensorNode::Config config;
    config.id = id;
    config.capabilities.receive_capable = true;
    wireless::StreamSpec spec;
    spec.interval_ms = interval_ms;
    spec.constraints = {.min_interval_ms = 50, .max_interval_ms = 60000, .max_payload = 128};
    config.streams.push_back(spec);
    return runtime.deploy_sensor(std::move(config),
                                 std::make_unique<sim::StaticMobility>(position));
  }
};

TEST_F(ActuationPathFixture, FullRoundTripWithAck) {
  auto& sensor = deploy_sensor_at(1, {300, 300});
  sensor.start();

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::all_of(1));
  runtime.run_for(Duration::seconds(3));  // build location evidence

  std::vector<Duration> ack_latencies;
  runtime.actuation().set_completion_observer(
      [&](std::uint32_t, bool acked, Duration latency) {
        if (acked) ack_latencies.push_back(latency);
      });
  consumer.request_update({1, 0}, core::UpdateAction::kSetIntervalMs, 100, {});
  runtime.run_for(Duration::seconds(3));

  EXPECT_EQ(sensor.stream(0)->interval_ms, 100u);
  EXPECT_EQ(runtime.actuation().stats().acked, 1u);
  EXPECT_EQ(runtime.actuation().stats().expired, 0u);
  ASSERT_EQ(ack_latencies.size(), 1u);
  EXPECT_GT(ack_latencies[0].ns, 0);
}

TEST_F(ActuationPathFixture, LocationTargetingActivatesFewerTransmitters) {
  // The quantitative claim behind §5 "Inferred location data ... required
  // to reduce transmission costs when forwarding control messages".
  auto& sensor = deploy_sensor_at(1, {100, 100});
  sensor.start();

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");

  // Cold request: no location evidence yet -> flood through all 9.
  consumer.request_update({1, 0}, core::UpdateAction::kSetMode, 1, {});
  runtime.run_for(Duration::millis(200));
  const auto after_cold = runtime.telemetry().registry.snapshot();
  EXPECT_EQ(after_cold.counter("garnet.replicator.flooded_sends"), 1u);
  EXPECT_EQ(after_cold.counter("garnet.replicator.transmitter_activations"), 9u);

  // Warm request: reception evidence accumulated -> targeted subset.
  runtime.run_for(Duration::seconds(5));
  consumer.request_update({1, 0}, core::UpdateAction::kSetMode, 2, {});
  runtime.run_for(Duration::millis(200));
  const auto after_warm = runtime.telemetry().registry.snapshot();
  EXPECT_EQ(after_warm.counter("garnet.replicator.targeted_sends"), 1u);
  const auto warm_activations =
      after_warm.counter("garnet.replicator.transmitter_activations") - 9;
  EXPECT_LT(warm_activations, 9u);
  EXPECT_GE(warm_activations, 1u);

  runtime.run_for(Duration::seconds(2));
  EXPECT_EQ(sensor.stream(0)->mode, 2u);  // still delivered
}

TEST_F(ActuationPathFixture, ConflictingConsumersMediated) {
  auto& sensor = deploy_sensor_at(1, {300, 300});
  sensor.start();

  core::Consumer eco(runtime.bus(), "consumer.eco");
  core::Consumer greedy(runtime.bus(), "consumer.greedy");
  runtime.provision(eco, "eco");
  runtime.provision(greedy, "greedy");
  runtime.run_for(Duration::seconds(2));

  // Mutually-unaware demands: eco wants 5s, greedy wants 100ms. Policy is
  // most-demanding-wins, so the sensor must end up at 100ms and eco must
  // be told its demand was modified.
  std::optional<core::Admission> eco_admission;
  std::optional<std::uint32_t> eco_effective;
  greedy.request_update({1, 0}, core::UpdateAction::kSetIntervalMs, 100, {});
  runtime.run_for(Duration::seconds(2));
  eco.request_update({1, 0}, core::UpdateAction::kSetIntervalMs, 5000,
                     [&](std::uint32_t, core::Admission a, std::uint32_t effective) {
                       eco_admission = a;
                       eco_effective = effective;
                     });
  runtime.run_for(Duration::seconds(2));

  EXPECT_EQ(eco_admission, core::Admission::kModified);
  EXPECT_EQ(eco_effective, 100u);
  EXPECT_EQ(sensor.stream(0)->interval_ms, 100u);
}

TEST_F(ActuationPathFixture, RetransmissionSurvivesDownlinkLoss) {
  Runtime::Config lossy = reliable_config();
  lossy.field.radio.base_loss = 0.7;  // most copies die
  lossy.actuation.ack_timeout = Duration::millis(400);
  lossy.actuation.max_retries = 8;
  Runtime rt(lossy);
  rt.deploy_receivers(9, 250);
  rt.deploy_transmitters(9, 250);

  wireless::SensorNode::Config config;
  config.id = 1;
  config.capabilities.receive_capable = true;
  wireless::StreamSpec spec;
  spec.interval_ms = 100;
  config.streams.push_back(spec);
  auto& sensor = rt.deploy_sensor(std::move(config),
                                  std::make_unique<sim::StaticMobility>(sim::Vec2{300, 300}));
  sensor.start();

  core::Consumer consumer(rt.bus(), "consumer.app");
  rt.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::all_of(1));
  rt.run_for(Duration::seconds(1));

  consumer.request_update({1, 0}, core::UpdateAction::kSetMode, 9, {});
  rt.run_for(Duration::seconds(10));

  // Despite 70% loss per copy, 9 transmitters x retries get through.
  EXPECT_EQ(sensor.stream(0)->mode, 9u);
  EXPECT_EQ(rt.actuation().stats().acked, 1u);
}

TEST_F(ActuationPathFixture, SensorConstraintClampsFlowBack) {
  auto& sensor = deploy_sensor_at(1, {300, 300});
  sensor.start();
  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  runtime.run_for(Duration::millis(100));

  std::optional<core::Admission> admission;
  std::optional<std::uint32_t> effective;
  consumer.request_update({1, 0}, core::UpdateAction::kSetIntervalMs, 1,  // below 50ms floor
                          [&](std::uint32_t, core::Admission a, std::uint32_t e) {
                            admission = a;
                            effective = e;
                          });
  runtime.run_for(Duration::seconds(2));

  EXPECT_EQ(admission, core::Admission::kModified);
  EXPECT_EQ(effective, 50u);
  EXPECT_EQ(sensor.stream(0)->interval_ms, 50u);
}

TEST_F(ActuationPathFixture, PredictivePrearmCutsAdmissionLatency) {
  // E5's mechanism at integration level: train the coordinator, then
  // compare admission latency with and without prediction.
  auto& sensor = deploy_sensor_at(1, {300, 300});
  sensor.start();

  core::Consumer consumer(runtime.bus(), "consumer.flood-watch");
  const auto identity = runtime.provision(consumer, "flood-watch");
  (void)identity;
  runtime.coordinator().add_rule(
      {"flood-watch", /*state=*/3, {1, 0}, core::UpdateAction::kSetIntervalMs, 100});

  // Train: states 1 -> 2 -> 3, three times.
  for (int i = 0; i < 3; ++i) {
    for (const std::uint32_t state : {1u, 2u, 3u}) {
      consumer.report_state(state);
      runtime.run_for(Duration::millis(50));
    }
  }

  // Entering state 2 now predicts state 3 and pre-arms.
  consumer.report_state(1);
  runtime.run_for(Duration::millis(50));
  consumer.report_state(2);
  runtime.run_for(Duration::millis(50));
  EXPECT_GE(runtime.coordinator().stats().prearms_issued, 1u);

  const auto before = runtime.resource().stats().prearm_hits;
  consumer.request_update({1, 0}, core::UpdateAction::kSetIntervalMs, 100, {});
  runtime.run_for(Duration::seconds(1));
  EXPECT_EQ(runtime.resource().stats().prearm_hits, before + 1);
  EXPECT_EQ(sensor.stream(0)->interval_ms, 100u);
}

}  // namespace
}  // namespace garnet
