// Consumer-library behaviour against a full Runtime instance.
#include "core/consumer.hpp"

#include <gtest/gtest.h>

#include "garnet/runtime.hpp"

namespace garnet::core {
namespace {

using util::Duration;
using util::SimTime;

Runtime::Config quiet_config() {
  garnet::Runtime::Config config;
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  return config;
}

using garnet::Runtime;

struct ConsumerFixture : ::testing::Test {
  Runtime runtime{quiet_config()};

  ConsumerFixture() {
    runtime.deploy_receivers(4, 400);
    runtime.deploy_transmitters(4, 500);
  }

  wireless::SensorNode& deploy_static_sensor(SensorId id, std::uint32_t interval_ms = 100) {
    wireless::SensorNode::Config config;
    config.id = id;
    config.capabilities.receive_capable = true;
    wireless::StreamSpec spec;
    spec.interval_ms = interval_ms;
    spec.constraints = {.min_interval_ms = 20, .max_interval_ms = 60000, .max_payload = 128};
    config.streams.push_back(spec);
    return runtime.deploy_sensor(
        std::move(config),
        std::make_unique<sim::StaticMobility>(runtime.field().area().center()));
  }
};

TEST_F(ConsumerFixture, ProvisionInstallsIdentity) {
  Consumer consumer(runtime.bus(), "consumer.app");
  const ConsumerIdentity identity = runtime.provision(consumer, "app");
  EXPECT_EQ(consumer.identity().token, identity.token);
  EXPECT_EQ(identity.address, consumer.address());
  EXPECT_TRUE(runtime.auth().verify(identity.token).has_value());
}

TEST_F(ConsumerFixture, SubscribeAndReceive) {
  auto& sensor = deploy_static_sensor(1);
  Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");

  std::vector<DeliveryView> got;
  consumer.set_data_handler([&](const DeliveryView& d) { got.push_back(d); });
  bool subscribed = false;
  consumer.subscribe(StreamPattern::all_of(1), [&](auto result) {
    ASSERT_TRUE(result.ok());
    subscribed = true;
  });
  runtime.run_for(Duration::millis(10));
  ASSERT_TRUE(subscribed);

  sensor.start();
  runtime.run_for(Duration::seconds(2));
  EXPECT_GT(got.size(), 10u);
  EXPECT_EQ(consumer.received(), got.size());
  EXPECT_EQ(got[0].message.stream_id.sensor, 1u);
}

TEST_F(ConsumerFixture, UnsubscribeStopsDeliveries) {
  auto& sensor = deploy_static_sensor(1);
  sensor.start();
  Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");

  std::optional<SubscriptionId> sub;
  consumer.subscribe(StreamPattern::all_of(1), [&](auto result) { sub = result.value(); });
  runtime.run_for(Duration::seconds(1));
  ASSERT_TRUE(sub.has_value());
  const std::uint64_t before = consumer.received();
  EXPECT_GT(before, 0u);

  consumer.unsubscribe(*sub);
  runtime.run_for(Duration::millis(50));  // let the unsubscribe land
  const std::uint64_t at_unsub = consumer.received();
  runtime.run_for(Duration::seconds(1));
  EXPECT_EQ(consumer.received(), at_unsub);
}

TEST_F(ConsumerFixture, RequestUpdateReachesSensor) {
  auto& sensor = deploy_static_sensor(1, 1000);
  sensor.start();
  Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");

  std::optional<Admission> admission;
  consumer.request_update({1, 0}, UpdateAction::kSetIntervalMs, 200,
                          [&](std::uint32_t request_id, Admission a, std::uint32_t effective) {
                            EXPECT_NE(request_id, 0u);
                            EXPECT_EQ(effective, 200u);
                            admission = a;
                          });
  runtime.run_for(Duration::seconds(1));
  EXPECT_EQ(admission, Admission::kApproved);
  EXPECT_EQ(sensor.stream(0)->interval_ms, 200u);
  EXPECT_EQ(sensor.updates_applied(), 1u);
}

TEST_F(ConsumerFixture, AckFlowsBackThroughDataPath) {
  auto& sensor = deploy_static_sensor(1, 100);
  sensor.start();
  Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(StreamPattern::all_of(1));

  consumer.request_update({1, 0}, UpdateAction::kSetMode, 7, {});
  runtime.run_for(Duration::seconds(2));

  // The sensor embedded the ack in a data message; dispatch observed it;
  // actuation matched it.
  EXPECT_EQ(runtime.actuation().stats().acked, 1u);
  EXPECT_EQ(runtime.actuation().pending_count(), 0u);
  EXPECT_GT(runtime.dispatch().stats().acks_observed, 0u);
}

TEST_F(ConsumerFixture, PublishDerivedStream) {
  Consumer producer(runtime.bus(), "consumer.producer");
  Consumer subscriber(runtime.bus(), "consumer.subscriber");
  runtime.provision(producer, "producer");
  runtime.provision(subscriber, "subscriber");

  const StreamId derived = runtime.create_derived_stream("averages", "derived-avg");
  std::vector<DeliveryView> got;
  subscriber.set_data_handler([&](const DeliveryView& d) { got.push_back(d); });
  subscriber.subscribe(StreamPattern::exact(derived));
  runtime.run_for(Duration::millis(10));

  producer.publish_derived(derived, util::to_bytes("avg=3.5"),
                           static_cast<std::uint8_t>(HeaderFlag::kFused));
  producer.publish_derived(derived, util::to_bytes("avg=3.6"));
  runtime.run_for(Duration::millis(50));

  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].message.header.has(HeaderFlag::kDerived));
  EXPECT_TRUE(got[0].message.header.has(HeaderFlag::kFused));
  EXPECT_FALSE(got[1].message.header.has(HeaderFlag::kFused));
  EXPECT_EQ(got[0].message.sequence, 0u);
  EXPECT_EQ(got[1].message.sequence, 1u);
}

TEST_F(ConsumerFixture, ReportStateReachesCoordinator) {
  Consumer consumer(runtime.bus(), "consumer.app");
  const ConsumerIdentity identity = runtime.provision(consumer, "app");
  consumer.report_state(42);
  runtime.run_for(Duration::millis(10));
  ASSERT_EQ(runtime.coordinator().view().size(), 1u);
  EXPECT_EQ(runtime.coordinator().view().at(identity.id).state, 42u);
}

TEST_F(ConsumerFixture, LocationHintReachesService) {
  Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.send_location_hint({5, 123.0, 45.0, 20.0});
  runtime.run_for(Duration::millis(10));
  const auto estimate = runtime.location().estimate(5);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_NEAR(estimate->position.x, 123.0, 1e-9);
}

TEST_F(ConsumerFixture, UnprovisionedConsumerCannotSubscribe) {
  Consumer consumer(runtime.bus(), "consumer.rogue");
  std::optional<bool> ok;
  consumer.subscribe(StreamPattern::everything(), [&](auto result) { ok = result.ok(); });
  runtime.run_for(Duration::millis(100));
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(*ok);
}

}  // namespace
}  // namespace garnet::core
