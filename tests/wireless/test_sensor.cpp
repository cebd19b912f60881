#include "wireless/sensor.hpp"

#include <gtest/gtest.h>

#include <set>

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

struct SensorFixture : ::testing::Test {
  sim::Scheduler scheduler;
  RadioMedium medium{scheduler, perfect_radio(), util::Rng(1)};
  std::vector<core::DataMessage> heard;

  SensorFixture() {
    medium.add_receiver({1, {0, 0}, 10000});
    medium.set_uplink_sink([this](const ReceptionReport& r) {
      const auto decoded = core::decode_view(r.frame);
      ASSERT_TRUE(decoded.ok());
      heard.push_back(decoded.value().to_owned());
    });
  }

  SensorNode::Config basic_config(core::SensorId id = 7, bool receive = true) {
    SensorNode::Config config;
    config.id = id;
    config.capabilities.receive_capable = receive;
    StreamSpec spec;
    spec.id = 0;
    spec.interval_ms = 100;
    spec.constraints = {.min_interval_ms = 20, .max_interval_ms = 10000, .max_payload = 64};
    config.streams.push_back(spec);
    return config;
  }

  std::unique_ptr<SensorNode> make_sensor(SensorNode::Config config) {
    return std::make_unique<SensorNode>(scheduler, medium, std::move(config),
                                        std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}),
                                        util::Rng(42));
  }
};

TEST_F(SensorFixture, SamplesAtConfiguredInterval) {
  auto sensor = make_sensor(basic_config());
  sensor->start();
  scheduler.run_until(SimTime{} + Duration::seconds(1));
  // 100ms nominal interval with up to 5% phase jitter: expect ~9-10.
  EXPECT_GE(heard.size(), 8u);
  EXPECT_LE(heard.size(), 11u);
  EXPECT_EQ(sensor->messages_sent(), heard.size());
}

TEST_F(SensorFixture, SequencesIncrease) {
  auto sensor = make_sensor(basic_config());
  sensor->start();
  scheduler.run_until(SimTime{} + Duration::seconds(1));
  ASSERT_GE(heard.size(), 2u);
  for (std::size_t i = 0; i < heard.size(); ++i) {
    EXPECT_EQ(heard[i].sequence, static_cast<core::SequenceNo>(i));
  }
}

TEST_F(SensorFixture, StreamIdCarriesSensorAndStream) {
  auto config = basic_config(123);
  config.streams[0].id = 9;
  auto sensor = make_sensor(std::move(config));
  sensor->start();
  scheduler.run_until(SimTime{} + Duration::millis(300));
  ASSERT_FALSE(heard.empty());
  EXPECT_EQ(heard[0].stream_id.sensor, 123u);
  EXPECT_EQ(heard[0].stream_id.stream, 9u);
}

TEST_F(SensorFixture, MultipleInternalStreamsIndependent) {
  auto config = basic_config();
  StreamSpec second;
  second.id = 1;
  second.interval_ms = 50;
  config.streams.push_back(second);
  auto sensor = make_sensor(std::move(config));
  sensor->start();
  scheduler.run_until(SimTime{} + Duration::seconds(1));

  std::size_t fast = 0;
  std::size_t slow = 0;
  for (const auto& msg : heard) (msg.stream_id.stream == 1 ? fast : slow)++;
  EXPECT_GT(fast, slow);
  EXPECT_GT(slow, 0u);
}

TEST_F(SensorFixture, StopHaltsSampling) {
  auto sensor = make_sensor(basic_config());
  sensor->start();
  scheduler.run_until(SimTime{} + Duration::millis(500));
  const std::size_t at_stop = heard.size();
  sensor->stop();
  scheduler.run_until(SimTime{} + Duration::seconds(2));
  EXPECT_EQ(heard.size(), at_stop);
}

TEST_F(SensorFixture, SetIntervalUpdateChangesCadence) {
  auto sensor = make_sensor(basic_config());
  sensor->start();

  core::StreamUpdateRequest request;
  request.request_id = 55;
  request.target = {7, 0};
  request.action = core::UpdateAction::kSetIntervalMs;
  request.value = 500;
  EXPECT_EQ(sensor->apply_update(request), UpdateOutcome::kApplied);

  scheduler.run_until(SimTime{} + Duration::seconds(2));
  // ~4 messages at 500ms instead of ~20 at 100ms.
  EXPECT_LE(heard.size(), 6u);
  EXPECT_GE(heard.size(), 2u);
  EXPECT_EQ(sensor->stream(0)->interval_ms, 500u);
}

TEST_F(SensorFixture, IntervalClampedToDeviceConstraints) {
  auto sensor = make_sensor(basic_config());
  core::StreamUpdateRequest request;
  request.target = {7, 0};
  request.action = core::UpdateAction::kSetIntervalMs;
  request.value = 1;  // below the 20ms floor
  EXPECT_EQ(sensor->apply_update(request), UpdateOutcome::kClamped);
  EXPECT_EQ(sensor->stream(0)->interval_ms, 20u);
}

TEST_F(SensorFixture, DisableAndReEnableStream) {
  auto sensor = make_sensor(basic_config());
  sensor->start();

  core::StreamUpdateRequest disable;
  disable.target = {7, 0};
  disable.action = core::UpdateAction::kDisableStream;
  EXPECT_EQ(sensor->apply_update(disable), UpdateOutcome::kApplied);
  scheduler.run_until(SimTime{} + Duration::seconds(1));
  EXPECT_TRUE(heard.empty());

  core::StreamUpdateRequest enable;
  enable.target = {7, 0};
  enable.action = core::UpdateAction::kEnableStream;
  EXPECT_EQ(sensor->apply_update(enable), UpdateOutcome::kApplied);
  scheduler.run_until(SimTime{} + Duration::seconds(2));
  EXPECT_FALSE(heard.empty());
}

TEST_F(SensorFixture, UnknownStreamRejected) {
  auto sensor = make_sensor(basic_config());
  core::StreamUpdateRequest request;
  request.target = {7, 99};
  request.action = core::UpdateAction::kSetIntervalMs;
  request.value = 100;
  EXPECT_EQ(sensor->apply_update(request), UpdateOutcome::kRejected);
  EXPECT_EQ(sensor->updates_rejected(), 1u);
}

TEST_F(SensorFixture, SimpleSensorRejectsUpdates) {
  auto sensor = make_sensor(basic_config(7, /*receive=*/false));
  core::StreamUpdateRequest request;
  request.target = {7, 0};
  request.action = core::UpdateAction::kSetIntervalMs;
  request.value = 100;
  EXPECT_EQ(sensor->apply_update(request), UpdateOutcome::kNotReceiveCapable);
}

TEST_F(SensorFixture, AppliedUpdateAcknowledgedInNextMessage) {
  auto sensor = make_sensor(basic_config());
  sensor->start();

  core::StreamUpdateRequest request;
  request.request_id = 0xCAFE;
  request.target = {7, 0};
  request.action = core::UpdateAction::kSetMode;
  request.value = 3;
  sensor->apply_update(request);

  scheduler.run_until(SimTime{} + Duration::millis(300));
  ASSERT_FALSE(heard.empty());
  ASSERT_TRUE(heard[0].ack_request_id.has_value());
  EXPECT_EQ(*heard[0].ack_request_id, 0xCAFEu);
  // Only the first message carries the ack.
  if (heard.size() > 1) {
    EXPECT_FALSE(heard[1].ack_request_id.has_value());
  }
}

TEST_F(SensorFixture, DownlinkFrameAppliesUpdate) {
  medium.add_transmitter({1, {0, 0}, 1000});
  auto sensor = make_sensor(basic_config());
  sensor->start();

  core::StreamUpdateRequest request;
  request.request_id = 9;
  request.target = {7, 0};
  request.action = core::UpdateAction::kSetMode;
  request.value = 5;
  medium.downlink(1, core::encode(request));
  scheduler.run_until(SimTime{} + Duration::millis(50));

  EXPECT_EQ(sensor->updates_applied(), 1u);
  EXPECT_EQ(sensor->stream(0)->mode, 5u);
}

TEST_F(SensorFixture, DownlinkFrameForOtherSensorIgnored) {
  medium.add_transmitter({1, {0, 0}, 1000});
  auto sensor = make_sensor(basic_config(7));
  sensor->start();

  core::StreamUpdateRequest request;
  request.target = {8, 0};  // someone else
  request.action = core::UpdateAction::kSetMode;
  request.value = 5;
  medium.downlink(1, core::encode(request));
  scheduler.run_until(SimTime{} + Duration::millis(50));

  EXPECT_EQ(sensor->updates_applied(), 0u);
}

TEST_F(SensorFixture, GarbageDownlinkIgnored) {
  medium.add_transmitter({1, {0, 0}, 1000});
  auto sensor = make_sensor(basic_config());
  sensor->start();
  medium.downlink(1, util::to_bytes("not a valid control frame"));
  scheduler.run_until(SimTime{} + Duration::millis(50));
  EXPECT_EQ(sensor->updates_applied(), 0u);
  EXPECT_EQ(sensor->updates_rejected(), 0u);  // dropped before accounting
}

TEST_F(SensorFixture, BatteryExhaustionStopsSensor) {
  auto config = basic_config();
  config.battery_joules = 0.01;  // enough for a handful of frames
  config.tx_cost_joules_per_byte = 100e-6;
  auto sensor = make_sensor(std::move(config));
  sensor->start();
  scheduler.run_until(SimTime{} + Duration::seconds(60));

  EXPECT_FALSE(sensor->alive());
  EXPECT_EQ(sensor->battery_joules(), 0.0);
  EXPECT_LT(heard.size(), 10u);  // died long before 600 samples
}

TEST_F(SensorFixture, PayloadGeneratorUsed) {
  auto config = basic_config();
  config.streams[0].generate = [](SimTime, util::Rng&) { return util::to_bytes("custom!"); };
  auto sensor = make_sensor(std::move(config));
  sensor->start();
  scheduler.run_until(SimTime{} + Duration::millis(300));
  ASSERT_FALSE(heard.empty());
  EXPECT_EQ(util::to_string(heard[0].payload), "custom!");
}

TEST_F(SensorFixture, PayloadClampedToConstraint) {
  auto config = basic_config();
  config.streams[0].generate = [](SimTime, util::Rng&) { return util::Bytes(1000); };
  auto sensor = make_sensor(std::move(config));  // max_payload = 64
  sensor->start();
  scheduler.run_until(SimTime{} + Duration::millis(300));
  ASSERT_FALSE(heard.empty());
  EXPECT_EQ(heard[0].payload.size(), 64u);
}

TEST_F(SensorFixture, SyntheticGeneratorProducesPlausibleReadings) {
  auto gen = synthetic_reading_generator(20.0, 2.0, 60.0);
  util::Rng rng(1);
  std::set<std::uint64_t> distinct;
  for (int i = 0; i < 20; ++i) {
    const util::Bytes payload = gen(SimTime{} + Duration::seconds(i * 3), rng);
    ASSERT_EQ(payload.size(), 8u);
    util::ByteReader r(payload);
    const double value = r.f64();
    EXPECT_GT(value, 15.0);
    EXPECT_LT(value, 25.0);
    distinct.insert(std::bit_cast<std::uint64_t>(value));
  }
  EXPECT_GT(distinct.size(), 10u);  // values vary over time
}

}  // namespace
}  // namespace garnet::wireless
