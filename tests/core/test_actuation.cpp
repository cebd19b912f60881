// Actuation Service pipeline: admission -> stamp/checksum -> replicate ->
// acknowledge, with retransmission on silence (paper §4.2).
#include "core/actuation.hpp"

#include <gtest/gtest.h>

namespace garnet::core {
namespace {

using util::Duration;
using util::SimTime;

struct ActuationFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::MessageBus bus{scheduler, {}};
  AuthService auth{{}};

  wireless::RadioMedium::Config perfect_radio() {
    wireless::RadioMedium::Config config;
    config.base_loss = 0.0;
    config.edge_loss = 0.0;
    config.max_jitter = Duration::nanos(0);
    return config;
  }

  wireless::RadioMedium medium{scheduler, perfect_radio(), util::Rng(1)};
  LocationService location{bus, auth};
  ResourceManager resource{bus, auth,
                           {.policy = ConflictPolicy::kMostDemandingWins,
                            .evaluation_delay = Duration::millis(5),
                            .allow_trusted_override = true,
                            .demand_ttl = Duration::seconds(300)}};
  MessageReplicator replicator{medium, location, {}};

  ActuationService make(ActuationService::Config config = {.ack_timeout = Duration::millis(100),
                                                           .max_retries = 2}) {
    return ActuationService(bus, auth, replicator, config);
  }

  ConsumerToken register_consumer(const std::string& name) {
    return auth.register_consumer(name, net::Address{1}).value().token;
  }

  /// Captures control frames arriving at a stationary receive-capable
  /// sensor position.
  std::vector<StreamUpdateRequest> received;
  void attach_sensor_stub(std::uint32_t key = 7) {
    medium.add_transmitter({1, {0, 0}, 1000});
    medium.add_downlink_endpoint({key, [] { return sim::Vec2{10, 0}; },
                                  [this](util::BytesView frame) {
                                    const auto decoded = decode_update(frame);
                                    if (decoded.ok()) received.push_back(decoded.value());
                                  }});
  }
};

TEST_F(ActuationFixture, ApprovedRequestReachesSensor) {
  attach_sensor_stub();
  ActuationService actuation = make();
  const ConsumerToken token = register_consumer("app");

  std::optional<ActuationService::Outcome> outcome;
  actuation.request_update(token, {7, 0}, UpdateAction::kSetIntervalMs, 500,
                           [&](ActuationService::Outcome o) { outcome = o; });
  scheduler.run_until(SimTime{} + Duration::millis(50));

  ASSERT_TRUE(outcome.has_value());
  EXPECT_NE(outcome->request_id, 0u);
  EXPECT_EQ(outcome->decision.admission, Admission::kApproved);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].target, (StreamId{7, 0}));
  EXPECT_EQ(received[0].value, 500u);
  EXPECT_EQ(received[0].request_id, outcome->request_id);
}

TEST_F(ActuationFixture, RequestCarriesTimestamp) {
  attach_sensor_stub();
  ActuationService actuation = make();
  const ConsumerToken token = register_consumer("app");
  actuation.request_update(token, {7, 0}, UpdateAction::kSetMode, 1, [](auto) {});
  scheduler.run_until(SimTime{} + Duration::millis(50));
  ASSERT_EQ(received.size(), 1u);
  // Stamped after the 5ms admission deliberation.
  EXPECT_GE(received[0].issued_at.ns, Duration::millis(5).ns);
}

TEST_F(ActuationFixture, DeniedRequestNeverTransmits) {
  attach_sensor_stub();
  ActuationService actuation = make();
  auth.grant_trust("guest", TrustLevel::kUntrusted);
  const ConsumerToken token = auth.register_consumer("guest", net::Address{1}).value().token;

  std::optional<ActuationService::Outcome> outcome;
  actuation.request_update(token, {7, 0}, UpdateAction::kSetIntervalMs, 500,
                           [&](ActuationService::Outcome o) { outcome = o; });
  scheduler.run_until(SimTime{} + Duration::millis(50));

  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->request_id, 0u);
  EXPECT_EQ(outcome->decision.admission, Admission::kDenied);
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(actuation.stats().denied, 1u);
}

TEST_F(ActuationFixture, AckCompletesRequest) {
  attach_sensor_stub();
  ActuationService actuation = make();
  const ConsumerToken token = register_consumer("app");

  std::optional<std::uint32_t> request_id;
  actuation.request_update(token, {7, 0}, UpdateAction::kSetIntervalMs, 500,
                           [&](ActuationService::Outcome o) { request_id = o.request_id; });
  std::vector<std::pair<std::uint32_t, bool>> completions;
  std::vector<Duration> latencies;
  actuation.set_completion_observer([&](std::uint32_t id, bool acked, Duration latency) {
    completions.emplace_back(id, acked);
    latencies.push_back(latency);
  });
  scheduler.run_until(SimTime{} + Duration::millis(20));
  ASSERT_TRUE(request_id.has_value());
  EXPECT_EQ(actuation.pending_count(), 1u);

  actuation.on_ack(*request_id, 7, scheduler.now());
  EXPECT_EQ(actuation.pending_count(), 0u);
  EXPECT_EQ(actuation.stats().acked, 1u);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0], std::make_pair(*request_id, true));
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_GT(latencies[0].ns, 0);
}

TEST_F(ActuationFixture, AckFromWrongSensorIgnored) {
  attach_sensor_stub();
  ActuationService actuation = make();
  const ConsumerToken token = register_consumer("app");
  std::optional<std::uint32_t> request_id;
  actuation.request_update(token, {7, 0}, UpdateAction::kSetIntervalMs, 500,
                           [&](ActuationService::Outcome o) { request_id = o.request_id; });
  scheduler.run_until(SimTime{} + Duration::millis(20));
  actuation.on_ack(*request_id, 999, scheduler.now());
  EXPECT_EQ(actuation.pending_count(), 1u);
  EXPECT_EQ(actuation.stats().acked, 0u);
}

TEST_F(ActuationFixture, UnsolicitedAckIgnored) {
  ActuationService actuation = make();
  actuation.on_ack(424242, 7, scheduler.now());
  EXPECT_EQ(actuation.stats().acked, 0u);
}

TEST_F(ActuationFixture, RetransmitsUntilAck) {
  attach_sensor_stub();
  ActuationService actuation = make({.ack_timeout = Duration::millis(50), .max_retries = 2});
  const ConsumerToken token = register_consumer("app");
  actuation.request_update(token, {7, 0}, UpdateAction::kSetIntervalMs, 500, [](auto) {});
  // Never ack: initial + 2 retries = 3 transmissions, then expiry.
  scheduler.run_until(SimTime{} + Duration::seconds(2));
  EXPECT_EQ(received.size(), 3u);
  EXPECT_EQ(actuation.stats().retries, 2u);
  EXPECT_EQ(actuation.stats().expired, 1u);
  EXPECT_EQ(actuation.pending_count(), 0u);
}

TEST_F(ActuationFixture, AckDuringRetryWindowStopsRetries) {
  attach_sensor_stub();
  ActuationService actuation = make({.ack_timeout = Duration::millis(50), .max_retries = 5});
  const ConsumerToken token = register_consumer("app");
  std::optional<std::uint32_t> request_id;
  actuation.request_update(token, {7, 0}, UpdateAction::kSetIntervalMs, 500,
                           [&](ActuationService::Outcome o) { request_id = o.request_id; });
  scheduler.run_until(SimTime{} + Duration::millis(70));  // one retry happened
  actuation.on_ack(*request_id, 7, scheduler.now());
  scheduler.run_until(SimTime{} + Duration::seconds(2));
  EXPECT_EQ(received.size(), 2u);  // initial + 1 retry, then silence
  EXPECT_EQ(actuation.stats().expired, 0u);
}

TEST_F(ActuationFixture, RequestViaRpc) {
  attach_sensor_stub();
  ActuationService actuation = make();
  const ConsumerToken token = register_consumer("app");

  net::RpcNode caller(bus, "caller");
  std::optional<std::uint32_t> request_id;
  util::ByteWriter w(17);
  w.u64(token);
  w.u32(StreamId{7, 0}.packed());
  w.u8(static_cast<std::uint8_t>(UpdateAction::kSetIntervalMs));
  w.u32(750);
  caller.call(actuation.address(), ActuationService::kRequestUpdate, std::move(w).take(),
              net::CallOptions{}, [&](net::RpcResult result) {
                ASSERT_TRUE(result.ok());
                util::ByteReader r(result.value());
                request_id = r.u32();
                EXPECT_EQ(static_cast<Admission>(r.u8()), Admission::kApproved);
                EXPECT_EQ(r.u32(), 750u);
              });
  scheduler.run_until(SimTime{} + Duration::millis(50));
  ASSERT_TRUE(request_id.has_value());
  EXPECT_NE(*request_id, 0u);
  ASSERT_EQ(received.size(), 1u);
}

TEST_F(ActuationFixture, RequestIdsUnique) {
  attach_sensor_stub();
  ActuationService actuation = make();
  const ConsumerToken token = register_consumer("app");
  std::set<std::uint32_t> ids;
  for (int i = 0; i < 5; ++i) {
    actuation.request_update(token, {7, 0}, UpdateAction::kSetMode,
                             static_cast<std::uint32_t>(i),
                             [&](ActuationService::Outcome o) { ids.insert(o.request_id); });
  }
  scheduler.run_until(SimTime{} + Duration::millis(50));
  EXPECT_EQ(ids.size(), 5u);
}

}  // namespace
}  // namespace garnet::core
