#include "core/location.hpp"

#include <gtest/gtest.h>

namespace garnet::core {
namespace {

using util::Duration;
using util::SimTime;

struct LocationFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::MessageBus bus{scheduler, {}};
  AuthService auth{{}};
  LocationService location{bus, auth};

  LocationFixture() {
    std::vector<wireless::Receiver> receivers = {
        {1, {0, 0}, 100},
        {2, {200, 0}, 100},
        {3, {0, 200}, 100},
        {4, {200, 200}, 100},
    };
    location.set_receiver_layout(receivers);
  }

  void observe(SensorId sensor, wireless::ReceiverId receiver, double rssi) {
    location.observe(ReceptionEvent{sensor, receiver, rssi, scheduler.now()});
  }
};

TEST_F(LocationFixture, NoEvidenceNoEstimate) {
  EXPECT_FALSE(location.estimate(1).has_value());
}

TEST_F(LocationFixture, SingleReceiverEstimateCentersOnIt) {
  observe(1, 2, -40.0);
  const auto est = location.estimate(1);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->position.x, 200.0, 1e-6);
  EXPECT_NEAR(est->position.y, 0.0, 1e-6);
  EXPECT_GE(est->radius_m, LocationService::kBaseRadiusM);
  EXPECT_EQ(est->source, LocationEstimate::Source::kInferred);
}

TEST_F(LocationFixture, MultipleReceiversTriangulate) {
  // Equal strength at receivers 1 and 2 places the sensor between them.
  observe(1, 1, -40.0);
  observe(1, 2, -40.0);
  const auto est = location.estimate(1);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->position.x, 100.0, 1.0);
  EXPECT_NEAR(est->position.y, 0.0, 1.0);
}

TEST_F(LocationFixture, StrongerSignalPullsCentroid) {
  observe(1, 1, -30.0);  // 10 dB stronger => 10x weight
  observe(1, 2, -40.0);
  const auto est = location.estimate(1);
  ASSERT_TRUE(est.has_value());
  EXPECT_LT(est->position.x, 50.0);  // pulled toward receiver 1 at x=0
}

TEST_F(LocationFixture, ConfidenceGrowsWithReceivers) {
  observe(1, 1, -40.0);
  const double c1 = location.estimate(1)->confidence;
  observe(1, 2, -40.0);
  const double c2 = location.estimate(1)->confidence;
  observe(1, 3, -40.0);
  const double c3 = location.estimate(1)->confidence;
  EXPECT_LT(c1, c2);
  EXPECT_LT(c2, c3);
  EXPECT_DOUBLE_EQ(c3, 1.0);  // kFullConfidenceReceivers = 3
}

TEST_F(LocationFixture, ObservationsAgeOut) {
  observe(1, 1, -40.0);
  ASSERT_TRUE(location.estimate(1).has_value());
  scheduler.run_until(SimTime{} + Duration::seconds(60));  // window is 15s
  EXPECT_FALSE(location.estimate(1).has_value());
}

TEST_F(LocationFixture, UnknownReceiverIgnored) {
  observe(1, 2, -40.0);
  const util::Bytes tracks = location.capture_state();
  observe(7, 99, -40.0);  // receiver 99 was never deployed
  EXPECT_FALSE(location.estimate(7).has_value());
  EXPECT_EQ(location.stats().observations, 1u);
  EXPECT_EQ(location.stats().unknown_receiver, 1u);
  EXPECT_EQ(location.capture_state(), tracks);
}

TEST_F(LocationFixture, HintProvidesEstimateWithoutObservations) {
  location.hint({1, 42.0, 17.0, 30.0}, scheduler.now());
  const auto est = location.estimate(1);
  ASSERT_TRUE(est.has_value());
  EXPECT_EQ(est->source, LocationEstimate::Source::kHint);
  EXPECT_NEAR(est->position.x, 42.0, 1e-9);
  EXPECT_NEAR(est->radius_m, 30.0, 1e-9);
}

TEST_F(LocationFixture, HintExpiresAfterTtl) {
  location.hint({1, 42.0, 17.0, 30.0}, scheduler.now());
  scheduler.run_until(SimTime{} + Duration::seconds(120));  // ttl is 60s
  EXPECT_FALSE(location.estimate(1).has_value());
}

TEST_F(LocationFixture, HintAndInferenceFuse) {
  observe(1, 1, -40.0);
  observe(1, 2, -40.0);
  observe(1, 3, -40.0);
  location.hint({1, 100.0, 0.0, 20.0}, scheduler.now());
  const auto est = location.estimate(1);
  ASSERT_TRUE(est.has_value());
  EXPECT_EQ(est->source, LocationEstimate::Source::kFused);
  // Fused radius takes the tighter of the two.
  EXPECT_LE(est->radius_m, 20.0);
}

TEST_F(LocationFixture, SensorsTrackedIndependently) {
  observe(1, 1, -40.0);
  observe(2, 4, -40.0);
  const auto est1 = location.estimate(1);
  const auto est2 = location.estimate(2);
  ASSERT_TRUE(est1 && est2);
  EXPECT_NEAR(est1->position.x, 0.0, 1e-6);
  EXPECT_NEAR(est2->position.x, 200.0, 1e-6);
}

TEST_F(LocationFixture, AuthenticatedHintEnvelopeAccepted) {
  const auto identity = auth.register_consumer("hinter", net::Address{50});
  ASSERT_TRUE(identity.ok());

  util::ByteWriter w;
  w.u64(identity.value().token);
  w.raw(encode(LocationHint{3, 9.0, 9.0, 25.0}));
  bus.post(net::Address{50}, location.address(), kLocationHint, std::move(w).take());
  scheduler.run();

  EXPECT_TRUE(location.estimate(3).has_value());
  EXPECT_EQ(location.stats().hints, 1u);
}

TEST_F(LocationFixture, UnauthenticatedHintRejected) {
  util::ByteWriter w;
  w.u64(0xF00D);  // forged token
  w.raw(encode(LocationHint{3, 9.0, 9.0, 25.0}));
  bus.post(net::Address{50}, location.address(), kLocationHint, std::move(w).take());
  scheduler.run();

  EXPECT_FALSE(location.estimate(3).has_value());
  EXPECT_EQ(location.stats().hints_rejected, 1u);
}

TEST_F(LocationFixture, QueryViaRpc) {
  observe(1, 1, -40.0);
  net::RpcNode caller(bus, "replicator-stub");
  std::optional<double> x;
  util::ByteWriter w(3);
  w.u24(1);
  caller.call(location.address(), LocationService::kQuery, std::move(w).take(),
              net::CallOptions{}, [&](net::RpcResult result) {
                ASSERT_TRUE(result.ok());
                util::ByteReader r(result.value());
                if (r.u8() == 1) {
                  x = r.f64();
                }
              });
  scheduler.run();
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR(*x, 0.0, 1e-6);
}

TEST_F(LocationFixture, UpdateSinkFires) {
  std::size_t updates = 0;
  location.set_update_sink([&](SensorId sensor, const LocationEstimate&) {
    EXPECT_EQ(sensor, 1u);
    ++updates;
  });
  observe(1, 1, -40.0);
  observe(1, 2, -40.0);
  EXPECT_EQ(updates, 2u);
}

}  // namespace
}  // namespace garnet::core
