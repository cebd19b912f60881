// Message Replicator selection logic: targeted transmitter subsets from
// location estimates, flood fallback, and degraded-estimate handling.
#include "core/replicator.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

namespace garnet::core {
namespace {

using util::Duration;

struct ReplicatorFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::MessageBus bus{scheduler, {}};
  AuthService auth{{}};
  LocationService location{bus, auth};
  obs::MetricsRegistry registry;

  wireless::RadioMedium::Config perfect_radio() {
    wireless::RadioMedium::Config config;
    config.base_loss = 0.0;
    config.edge_loss = 0.0;
    return config;
  }
  wireless::RadioMedium medium{scheduler, perfect_radio(), util::Rng(1)};
  MessageReplicator replicator{medium, location, {}};

  std::uint64_t counter(const char* name) { return registry.snapshot().counter(name); }

  ReplicatorFixture() {
    replicator.set_metrics(registry);
    // 4 transmitters across a 1km strip, 150m range each.
    for (wireless::TransmitterId id = 1; id <= 4; ++id) {
      medium.add_transmitter({id, {250.0 * static_cast<double>(id) - 125.0, 0}, 150});
    }
    // Matching receivers so the location service can infer.
    std::vector<wireless::Receiver> receivers;
    for (wireless::ReceiverId id = 1; id <= 4; ++id) {
      receivers.push_back({id, {250.0 * static_cast<double>(id) - 125.0, 0}, 150});
    }
    location.set_receiver_layout(receivers);
  }

  void observe(SensorId sensor, wireless::ReceiverId receiver, double rssi = -40.0) {
    for (int i = 0; i < 3; ++i) {  // 3 distinct copies max confidence
      location.observe(ReceptionEvent{sensor, receiver, rssi, scheduler.now()});
    }
  }
};

TEST_F(ReplicatorFixture, FloodsWithoutEstimate) {
  const auto report = replicator.send(7, util::Bytes(8));
  EXPECT_FALSE(report.targeted);
  EXPECT_EQ(report.transmitters_used, 4u);
  EXPECT_EQ(counter("garnet.replicator.flooded_sends"), 1u);
}

TEST_F(ReplicatorFixture, TargetsSubsetWithEstimate) {
  observe(7, 1);
  observe(7, 1);  // heard only by receiver 1 at x=125
  const auto report = replicator.send(7, util::Bytes(8));
  EXPECT_TRUE(report.targeted);
  EXPECT_LT(report.transmitters_used, 4u);
  EXPECT_GE(report.transmitters_used, 1u);
  EXPECT_EQ(counter("garnet.replicator.targeted_sends"), 1u);
}

TEST_F(ReplicatorFixture, LowConfidenceEstimateTreatedAsAbsent) {
  // A single stale-ish observation below the confidence threshold.
  MessageReplicator picky(medium, location,
                          {.min_confidence = 0.9, .margin_m = 25.0});
  location.observe(ReceptionEvent{7, 1, -40.0, scheduler.now()});  // conf 1/3
  const auto report = picky.send(7, util::Bytes(8));
  EXPECT_FALSE(report.targeted);
  EXPECT_EQ(report.transmitters_used, 4u);
}

TEST_F(ReplicatorFixture, EmptySelectionDegradesToFlood) {
  // Estimate far outside every transmitter's reach: replicator must
  // flood rather than silently send nothing.
  location.hint({7, 5000.0, 5000.0, 10.0}, scheduler.now());
  const auto report = replicator.send(7, util::Bytes(8));
  EXPECT_FALSE(report.targeted);
  EXPECT_EQ(report.transmitters_used, 4u);
  EXPECT_EQ(counter("garnet.replicator.flooded_sends"), 1u);
}

TEST_F(ReplicatorFixture, WideUncertaintySelectsMoreTransmitters) {
  location.hint({7, 500.0, 0.0, 30.0}, scheduler.now());
  const auto tight = replicator.send(7, util::Bytes(8));

  location.hint({8, 500.0, 0.0, 400.0}, scheduler.now());
  const auto wide = replicator.send(8, util::Bytes(8));

  EXPECT_TRUE(tight.targeted);
  EXPECT_TRUE(wide.targeted);
  EXPECT_GT(wide.transmitters_used, tight.transmitters_used);
}

TEST_F(ReplicatorFixture, StatsAccumulateAcrossSends) {
  observe(7, 2);
  (void)replicator.send(7, util::Bytes(8));
  (void)replicator.send(9, util::Bytes(8));  // unknown: flood
  EXPECT_EQ(counter("garnet.replicator.sends"), 2u);
  EXPECT_EQ(counter("garnet.replicator.targeted_sends"), 1u);
  EXPECT_EQ(counter("garnet.replicator.flooded_sends"), 1u);
  EXPECT_GT(counter("garnet.replicator.transmitter_activations"), 4u);
}

TEST_F(ReplicatorFixture, CopiesScheduledCountsEndpoints) {
  medium.add_downlink_endpoint({7, [] { return sim::Vec2{125, 0}; },
                                [](util::BytesView) {}});
  observe(7, 1);
  const auto report = replicator.send(7, util::Bytes(8));
  EXPECT_GE(report.copies_scheduled, 1u);
  EXPECT_EQ(counter("garnet.replicator.copies_scheduled"), report.copies_scheduled);
}

}  // namespace
}  // namespace garnet::core
