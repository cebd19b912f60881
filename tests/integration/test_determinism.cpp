// Determinism is the reproduction's measurement foundation: a seed fully
// determines every radio loss, every mobility path, every jitter draw
// and every service decision. These properties run the FULL system and
// compare complete event traces.
#include <gtest/gtest.h>

#include "garnet/runtime.hpp"

namespace garnet {
namespace {

using util::Duration;

/// A compact fingerprint of everything observable in one run.
struct Trace {
  std::vector<std::uint64_t> deliveries;  // (stream, seq, time) hashes
  std::uint64_t radio_frames = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t acks = 0;
  std::uint64_t prearm_hits = 0;

  bool operator==(const Trace&) const = default;
};

Trace run_full_scenario(std::uint64_t seed) {
  Runtime::Config config;
  config.field.area = {{0, 0}, {700, 700}};
  config.field.seed = seed;
  config.field.radio.base_loss = 0.08;
  config.field.radio.edge_loss = 0.25;
  Runtime runtime(config);
  runtime.deploy_receivers(9, 280);
  runtime.deploy_transmitters(4, 400);

  wireless::SensorField::PopulationSpec population;
  population.count = 6;
  population.interval_ms = 300;
  runtime.deploy_population(population);

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  Trace trace;
  consumer.set_data_handler([&](const core::DeliveryView& delivery) {
    std::uint64_t h = delivery.message.stream_id.packed();
    h = h * 0x9E3779B97F4A7C15ull + delivery.message.sequence;
    h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(delivery.first_heard.ns);
    trace.deliveries.push_back(h);
  });
  consumer.subscribe(core::StreamPattern::everything());
  runtime.run_for(Duration::millis(20));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(10));

  // Exercise the control path too.
  consumer.report_state(1);
  consumer.request_update({1, 0}, core::UpdateAction::kSetIntervalMs, 150, {});
  runtime.run_for(Duration::seconds(10));

  trace.radio_frames = runtime.telemetry().registry.snapshot().counter("garnet.radio.uplink_frames");
  trace.duplicates = runtime.filtering().stats().duplicates_dropped;
  trace.acks = runtime.actuation().stats().acked;
  trace.prearm_hits = runtime.resource().stats().prearm_hits;
  return trace;
}

class DeterminismProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismProperty, IdenticalSeedsIdenticalTraces) {
  const Trace first = run_full_scenario(GetParam());
  const Trace second = run_full_scenario(GetParam());
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.deliveries.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperty,
                         ::testing::Values(1u, 42u, 0xDEADBEEFu, 31337u));

TEST(Determinism, DifferentSeedsDiverge) {
  const Trace a = run_full_scenario(1);
  const Trace b = run_full_scenario(2);
  EXPECT_NE(a.deliveries, b.deliveries);
}

}  // namespace
}  // namespace garnet
