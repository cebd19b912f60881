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
  std::vector<std::uint64_t> deliveries;  // (stream, seq, heard, delivered) hashes
  std::uint64_t radio_frames = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t acks = 0;
  std::uint64_t prearm_hits = 0;

  bool operator==(const Trace&) const = default;
};

/// `tied` removes the bus's latency jitter and adds a second firehose
/// consumer: every fan-out then posts its two copies for the same instant,
/// so the delivery order depends on the scheduler's tie-break.
Trace run_full_scenario(std::uint64_t seed, bool tied = false) {
  Runtime::Config config;
  if (tied) config.bus.max_jitter = Duration::nanos(0);
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
    h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(runtime.scheduler().now().ns);
    trace.deliveries.push_back(h);
  });
  consumer.subscribe(core::StreamPattern::everything());
  core::Consumer mirror(runtime.bus(), "consumer.mirror");
  if (tied) {
    runtime.provision(mirror, "mirror");
    mirror.set_data_handler([&](const core::DeliveryView& delivery) {
      trace.deliveries.push_back(~(delivery.message.sequence * 0x9E3779B97F4A7C15ull +
                                   static_cast<std::uint64_t>(runtime.scheduler().now().ns)));
    });
    mirror.subscribe(core::StreamPattern::everything());
  }
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

// DeterminismProperty compares two runs of one build, so an event queue
// that broke (at, seq) ties differently, but the same way every time,
// would pass it. These pin seed 1's delivery order across builds: the
// count, an order-sensitive fold of the delivery hashes, and the radio
// frame and duplicate counts. Bus jitter makes exact ties rare in the
// default scenario; the tied one makes every fan-out a tie.
std::uint64_t fold(const Trace& trace) {
  std::uint64_t h = 0;
  for (const std::uint64_t d : trace.deliveries) h = h * 0x100000001B3ull ^ d;
  return h;
}

TEST(Determinism, SeedOneDeliveryOrderIsPinned) {
  const Trace trace = run_full_scenario(1);
  EXPECT_EQ(trace.deliveries.size(), 417u);
  EXPECT_EQ(fold(trace), 16005780433984662358ull);
  EXPECT_EQ(trace.radio_frames, 419u);
  EXPECT_EQ(trace.duplicates, 823u);
}

TEST(Determinism, SeedOneTiedDeliveryOrderIsPinned) {
  const Trace trace = run_full_scenario(1, /*tied=*/true);
  EXPECT_EQ(trace.deliveries.size(), 830u);
  EXPECT_EQ(fold(trace), 11555734494427600083ull);
  EXPECT_EQ(trace.radio_frames, 419u);
  EXPECT_EQ(trace.duplicates, 833u);
}

TEST(Determinism, DifferentSeedsDiverge) {
  const Trace a = run_full_scenario(1);
  const Trace b = run_full_scenario(2);
  EXPECT_NE(a.deliveries, b.deliveries);
}

}  // namespace
}  // namespace garnet
