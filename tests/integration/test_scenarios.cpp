// Scenario regression tests: the headline behaviours the example
// programs demonstrate, pinned as assertions so they cannot silently
// regress. Each test is a compressed version of one example.
#include <gtest/gtest.h>

#include "crypto/sealed.hpp"
#include "garnet/runtime.hpp"

namespace garnet {
namespace {

using util::Duration;

// --- water_course: predictive admission collapses after training -----------

TEST(Scenarios, WaterCoursePredictionCollapsesAdmissionLatency) {
  Runtime::Config config;
  config.field.area = {{0, 0}, {2000, 400}};
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  config.resource.evaluation_delay = Duration::millis(25);
  Runtime runtime(config);
  runtime.deploy_receivers(6, 500);
  runtime.deploy_transmitters(6, 600);

  wireless::SensorNode::Config gauge;
  gauge.id = 2;
  gauge.capabilities.receive_capable = true;
  wireless::StreamSpec level;
  level.interval_ms = 2000;
  level.constraints = {.min_interval_ms = 100, .max_interval_ms = 60000, .max_payload = 64};
  gauge.streams.push_back(level);
  runtime.deploy_sensor(std::move(gauge),
                        std::make_unique<sim::StaticMobility>(sim::Vec2{1000, 200}))
      .start();

  core::Consumer watch(runtime.bus(), "consumer.flood-watch");
  runtime.provision(watch, "flood-watch", 200, core::TrustLevel::kTrusted);
  runtime.coordinator().add_rule(
      {"flood-watch", 3, {2, 0}, core::UpdateAction::kSetIntervalMs, 100});

  std::vector<double> latencies_ms;
  for (int cycle = 0; cycle < 6; ++cycle) {
    watch.report_state(1);
    runtime.run_for(Duration::seconds(30));
    watch.report_state(2);
    runtime.run_for(Duration::seconds(30));
    watch.report_state(3);
    runtime.run_for(Duration::millis(5));

    const util::SimTime asked = runtime.scheduler().now();
    double latency = -1;
    watch.request_update({2, 0}, core::UpdateAction::kSetIntervalMs, 100,
                         [&](std::uint32_t, core::Admission, std::uint32_t) {
                           latency = (runtime.scheduler().now() - asked).to_millis();
                         });
    runtime.run_for(Duration::seconds(20));
    ASSERT_GE(latency, 0.0) << "cycle " << cycle;
    latencies_ms.push_back(latency);

    watch.request_update({2, 0}, core::UpdateAction::kSetIntervalMs, 2000, {});
    runtime.run_for(Duration::seconds(30));
  }

  // Untrained cycles pay the full deliberation; trained cycles must not.
  EXPECT_GT(latencies_ms[0], 25.0);
  EXPECT_GT(latencies_ms[2], 25.0);
  EXPECT_LT(latencies_ms[4], 5.0);  // trained by the 4th flood
  EXPECT_LT(latencies_ms[5], 5.0);
  EXPECT_GE(runtime.resource().stats().prearm_hits, 2u);
}

// --- military_recon: opacity of sealed payloads -----------------------------

TEST(Scenarios, SealedPayloadsOpaqueToMiddlewareAndKeyless) {
  Runtime::Config config;
  config.field.area = {{0, 0}, {400, 400}};
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  Runtime runtime(config);
  runtime.deploy_receivers(4, 400);

  const crypto::Key key = crypto::key_from_seed(0x5EC7E7);
  wireless::SensorNode::Config sensor;
  sensor.id = 1;
  wireless::StreamSpec acoustic;
  acoustic.interval_ms = 200;
  acoustic.constraints.max_payload = 96;
  acoustic.generate = [key, seq = std::uint64_t{0}](util::SimTime, util::Rng& rng) mutable {
    util::ByteWriter w(8);
    w.f64(rng.normal(30.0, 4.0));
    return crypto::seal(key, crypto::nonce_from_counter((1ull << 32) | (seq++ & 0xFFFF)),
                        w.view());
  };
  sensor.streams.push_back(acoustic);
  runtime.deploy_sensor(std::move(sensor),
                        std::make_unique<sim::StaticMobility>(sim::Vec2{200, 200}))
      .start();

  core::Consumer intel(runtime.bus(), "consumer.intel");
  core::Consumer observer(runtime.bus(), "consumer.observer");
  runtime.provision(intel, "intel");
  runtime.provision(observer, "observer");

  std::size_t intel_opened = 0;
  intel.set_data_handler([&](const core::DeliveryView& d) {
    const auto nonce = crypto::nonce_from_counter((1ull << 32) | d.message.sequence);
    if (crypto::open(key, nonce, d.message.payload).ok()) ++intel_opened;
  });
  std::size_t observer_opened = 0;
  std::size_t observer_received = 0;
  observer.set_data_handler([&](const core::DeliveryView& d) {
    ++observer_received;
    const auto nonce = crypto::nonce_from_counter((1ull << 32) | d.message.sequence);
    if (crypto::open(crypto::key_from_seed(0xBAD), nonce, d.message.payload).ok()) {
      ++observer_opened;
    }
  });
  intel.subscribe(core::StreamPattern::all_of(1));
  observer.subscribe(core::StreamPattern::all_of(1));
  runtime.run_for(Duration::millis(20));
  runtime.run_for(Duration::seconds(10));

  EXPECT_GT(observer_received, 30u);       // middleware serves both equally
  EXPECT_EQ(observer_opened, 0u);          // ...but ciphertext stays ciphertext
  EXPECT_EQ(intel_opened, observer_received);
}

// --- habitat: late discovery + orphanage handoff ----------------------------

TEST(Scenarios, LateConsumerDiscoversAndClaimsBacklog) {
  Runtime::Config config;
  config.field.area = {{0, 0}, {400, 400}};
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  config.orphanage.retention_per_stream = 16;
  Runtime runtime(config);
  runtime.deploy_receivers(4, 400);
  wireless::SensorField::PopulationSpec spec;
  spec.count = 2;
  spec.interval_ms = 200;
  runtime.deploy_population(spec);

  // Nobody is listening for 5 seconds: everything orphans.
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(5));
  EXPECT_GT(runtime.orphanage().total_received(), 20u);

  // A late consumer discovers the auto-detected streams over RPC and
  // claims the retained backlog before going live.
  core::Consumer late(runtime.bus(), "consumer.late");
  runtime.provision(late, "late");
  std::vector<core::StreamInfo> found;
  late.discover({.sensor = std::nullopt, .stream_class = "", .include_unadvertised = true},
                [&](std::vector<core::StreamInfo> streams) { found = std::move(streams); });
  runtime.run_for(Duration::millis(20));
  ASSERT_EQ(found.size(), 2u);

  std::size_t backlog = 0;
  for (const core::StreamInfo& info : found) {
    backlog += runtime.orphanage().claim(info.id).size();
    late.subscribe(core::StreamPattern::exact(info.id));
  }
  EXPECT_EQ(backlog, 32u);  // 16 retained per stream

  runtime.run_for(Duration::seconds(5));
  EXPECT_GT(late.received(), 20u);  // live data flows after the claim
}

}  // namespace
}  // namespace garnet
