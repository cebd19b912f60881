// Runtime facade: deployment helpers, wiring, and the status report.
#include "garnet/runtime.hpp"

#include <gtest/gtest.h>

#include "core/message.hpp"
#include "garnet/report.hpp"

namespace garnet {
namespace {

using util::Duration;

TEST(Runtime, DefaultConstructible) {
  Runtime runtime;
  EXPECT_EQ(runtime.scheduler().now(), util::SimTime::zero());
  EXPECT_EQ(runtime.field().sensor_count(), 0u);
}

TEST(Runtime, DeployReceiversInformsLocationService) {
  Runtime runtime;
  runtime.deploy_receivers(9, 200);
  // Location service knows the layout: observations on those receivers
  // produce estimates.
  runtime.location().observe(core::ReceptionEvent{7, 1, -40.0, runtime.scheduler().now()});
  EXPECT_TRUE(runtime.location().estimate(7).has_value());
}

TEST(Runtime, DeployPopulationRegistersProfiles) {
  Runtime runtime;
  wireless::SensorField::PopulationSpec spec;
  spec.first_id = 5;
  spec.count = 3;
  spec.constraints = {.min_interval_ms = 200, .max_interval_ms = 5000, .max_payload = 32};
  runtime.deploy_population(spec);

  core::Consumer consumer(runtime.bus(), "consumer.x");
  runtime.provision(consumer, "x");
  // The Resource Manager clamps to the registered profile.
  const core::Decision d = runtime.resource().evaluate_now(
      consumer.identity().token, {5, 0}, core::UpdateAction::kSetIntervalMs, 1);
  EXPECT_EQ(d.admission, core::Admission::kModified);
  EXPECT_EQ(d.effective_value, 200u);
}

TEST(Runtime, DeploySensorRegistersAllStreams) {
  Runtime runtime;
  wireless::SensorNode::Config config;
  config.id = 9;
  config.capabilities.receive_capable = true;
  wireless::StreamSpec a;
  a.id = 0;
  a.constraints.min_interval_ms = 100;
  wireless::StreamSpec b;
  b.id = 3;
  b.constraints.min_interval_ms = 700;
  config.streams = {a, b};
  runtime.deploy_sensor(std::move(config),
                        std::make_unique<sim::StaticMobility>(sim::Vec2{1, 1}));

  core::Consumer consumer(runtime.bus(), "consumer.x");
  runtime.provision(consumer, "x");
  EXPECT_EQ(runtime.resource()
                .evaluate_now(consumer.identity().token, {9, 3},
                              core::UpdateAction::kSetIntervalMs, 1)
                .effective_value,
            700u);
}

TEST(Runtime, ProvisionAppliesRequestedTrust) {
  Runtime runtime;
  core::Consumer consumer(runtime.bus(), "consumer.ops");
  const auto identity = runtime.provision(consumer, "ops", 150, core::TrustLevel::kTrusted);
  EXPECT_EQ(identity.trust, core::TrustLevel::kTrusted);
  EXPECT_EQ(identity.priority, 150);
}

TEST(Runtime, CreateDerivedStreamAdvertises) {
  Runtime runtime;
  const core::StreamId id = runtime.create_derived_stream("alerts", "alert");
  const core::StreamInfo* info = runtime.catalog().find(id);
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->advertised);
  EXPECT_TRUE(info->derived);
  EXPECT_EQ(info->name, "alerts");
}

TEST(Runtime, LocationStreamDisabledByDefault) {
  Runtime runtime;
  EXPECT_FALSE(runtime.location_stream().has_value());
}

TEST(RuntimeReport, SnapshotAndRenderCoverServices) {
  Runtime::Config config;
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  Runtime runtime(config);
  runtime.deploy_receivers(4, 400);
  wireless::SensorField::PopulationSpec spec;
  spec.count = 2;
  spec.interval_ms = 200;
  runtime.deploy_population(spec);

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::all_of(1));
  runtime.run_for(Duration::millis(20));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(5));

  const RuntimeReport report = snapshot(runtime);
  EXPECT_GT(report.value("garnet.radio.uplink_frames"), 0u);
  EXPECT_GT(report.value("garnet.filtering.messages_out"), 0u);
  EXPECT_GT(report.value("garnet.dispatch.copies_delivered"), 0u);
  EXPECT_EQ(report.value("garnet.field.sensors"), 2u);
  EXPECT_EQ(report.value("garnet.dispatch.subscriptions"), 1u);
  EXPECT_GT(report.value("garnet.orphanage.messages"), 0u);  // sensor 2 unclaimed

  const std::string text = report.render();
  EXPECT_NE(text.find("radio"), std::string::npos);
  EXPECT_NE(text.find("filtering"), std::string::npos);
  EXPECT_NE(text.find("governance"), std::string::npos);
  EXPECT_NE(text.find("uplink frames"), std::string::npos);
  EXPECT_NE(text.find("stage latency"), std::string::npos);

  // The machine-readable expositions carry the same snapshot.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"garnet.radio.uplink_frames\""), std::string::npos);
  EXPECT_NE(json.find("\"traces\""), std::string::npos);
  const std::string prom = report.to_prometheus();
  EXPECT_NE(prom.find("garnet_radio_uplink_frames"), std::string::npos);
}

TEST(Runtime, DeprovisionRevokesEverything) {
  Runtime::Config config;
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  Runtime runtime(config);
  runtime.deploy_receivers(4, 400);
  wireless::SensorField::PopulationSpec spec;
  spec.count = 1;
  spec.interval_ms = 100;
  runtime.deploy_population(spec);

  core::Consumer consumer(runtime.bus(), "consumer.leaver");
  runtime.provision(consumer, "leaver");
  consumer.subscribe(core::StreamPattern::all_of(1));
  runtime.run_for(Duration::millis(20));
  runtime.resource().evaluate_now(consumer.identity().token, {1, 0},
                                  core::UpdateAction::kSetIntervalMs, 100);

  runtime.start_sensors();
  runtime.run_for(Duration::seconds(1));
  EXPECT_GT(consumer.received(), 0u);
  const std::uint64_t at_leave = consumer.received();

  runtime.deprovision(consumer);
  runtime.run_for(Duration::seconds(2));

  EXPECT_EQ(consumer.received(), at_leave);  // no more deliveries
  EXPECT_FALSE(runtime.auth().verify(consumer.identity().token).has_value());
  // New subscriptions fail with the revoked token.
  std::optional<bool> ok;
  consumer.subscribe(core::StreamPattern::everything(), [&](auto result) { ok = result.ok(); });
  runtime.run_for(Duration::millis(100));
  EXPECT_EQ(ok, false);
}

TEST(Runtime, RunForAdvancesVirtualTime) {
  Runtime runtime;
  runtime.run_for(Duration::seconds(90));
  EXPECT_EQ(runtime.scheduler().now().to_seconds(), 90.0);
}

TEST(RuntimeAdmission, CreditWindowTracksTheProbedPoolSize) {
  // PR-4 ledger derivation: with admission enabled the dispatch credit
  // window is no longer the hand-tuned constant but follows the probed
  // data-pool size through the resize listener.
  Runtime::Config config;
  config.flow.credit_window = 16;
  config.admission.enabled = true;
  config.admission.probing = true;
  config.admission.probe.initial_concurrency = 8;
  config.admission.probe.min_concurrency = 2;
  config.admission.probe.max_concurrency = 16;
  config.admission.probe.interval = Duration::millis(5);
  Runtime runtime(config);

  // A trickle far below the pool's admission rate: the prober learns the
  // concurrency is unneeded and walks the pool down to the floor.
  core::DataMessage msg;
  msg.stream_id = {9, 0};
  msg.payload = util::to_bytes("x");
  for (int i = 0; i < 60; ++i) {
    msg.sequence = static_cast<core::SequenceNo>(i);
    runtime.inject_external(core::as_view(msg));
    runtime.run_for(Duration::millis(5));
  }

  ASSERT_NE(runtime.admission(), nullptr);
  EXPECT_EQ(runtime.admission()->data_pool_size(), 2u);
  EXPECT_GT(runtime.admission()->stats().resizes, 0u);
  EXPECT_EQ(runtime.admission()->derived_credit_window(), 2u);
  // The ledger saw every committed resize: a sender with no credit
  // history is granted the derived window, not the configured 16.
  const net::Address fresh = runtime.bus().add_endpoint("test.fresh", [](net::Envelope) {});
  EXPECT_EQ(runtime.dispatch().credits(fresh), 2u);
  EXPECT_EQ(runtime.external_in(), 60u);  // the trickle itself never gated
}

}  // namespace
}  // namespace garnet
