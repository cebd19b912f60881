// Overload-path fuzzing: bounded inboxes, the RPC layer and the
// admission gate must survive truncated, oversized and hostile frames
// arriving at endpoints whose queues are already full. Seeded
// pseudo-fuzzing keeps every run deterministic (same contract as
// test_robustness.cpp).
#include <gtest/gtest.h>

#include "garnet/runtime.hpp"
#include "net/rpc.hpp"

namespace garnet {
namespace {

using util::Duration;

util::Bytes fuzz_frame(util::Rng& rng) {
  // Mostly short/truncated frames, occasionally oversized ones — the
  // inbox and RPC parsers must cope with both extremes.
  const std::size_t len = rng.below(8) == 0 ? 512 + rng.below(4096) : rng.below(16);
  util::Bytes out(len);
  for (auto& b : out) b = static_cast<std::byte>(rng.next());
  return out;
}

class OverloadFuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverloadFuzzSeeds, FullInboxSurvivesHostileFramesUnderEveryPolicy) {
  util::Rng rng(GetParam());
  for (const auto policy : {net::OverflowPolicy::kDropNewest, net::OverflowPolicy::kDropOldest}) {
    sim::Scheduler scheduler;
    net::MessageBus::Config config;
    config.max_jitter = Duration{};
    net::InboxConfig inbox;
    inbox.capacity = 4;
    inbox.policy = policy;
    inbox.service_time = Duration::millis(1);  // far slower than the flood
    config.inboxes["victim"] = inbox;
    net::MessageBus bus(scheduler, config);

    std::uint64_t handled = 0;
    const net::Address victim = bus.add_endpoint("victim", [&](net::Envelope) { ++handled; });
    const net::Address attacker = bus.add_endpoint("attacker", [](net::Envelope) {});

    for (int i = 0; i < 2000; ++i) {
      // Random type tag: substrate framing (kRpcRequest/kRpcResponse),
      // unassigned substrate tags and app types alike, zero-length
      // frames included, all against a full queue.
      const auto type = static_cast<net::MessageType>(rng.below(120));
      bus.post(attacker, victim, type, fuzz_frame(rng));
      if (i % 200 == 0) scheduler.run_until(scheduler.now() + Duration::millis(5));
    }
    scheduler.run();

    // The queue stayed bounded and the accounting stayed coherent:
    // everything posted was either handled or shed (the fault-free bus
    // loses nothing silently).
    const auto& shed = bus.shed_stats();
    EXPECT_EQ(handled + shed.data_total() + shed.control_total(), 2000u);
    EXPECT_EQ(bus.inbox_depth(victim), 0u);
  }
}

TEST_P(OverloadFuzzSeeds, RpcNodeSurvivesForgedSubstrateFramesAndStillCompletesCalls) {
  util::Rng rng(GetParam());
  sim::Scheduler scheduler;
  net::MessageBus::Config config;
  config.max_jitter = Duration{};
  net::MessageBus bus(scheduler, config);

  net::RpcNode server(bus, "server");
  net::RpcNode client(bus, "client");
  server.expose(1, [](net::Address, util::BytesView) -> net::RpcResult {
    return util::to_bytes("ok");
  });
  const net::Address attacker = bus.add_endpoint("attacker", [](net::Envelope) {});

  // Forged/truncated RPC framing plus frames of the unassigned substrate
  // type 3, aimed at a client with calls in flight: none may complete a
  // call it does not own.
  std::uint64_t succeeded = 0;
  net::CallOptions options;
  options.timeout = Duration::millis(50);
  for (int i = 0; i < 200; ++i) {
    client.call(server.address(), 1, {}, options, [&](net::RpcResult result) {
      if (result.ok()) ++succeeded;
    });
    for (int j = 0; j < 10; ++j) {
      const auto type = static_cast<net::MessageType>(1 + rng.below(3));  // request/response/3
      bus.post(attacker, client.address(), type, fuzz_frame(rng));
      bus.post(attacker, server.address(), type, fuzz_frame(rng));
    }
    if (i % 20 == 0) scheduler.run_until(scheduler.now() + Duration::millis(5));
  }
  scheduler.run();

  // Every real call still completed against the live server.
  EXPECT_EQ(succeeded, 200u);
}

TEST_P(OverloadFuzzSeeds, RuntimeUnderOverloadSurvivesHostileEnvelopes) {
  // Full stack with flow control on and bounded service inboxes, then the
  // hostile-envelope barrage from test_robustness aimed at the dispatcher
  // — including random kDeliveryCredit frames from an unknown sender,
  // which must be ignored rather than minting credit state.
  Runtime::Config config;
  config.flow.credit_window = 16;
  {
    net::InboxConfig inbox;
    inbox.capacity = 32;
    inbox.policy = net::OverflowPolicy::kDropOldest;
    inbox.service_time = Duration::micros(50);
    config.bus.inboxes[core::DispatchingService::kEndpointName] = inbox;
    config.bus.inboxes[core::Orphanage::kEndpointName] = inbox;
  }
  Runtime runtime(config);
  runtime.deploy_receivers(4, 300);
  runtime.deploy_transmitters(4, 300);
  wireless::SensorField::PopulationSpec spec;
  spec.count = 2;
  runtime.deploy_population(spec);
  runtime.start_sensors();

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::everything());
  runtime.run_for(Duration::millis(20));

  util::Rng rng(GetParam());
  const net::Address attacker = runtime.bus().add_endpoint("attacker", [](net::Envelope) {});
  const auto dispatch = runtime.bus().lookup(core::DispatchingService::kEndpointName);
  ASSERT_TRUE(dispatch.has_value());

  for (int i = 0; i < 1500; ++i) {
    const auto type = static_cast<net::MessageType>(rng.below(120));
    runtime.bus().post(attacker, *dispatch, type, fuzz_frame(rng));
    if (i % 100 == 0) runtime.run_for(Duration::millis(50));
  }
  runtime.run_for(Duration::seconds(5));

  // The data plane survived the barrage...
  EXPECT_GT(consumer.received(), 0u);
  // ...and hostile credit frames minted no flow state for the attacker.
  EXPECT_FALSE(runtime.dispatch().quarantined(attacker));
  EXPECT_EQ(runtime.dispatch().credits(attacker), 16u);  // "unknown" default
}

TEST_P(OverloadFuzzSeeds, SaturatedAdmissionGateSurvivesHostileEnvelopes) {
  // A barrage of forged, truncated and oversized data-class envelopes
  // (the retired admission wire tags app_type(8)/(9) included) aimed at
  // the dispatcher's full inbox while a real ingest flood keeps the
  // probed data pool saturated: the gate must not leak tickets, and the
  // barrage must not cost the real control traffic (consumer credits) a
  // single shed. Forged control frames are left out: once an inbox holds
  // nothing but control, shedding one is the policy, not a fault.
  Runtime::Config config;
  config.flow.credit_window = 16;
  {
    net::InboxConfig inbox;
    inbox.capacity = 32;
    inbox.policy = net::OverflowPolicy::kDropOldest;
    inbox.service_time = Duration::micros(50);
    config.bus.inboxes[core::DispatchingService::kEndpointName] = inbox;
  }
  config.admission.enabled = true;
  config.admission.probing = true;
  config.admission.probe.initial_concurrency = 4;
  config.admission.probe.min_concurrency = 2;
  config.admission.probe.max_concurrency = 16;
  config.admission.probe.interval = Duration::millis(5);
  config.admission.probe.lease = Duration::micros(500);
  Runtime runtime(config);
  runtime.deploy_receivers(4, 300);
  runtime.deploy_transmitters(4, 300);
  wireless::SensorField::PopulationSpec spec;
  spec.count = 2;
  runtime.deploy_population(spec);
  runtime.start_sensors();

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::everything());
  runtime.run_for(Duration::millis(20));

  util::Rng rng(GetParam());
  const net::Address attacker = runtime.bus().add_endpoint("attacker", [](net::Envelope) {});
  const auto dispatch = runtime.bus().lookup(core::DispatchingService::kEndpointName);
  ASSERT_TRUE(dispatch.has_value());

  core::DataMessage flood;
  flood.stream_id = {200, 0};
  flood.payload = util::to_bytes("x");
  for (int i = 0; i < 1000; ++i) {
    // Real ingress pressure so the hostile envelopes land on a full pool.
    flood.sequence = static_cast<core::SequenceNo>(i);
    for (int burst = 0; burst < 4; ++burst) runtime.inject_external(core::as_view(flood));
    const auto type = net::app_type(static_cast<std::uint16_t>(rng.below(20)));
    if (runtime.bus().classify(type) == net::TrafficClass::kData) {
      runtime.bus().post(attacker, *dispatch, type, fuzz_frame(rng));
    }
    if (i % 100 == 0) runtime.run_for(Duration::millis(5));
  }
  runtime.run_for(Duration::seconds(2));

  ASSERT_NE(runtime.admission(), nullptr);
  const net::AdmissionStats& stats = runtime.admission()->stats();
  EXPECT_GT(stats.data_rejected, 0u);                      // the pool was saturated
  EXPECT_GT(runtime.bus().shed_stats().data_total(), 0u);  // and the inbox full
  // No leak: holders are bounded by the largest pool the prober may set.
  EXPECT_LE(runtime.admission()->data_pool().holders(),
            config.admission.probe.max_concurrency);
  // The data plane survived the barrage and control was never starved.
  EXPECT_GT(consumer.received(), 0u);
  EXPECT_EQ(runtime.bus().shed_stats().control_total(), 0u);
  // With every lease long expired, the pool drains to exactly the one
  // ticket this admission takes: nothing was wedged open.
  const auto far_future = util::SimTime::zero() + Duration::seconds(100);
  EXPECT_TRUE(runtime.admission()->admit_data(far_future));
  EXPECT_EQ(runtime.admission()->data_pool().holders(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadFuzzSeeds, ::testing::Values(0xAAAAu, 0xBBBBu, 0xCCCCu));

}  // namespace
}  // namespace garnet
