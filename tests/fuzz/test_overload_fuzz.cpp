// Overload-path fuzzing: bounded inboxes and the NACK machinery must
// survive truncated, oversized and hostile frames arriving at endpoints
// whose queues are already full. Seeded pseudo-fuzzing keeps every run
// deterministic (same contract as test_robustness.cpp).
#include <gtest/gtest.h>

#include "garnet/runtime.hpp"
#include "net/rpc.hpp"

namespace garnet {
namespace {

using util::Duration;

util::Bytes fuzz_frame(util::Rng& rng) {
  // Mostly short/truncated frames, occasionally oversized ones — the
  // inbox, NACK echo and RPC parsers must cope with both extremes.
  const std::size_t len = rng.below(8) == 0 ? 512 + rng.below(4096) : rng.below(16);
  util::Bytes out(len);
  for (auto& b : out) b = static_cast<std::byte>(rng.next());
  return out;
}

class OverloadFuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverloadFuzzSeeds, FullInboxSurvivesHostileFramesUnderEveryPolicy) {
  util::Rng rng(GetParam());
  for (const auto policy : {net::OverflowPolicy::kDropNewest, net::OverflowPolicy::kDropOldest,
                            net::OverflowPolicy::kRejectNack}) {
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
      // Random type tag: substrate framing (kRpcRequest/kRpcResponse/
      // kNack) and app types alike, so NACK echoes of NACK-typed and
      // zero-length frames are all exercised against a full queue.
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
    if (policy == net::OverflowPolicy::kRejectNack) {
      // NACKs echo only for types that are themselves not kNack.
      EXPECT_LE(shed.nacks_sent, shed.data_total() + shed.control_total());
    } else {
      EXPECT_EQ(shed.nacks_sent, 0u);
    }
  }
}

TEST_P(OverloadFuzzSeeds, RpcNodeSurvivesForgedNacksAndStillCompletesCalls) {
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

  // Forged/truncated NACKs (plus random RPC framing) aimed at a client
  // with calls in flight: none may complete a call it does not own.
  std::uint64_t succeeded = 0;
  net::CallOptions options;
  options.timeout = Duration::millis(50);
  for (int i = 0; i < 200; ++i) {
    client.call(server.address(), 1, {}, options, [&](net::RpcResult result) {
      if (result.ok()) ++succeeded;
    });
    for (int j = 0; j < 10; ++j) {
      const auto type = static_cast<net::MessageType>(1 + rng.below(3));  // request/response/nack
      bus.post(attacker, client.address(), type, fuzz_frame(rng));
      bus.post(attacker, server.address(), type, fuzz_frame(rng));
    }
    if (i % 20 == 0) scheduler.run_until(scheduler.now() + Duration::millis(5));
  }
  scheduler.run();

  // A forged NACK never matches a pending call (the callee-address check),
  // so every real call still completed against the live server.
  EXPECT_EQ(succeeded, 200u);
  EXPECT_EQ(bus.rpc_stats().nacked, 0u);
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

TEST_P(OverloadFuzzSeeds, AdmissionWireSurfaceSurvivesForgedFramesAtFullInboxes) {
  // The admission gate's wire surface (kAdmissionRelease/kGoodputReport)
  // under a barrage of forged, truncated and oversized frames while the
  // data pool is kept saturated by a real ingest flood: the gate must
  // neither crash, nor leak tickets, nor let the forgery starve the
  // control class.
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
  const auto gate_addr = runtime.bus().lookup("admission");
  ASSERT_TRUE(gate_addr.has_value());

  core::DataMessage flood;
  flood.stream_id = {200, 0};
  flood.payload = util::to_bytes("x");
  for (int i = 0; i < 1000; ++i) {
    // Real ingress pressure so the forged frames land on a full pool...
    flood.sequence = static_cast<core::SequenceNo>(i);
    for (int burst = 0; burst < 4; ++burst) runtime.inject_external(core::as_view(flood));
    // ...interleaved with hostile admission traffic: well-formed frames
    // carrying absurd values, and raw garbage in both frame types.
    switch (rng.below(4)) {
      case 0: {
        util::ByteWriter w(4);
        w.u32(static_cast<std::uint32_t>(rng.below(1u << 30)));
        runtime.bus().post(attacker, *gate_addr, core::kAdmissionRelease, std::move(w).take());
        break;
      }
      case 1: {
        util::ByteWriter w(16);
        w.u64(rng.next());
        w.u64(rng.next());
        runtime.bus().post(attacker, *gate_addr, core::kGoodputReport, std::move(w).take());
        break;
      }
      case 2:
        runtime.bus().post(attacker, *gate_addr, core::kAdmissionRelease, fuzz_frame(rng));
        break;
      default:
        runtime.bus().post(attacker, *gate_addr, core::kGoodputReport, fuzz_frame(rng));
        break;
    }
    if (i % 100 == 0) runtime.run_for(Duration::millis(5));
  }
  runtime.run_for(Duration::seconds(2));

  ASSERT_NE(runtime.admission(), nullptr);
  const net::AdmissionStats& stats = runtime.admission()->stats();
  // No ticket fabrication: every wire release popped a lease some real
  // admission created, so releases can never exceed admissions.
  EXPECT_LE(stats.wire_releases, stats.data_admitted);
  // No leak: holders are bounded by the largest pool the prober may set.
  EXPECT_LE(runtime.admission()->data_pool().holders(),
            config.admission.probe.max_concurrency);
  EXPECT_GT(stats.wire_malformed, 0u);  // the garbage actually arrived
  // The data plane survived the barrage and control was never starved.
  EXPECT_GT(consumer.received(), 0u);
  EXPECT_EQ(runtime.bus().shed_stats().control_total(), 0u);
  const auto far_future = util::SimTime::zero() + Duration::seconds(100);
  EXPECT_TRUE(runtime.admission()->admit_control(far_future));
  // With every lease long expired, the pool drains to exactly the one
  // ticket that probe admission just took: nothing was wedged open.
  EXPECT_TRUE(runtime.admission()->admit_data(far_future));
  EXPECT_EQ(runtime.admission()->data_pool().holders(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadFuzzSeeds, ::testing::Values(0xAAAAu, 0xBBBBu, 0xCCCCu));

}  // namespace
}  // namespace garnet
