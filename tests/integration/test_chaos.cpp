// Chaos suite: the acceptance tests for deterministic fault injection on
// the bus plus retry/backoff in the RPC layer.
//
//   * Under a seeded 20% drop plan, idempotent RPCs with a retry budget
//     all eventually succeed.
//   * With faults confined to the response link, every retry reaches the
//     callee and is absorbed by the at-most-once cache: non-idempotent
//     handlers execute exactly once and deduped == retries exactly.
//   * Two runs from the same seed produce byte-identical fault journals
//     and identical garnet.bus.faults / garnet.rpc.* telemetry.
//   * With the recovery replica's bounded inbox pinned full by a data
//     flood, a crash-stopped filtering is still promoted on schedule,
//     seeded with the state it had before dying.
//   * An unreachable Resource Manager degrades actuation to an explicit
//     denial instead of a silent stall.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "garnet/runtime.hpp"
#include "net/rpc.hpp"
#include "obs/metrics.hpp"

namespace garnet {
namespace {

using util::Duration;
using util::SimTime;

/// All telemetry this suite asserts determinism over.
std::vector<std::uint64_t> chaos_counters(const obs::MetricsSnapshot& snap) {
  std::vector<std::uint64_t> values;
  for (const char* kind : {"drop", "duplicate", "delay", "reorder", "partition"}) {
    values.push_back(snap.counter("garnet.bus.faults", {{"kind", kind}}));
  }
  for (const char* name : {"garnet.rpc.calls", "garnet.rpc.retries", "garnet.rpc.exhausted",
                           "garnet.rpc.deduped", "garnet.bus.posted", "garnet.bus.delivered"}) {
    values.push_back(snap.counter(name));
  }
  return values;
}

TEST(Chaos, IdempotentCallsAllSucceedUnder20PercentDrop) {
  sim::Scheduler scheduler;
  net::MessageBus::Config config;
  config.faults.seed = 0xC0FFEE;
  config.faults.global.drop = 0.20;
  net::MessageBus bus(scheduler, config);

  net::RpcNode server(bus, "server");
  net::RpcNode client(bus, "client");
  server.expose(1, [](net::Address, util::BytesView args) -> net::RpcResult {
    return util::Bytes(args.begin(), args.end());  // echo
  });

  net::CallOptions options;
  options.timeout = Duration::millis(5);
  options.retries = 8;  // acceptance floor is >= 5
  options.backoff = Duration::millis(1);
  options.idempotent = true;

  constexpr std::uint32_t kCalls = 40;
  std::uint32_t succeeded = 0;
  for (std::uint32_t i = 0; i < kCalls; ++i) {
    util::ByteWriter w(4);
    w.u32(i);
    client.call(server.address(), 1, std::move(w).take(), options,
                [&, expected = i](net::RpcResult result) {
                  ASSERT_TRUE(result.ok()) << "call " << expected << " exhausted its budget";
                  util::ByteReader r(result.value());
                  EXPECT_EQ(r.u32(), expected);
                  ++succeeded;
                });
  }
  scheduler.run();

  EXPECT_EQ(succeeded, kCalls);
  EXPECT_EQ(bus.rpc_stats().exhausted, 0u);
  EXPECT_GT(bus.rpc_stats().retries, 0u);  // the plan really did bite
  ASSERT_NE(bus.fault_injector(), nullptr);
  EXPECT_GT(bus.fault_injector()->counters().dropped, 0u);
}

TEST(Chaos, ResponseLinkFaultsDedupEqualsRetriesExactly) {
  // Faults only on server->client: every request arrives, so every
  // retry is a duplicate the callee's cache must absorb.
  sim::Scheduler scheduler;
  net::MessageBus::Config config;
  config.faults.seed = 7;
  config.faults.links[{"server", "client"}].drop = 0.30;
  net::MessageBus bus(scheduler, config);

  net::RpcNode server(bus, "server");
  net::RpcNode client(bus, "client");
  std::uint32_t executions = 0;
  server.expose(1, [&](net::Address, util::BytesView) -> net::RpcResult {
    ++executions;
    return util::to_bytes("ok");
  });

  net::CallOptions options;
  options.timeout = Duration::millis(5);
  options.retries = 10;
  options.backoff = Duration::millis(1);
  // Non-idempotent on purpose: execute-at-most-once is the property.

  constexpr std::uint32_t kCalls = 30;
  std::uint32_t succeeded = 0;
  for (std::uint32_t i = 0; i < kCalls; ++i) {
    client.call(server.address(), 1, {}, options, [&](net::RpcResult result) {
      ASSERT_TRUE(result.ok());
      ++succeeded;
    });
  }
  scheduler.run();

  EXPECT_EQ(succeeded, kCalls);
  EXPECT_EQ(executions, kCalls);  // retries never re-executed the handler
  EXPECT_GT(bus.rpc_stats().retries, 0u);
  // Every retry-induced duplicate request — and nothing else — hit the
  // cache: the two counters must agree to the message.
  EXPECT_EQ(bus.rpc_stats().deduped, bus.rpc_stats().retries);
}

TEST(Chaos, SameSeedByteIdenticalJournalAndTelemetry) {
  const auto run_once = [] {
    sim::Scheduler scheduler;
    obs::MetricsRegistry registry;
    net::MessageBus::Config config;
    config.faults.seed = 0xDECAF;
    config.faults.global.drop = 0.15;
    config.faults.global.duplicate = 0.10;
    config.faults.global.reorder = 0.10;
    config.faults.journal_limit = 4096;
    net::MessageBus bus(scheduler, config);
    bus.set_metrics(registry);

    net::RpcNode server(bus, "server");
    net::RpcNode client(bus, "client");
    server.expose(1, [](net::Address, util::BytesView) -> net::RpcResult {
      return util::to_bytes("pong");
    });

    net::CallOptions options;
    options.timeout = Duration::millis(5);
    options.retries = 6;
    options.backoff = Duration::millis(1);
    options.idempotent = true;
    for (int i = 0; i < 50; ++i) {
      client.call(server.address(), 1, {}, options, [](net::RpcResult) {});
    }
    scheduler.run();

    return std::make_pair(bus.fault_injector()->journal_text(),
                          chaos_counters(registry.snapshot()));
  };

  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);  // byte-identical fault sequence
  EXPECT_FALSE(first.first.empty());
  EXPECT_EQ(first.second, second.second);  // identical telemetry counters
}

TEST(Chaos, RuntimeChaosRunsAreReplayable) {
  // Same property through the full Runtime: the FaultPlan rides in on
  // Runtime::Config and the telemetry replays counter-for-counter.
  const auto run_once = [] {
    Runtime::Config config;
    config.field.seed = 77;
    config.bus.faults.seed = 0xBEEF;
    config.bus.faults.global.drop = 0.25;
    config.bus.faults.global.duplicate = 0.10;
    Runtime runtime(config);
    runtime.deploy_receivers(4, 400);
    runtime.deploy_transmitters(1, 900);

    wireless::SensorField::PopulationSpec population;
    population.count = 3;
    population.interval_ms = 200;
    runtime.deploy_population(population);

    core::Consumer consumer(runtime.bus(), "consumer.chaos");
    runtime.provision(consumer, "chaos");
    consumer.subscribe(core::StreamPattern::everything());
    runtime.run_for(Duration::millis(20));
    runtime.start_sensors();
    runtime.run_for(Duration::seconds(1));
    consumer.request_update({1, 0}, core::UpdateAction::kSetIntervalMs, 150, {});
    runtime.run_for(Duration::seconds(1));

    return chaos_counters(runtime.telemetry().registry.snapshot());
  };

  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
  // The plan actually dropped traffic (index 0 = faults{kind=drop}).
  EXPECT_GT(first[0], 0u);
}

TEST(Chaos, FailoverDetectsDeadPrimaryThroughSaturatedWatchdogInbox) {
  // Combined crash + overload chaos: the recovery replica's bounded inbox
  // is kept saturated by a data-plane flood for the whole run, and the
  // filtering primary is crash-stopped by a FaultPlan entry mid-flood.
  // Checkpoint and op-log replication is control-plane, so it displaces
  // flood data instead of being shed: before the crash the flood must
  // not cause a false promotion, the watchdog must still promote on
  // schedule, and the promoted filter must hold the pre-crash state.
  Runtime::Config config;
  config.field.radio.base_loss = 0.0;  // every uplink copy is heard
  config.field.radio.edge_loss = 0.0;
  config.recovery.enabled = true;
  config.recovery.heartbeat_interval = Duration::millis(100);
  config.recovery.miss_threshold = 3;
  {
    net::InboxConfig inbox;
    inbox.capacity = 4;
    inbox.policy = net::OverflowPolicy::kDropOldest;
    inbox.service_time = Duration::millis(1);
    config.bus.inboxes[RecoveryHarness::kReplicaEndpointName] = inbox;
  }
  const SimTime crash_at = SimTime{} + Duration::millis(1000);
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "filtering";
    crash.at = crash_at;
    config.bus.faults.crashes.push_back(crash);  // no restart: watchdog promotes
  }
  Runtime runtime(config);
  runtime.deploy_receivers(1, 5000);  // one receiver covering the field
  core::Consumer consumer(runtime.bus(), "consumer.ledger");
  runtime.provision(consumer, "ledger");
  consumer.subscribe(core::StreamPattern::everything());
  std::map<core::SequenceNo, int> delivered;
  consumer.set_data_handler(
      [&](const core::DeliveryView& d) { ++delivered[d.message.sequence]; });

  // Data-plane flood aimed at the replica endpoint, refreshed faster
  // than its inbox drains so the queue stays pinned at capacity.
  net::MessageBus& bus = runtime.bus();
  const net::Address flooder = bus.add_endpoint("chaos.flooder", [](net::Envelope) {});
  const auto replica = bus.lookup(RecoveryHarness::kReplicaEndpointName);
  ASSERT_TRUE(replica.has_value());
  std::function<void()> flood = [&] {
    for (int i = 0; i < 8; ++i) {
      bus.post(flooder, *replica, net::app_type(0), util::SharedBytes{util::to_bytes("junk")});
    }
    if (runtime.scheduler().now() < SimTime{} + Duration::millis(1900)) {
      runtime.scheduler().schedule_after(Duration::millis(2), flood);
    }
  };
  flood();

  std::vector<util::Bytes> frames;
  for (core::SequenceNo seq = 0; seq < 40; ++seq) {
    core::DataMessage msg;
    msg.stream_id = {1, 0};
    msg.sequence = seq;
    msg.payload = util::to_bytes("chaos");
    frames.push_back(core::encode(msg));
  }
  const auto send_all = [&] {
    for (const util::Bytes& frame : frames) {
      runtime.field().medium().uplink({500, 500}, frame);
      runtime.run_for(Duration::millis(10));
    }
  };

  // Healthy primary + saturated replica inbox: no false promotion.
  runtime.run_for(Duration::millis(100));
  send_all();
  runtime.scheduler().run_until(crash_at - Duration::millis(1));
  EXPECT_EQ(delivered.size(), 40u);
  EXPECT_EQ(runtime.telemetry().registry.snapshot().counter("garnet.recovery.promotions"), 0u);
  EXPECT_GT(bus.shed_stats().data_total(), 0u);  // the flood really overflowed

  // At t=1s filtering dies mid-flood: detection must land within the
  // usual heartbeat_interval * (miss_threshold + 1) budget despite the
  // saturation.
  runtime.scheduler().run_until(crash_at + Duration::millis(1));
  ASSERT_TRUE(runtime.recovery()->crashed("filtering"));
  runtime.scheduler().run_until(crash_at + Duration::millis(600));
  EXPECT_FALSE(runtime.recovery()->crashed("filtering"));
  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  EXPECT_EQ(snap.counter("garnet.recovery.promotions"), 1u);
  EXPECT_LE(snap.gauge("garnet.recovery.latency_ns"),
            static_cast<double>(Duration::millis(400).ns));

  // The replicated state got through the flood: late copies of every
  // pre-crash frame are recognised, none is delivered twice.
  send_all();
  for (core::SequenceNo seq = 0; seq < 40; ++seq) EXPECT_EQ(delivered[seq], 1) << seq;

  // The structural invariant: only data-plane traffic was shed.
  EXPECT_EQ(bus.shed_stats().control_total(), 0u);
}

TEST(Chaos, UnreachableResourceManagerDegradesToDenial) {
  // The Resource Manager is partitioned off from t=0 and never heals.
  // Actuation demands must come back *denied* within the approval retry
  // budget — an explicit degraded outcome, not a stall.
  Runtime::Config config;
  {
    net::FaultPlan::PartitionSpec partition;
    partition.name = "rm-island";
    partition.members = {core::ResourceManager::kEndpointName};
    partition.opens_at = SimTime{};  // open immediately
    config.bus.faults.partitions.push_back(partition);
  }
  Runtime runtime(config);

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");

  std::optional<core::Admission> admission;
  consumer.request_update({1, 0}, core::UpdateAction::kSetIntervalMs, 500,
                          [&](std::uint32_t, core::Admission a, std::uint32_t) { admission = a; });
  runtime.run_for(Duration::seconds(1));

  ASSERT_TRUE(admission.has_value()) << "degraded path must still answer the consumer";
  EXPECT_EQ(*admission, core::Admission::kDenied);
  EXPECT_GE(runtime.actuation().stats().approval_unreachable, 1u);

  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  EXPECT_GE(snap.counter("garnet.actuation.approval_unreachable"), 1u);
  EXPECT_GE(snap.counter("garnet.rpc.exhausted"), 1u);
  EXPECT_GT(snap.counter("garnet.bus.faults", {{"kind", "partition"}}), 0u);
}

}  // namespace
}  // namespace garnet
