// Tree routing under churn: relay crashes and beacon-loss faults from
// the FaultPlan tear the multi-hop forest apart mid-stream, and the
// repair machinery (missed-beacon detection, backoff re-attach, orphan
// buffering) must restore delivery without ever duplicating a message —
// even when a fixed-service recovery promotion overlaps the re-parent.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>

#include "garnet/runtime.hpp"
#include "obs/metrics.hpp"

namespace garnet {
namespace {

using util::Duration;
using util::SimTime;

/// Counts deliveries per (stream, sequence); the suite's core invariant
/// is that no pair is ever delivered twice.
struct DeliveryLedger {
  std::map<std::pair<std::uint32_t, core::SequenceNo>, int> counts;

  void attach(core::Consumer& consumer) {
    consumer.set_data_handler([this](const core::DeliveryView& d) {
      ++counts[{d.message.stream_id.packed(), d.message.sequence}];
    });
  }

  [[nodiscard]] int max_count() const {
    int most = 0;
    for (const auto& [key, count] : counts) most = std::max(most, count);
    return most;
  }
  [[nodiscard]] std::size_t distinct() const { return counts.size(); }
};

/// Chain deployment: one receiver at the origin (range 120), two relay
/// sensors inside its disk, and a source 220m out — reachable only
/// through a relay hop.
constexpr core::SensorId kRelayA = 1;
constexpr core::SensorId kRelayB = 2;
constexpr core::SensorId kSource = 3;

Runtime::Config chain_config(std::uint64_t seed) {
  Runtime::Config config;
  config.field.area = {{0, 0}, {600, 200}};
  config.field.seed = seed;
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  config.field.tree_beacons = true;
  config.field.tree.beacon_interval = Duration::millis(100);
  config.field.tree_journal_limit = 4096;
  config.bus.faults.journal_limit = 4096;
  return config;
}

wireless::SensorNode::Config chain_node(core::SensorId id, const Runtime::Config& config,
                                        bool sampling) {
  wireless::SensorNode::Config node;
  node.id = id;
  node.capabilities.relay_capable = true;
  node.relay_overhear_range_m = 150;
  node.tree = config.field.tree;
  if (sampling) {
    wireless::StreamSpec spec;
    spec.interval_ms = 200;
    node.streams.push_back(spec);
  }
  return node;
}

void deploy_chain(Runtime& runtime, const Runtime::Config& config) {
  runtime.field().medium().add_receiver({1, {0, 0}, 120});
  runtime.location().set_receiver_layout(runtime.field().medium().receivers());
  runtime.deploy_sensor(chain_node(kRelayA, config, /*sampling=*/false),
                        std::make_unique<sim::StaticMobility>(sim::Vec2{100, 0}));
  runtime.deploy_sensor(chain_node(kRelayB, config, /*sampling=*/false),
                        std::make_unique<sim::StaticMobility>(sim::Vec2{90, 50}));
  runtime.deploy_sensor(chain_node(kSource, config, /*sampling=*/true),
                        std::make_unique<sim::StaticMobility>(sim::Vec2{220, 0}));
}

TEST(TreeChurn, RelayCrashMidForwardDeliversExactlyOnce) {
  Runtime::Config config = chain_config(11);
  // Both relays die mid-stream — the source is guaranteed to orphan no
  // matter which parent it picked — and rejoin cold 2.5s later.
  for (core::SensorId id : {kRelayA, kRelayB}) {
    net::FaultPlan::RelayFaultSpec fault;
    fault.node = id;
    fault.at = SimTime{} + Duration::seconds(4);
    fault.restart_after = Duration::millis(2500);
    config.bus.faults.relay_faults.push_back(fault);
  }
  Runtime runtime(config);
  deploy_chain(runtime, config);

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::all_of(kSource));
  DeliveryLedger ledger;
  ledger.attach(consumer);
  runtime.run_for(Duration::millis(20));

  runtime.start_sensors();
  runtime.run_for(Duration::seconds(4));  // up to the crash
  const std::size_t before_crash = ledger.distinct();
  EXPECT_GT(before_crash, 0u);  // multi-hop path was delivering

  // Through the outage: no relay is up, the source orphans and buffers.
  runtime.run_for(Duration::millis(2400));
  const std::size_t during_outage = ledger.distinct();

  // Through recovery: relays rejoin cold, the source re-attaches and
  // flushes its orphan backlog.
  runtime.run_for(Duration::seconds(6));
  EXPECT_GT(ledger.distinct(), during_outage);

  // The invariant under churn: nothing was ever delivered twice, not
  // even the frames wrapped toward a parent that died mid-forward.
  EXPECT_EQ(ledger.max_count(), 1);

  const net::FaultCounters& counters = runtime.bus().fault_injector()->counters();
  EXPECT_EQ(counters.relay_crashed, 2u);
  EXPECT_EQ(counters.relay_restarted, 2u);
  const std::string faults = runtime.bus().fault_injector()->journal_text();
  EXPECT_NE(faults.find("relay-crash"), std::string::npos);
  EXPECT_NE(faults.find("relay-restart"), std::string::npos);

  // The repair journal shows the source losing and re-finding a parent.
  const std::string repairs = runtime.field().tree_journal().text();
  EXPECT_NE(repairs.find("orphan sensor-3"), std::string::npos);
  EXPECT_GT(runtime.field().tree_stats().orphan_events, 0u);
}

TEST(TreeChurn, RecoveryPromotionOverlappingReparentStaysExactlyOnce) {
  Runtime::Config config = chain_config(12);
  config.recovery.enabled = true;
  {
    // The filtering service dies with no scheduled restart: the watchdog
    // must detect it and promote a replacement...
    net::FaultPlan::CrashSpec crash;
    crash.service = "filtering";
    crash.at = SimTime{} + Duration::seconds(4);
    config.bus.faults.crashes.push_back(crash);
  }
  for (core::SensorId id : {kRelayA, kRelayB}) {
    // ...while, in the same window, the wireless tree is re-forming.
    net::FaultPlan::RelayFaultSpec fault;
    fault.node = id;
    fault.at = SimTime{} + Duration::millis(3900);
    fault.restart_after = Duration::millis(1200);
    config.bus.faults.relay_faults.push_back(fault);
  }
  Runtime runtime(config);
  ASSERT_NE(runtime.recovery(), nullptr);
  deploy_chain(runtime, config);

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::all_of(kSource));
  DeliveryLedger ledger;
  ledger.attach(consumer);
  runtime.run_for(Duration::millis(20));

  runtime.start_sensors();
  runtime.run_for(Duration::seconds(15));

  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  EXPECT_EQ(snap.counter("garnet.recovery.crashes"), 1u);
  EXPECT_EQ(snap.counter("garnet.recovery.promotions"), 1u);
  EXPECT_FALSE(runtime.recovery()->crashed("filtering"));

  // The tree repaired itself underneath the promotion...
  EXPECT_GT(runtime.field().tree_stats().orphan_events, 0u);
  EXPECT_GT(ledger.distinct(), 0u);
  // ...and the overlap never opened a duplicate-delivery window: orphan
  // flush, relay dedup, filtering restore and stash replay all met.
  EXPECT_EQ(ledger.max_count(), 1);
}

/// One full churn run reduced to its replay-comparable artifacts.
struct ChurnOutcome {
  std::string fault_journal;
  std::string tree_journal;
  std::size_t distinct = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t reattaches = 0;
};

ChurnOutcome run_churn(std::uint64_t seed, util::Duration step) {
  Runtime::Config config = chain_config(seed);
  // Link noise draws from the injector's rng on every envelope; relay and
  // beacon faults are pure time triggers riding the same journal.
  config.bus.faults.global.drop = 0.02;
  {
    net::FaultPlan::RelayFaultSpec fault;
    fault.node = kRelayA;
    fault.at = SimTime{} + Duration::seconds(3);
    fault.restart_after = Duration::millis(1500);
    config.bus.faults.relay_faults.push_back(fault);
  }
  {
    net::FaultPlan::BeaconFaultSpec fault;
    fault.node = kSource;
    fault.at = SimTime{} + Duration::seconds(7);
    fault.restore_after = Duration::millis(1500);
    config.bus.faults.beacon_faults.push_back(fault);
  }
  Runtime runtime(config);
  deploy_chain(runtime, config);

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::all_of(kSource));
  DeliveryLedger ledger;
  ledger.attach(consumer);
  runtime.run_for(Duration::millis(20));

  runtime.start_sensors();
  const SimTime end = runtime.scheduler().now() + Duration::seconds(12);
  while (runtime.scheduler().now() < end) runtime.run_for(step);

  ChurnOutcome outcome;
  outcome.fault_journal = runtime.bus().fault_injector()->journal_text();
  outcome.tree_journal = runtime.field().tree_journal().text();
  outcome.distinct = ledger.distinct();
  outcome.forwarded = runtime.field().tree_stats().forwarded;
  outcome.reattaches = runtime.field().tree_stats().attaches;
  return outcome;
}

TEST(TreeChurn, SameSeedSameJournalsAtAnyCadence) {
  // The repair journal and the fault journal are pure functions of
  // (seed, plan): byte-identical whether the sim advances in one 12s
  // stride or in 25ms hops, because relay/beacon faults consume no rng
  // draws and the router draws none at all.
  const ChurnOutcome coarse = run_churn(0x7EE, Duration::seconds(12));
  const ChurnOutcome fine = run_churn(0x7EE, Duration::millis(25));

  EXPECT_FALSE(coarse.fault_journal.empty());
  EXPECT_NE(coarse.fault_journal.find("relay-crash"), std::string::npos);
  EXPECT_NE(coarse.fault_journal.find("beacon-loss"), std::string::npos);
  EXPECT_NE(coarse.fault_journal.find("beacon-restore"), std::string::npos);
  EXPECT_FALSE(coarse.tree_journal.empty());

  EXPECT_EQ(coarse.fault_journal, fine.fault_journal);
  EXPECT_EQ(coarse.tree_journal, fine.tree_journal);
  EXPECT_EQ(coarse.distinct, fine.distinct);
  EXPECT_EQ(coarse.forwarded, fine.forwarded);
  EXPECT_EQ(coarse.reattaches, fine.reattaches);
}

}  // namespace
}  // namespace garnet
